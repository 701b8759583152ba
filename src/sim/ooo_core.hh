/**
 * @file
 * Cycle-level out-of-order superscalar core.
 *
 * The core is trace-driven: it consumes the in-order ExecRecord stream
 * of a TraceReplayer (sim/trace.hh) and computes, per dynamic
 * instruction, the cycle of every pipeline event with a ready-time
 * model. The model captures everything the 43-factor PB space varies:
 *
 *  - fetch bandwidth, taken-branch fetch breaks, I-cache/I-TLB stalls,
 *    fetch-queue backpressure, branch mispredict redirects
 *  - in-order dispatch limited by decode width and by ROB, IQ, and LSQ
 *    occupancy
 *  - data-dependence-driven out-of-order issue limited by issue width,
 *    functional-unit counts (unpipelined dividers), and memory ports
 *  - store-to-load forwarding through a small forwarding table
 *  - in-order commit limited by commit width
 *
 * Known simplifications (documented for reviewers): wrong-path fetch is
 * not simulated (mispredicts charge the full redirect penalty instead);
 * memory disambiguation is perfect; stores retire through an ideal store
 * buffer (they occupy ports and train the caches but do not stall
 * commit). These match the fidelity class of trace-driven academic
 * models, and every PB factor still has a first-order effect.
 */

#ifndef YASIM_SIM_OOO_CORE_HH
#define YASIM_SIM_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/bb_profiler.hh"
#include "sim/config.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "support/cancel.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

namespace yasim {

/**
 * One static instruction as the timing model reads it: the opcode's
 * predicates and register operands resolved once per program
 * (OooCore::decode) instead of once per dynamic instruction.
 *
 * Register operands are slots of the core's one register-ready array:
 * the integer file, then the FP file, then two slots no architectural
 * register maps to. kNoReg is never written by an instruction, so a
 * source without a register reads a time that can never delay issue.
 * kSink is write-only: a write to r0, or by an op without a
 * destination, lands there and no source ever reads it.
 */
struct TimingOp
{
    static constexpr uint8_t kFpBase = numIntRegs;
    static constexpr uint8_t kNoReg = numIntRegs + numFpRegs;
    static constexpr uint8_t kSink = kNoReg + 1;
    static constexpr size_t kSlots = kSink + 1;

    uint8_t src1 = kNoReg;
    uint8_t src2 = kNoReg;
    uint8_t dst = kSink;
    FuClass fu = FuClass::None;
    bool load = false;
    bool store = false;
    bool control = false;
    bool condBranch = false;
};

/** The detailed timing model. */
class OooCore
{
  public:
    explicit OooCore(const SimConfig &config);

    /**
     * The timing record of @p inst, with the operand-file rules of the
     * ISA: FCvt, Ld and FLd read rs1 from the integer file, St reads
     * both sources from it, FSt reads rs2 from the FP file, other FP
     * ops read and write the FP file, and the rest the integer file.
     */
    static TimingOp decode(const Instruction &inst);

    /**
     * Instructions between cancellation polls in the run loop. A
     * cancelled run stops within one quantum of the cancel, and the
     * hot loop stays poll-free in between (the poll on a default
     * invalid token is a single null check).
     */
    static constexpr uint64_t kCancelCheckInsts = 8192;

    /**
     * Detail-simulate up to @p max_insts instructions from @p src
     * (stops early at Halt), optionally attributing every committed
     * instruction to @p profiler. A valid @p cancel token is polled
     * every kCancelCheckInsts committed instructions; on cancellation
     * the call returns early with the count committed so far (the
     * caller decides whether that partial progress is an error).
     *
     * Records arrive through src.stepBatch in spans of a small local
     * buffer. The loop never drains the pipeline, so splitting a run
     * into several calls simulates exactly what one call would.
     *
     * @return the number of instructions committed by this call.
     */
    uint64_t run(TraceReplayer &src, uint64_t max_insts,
                 BbProfiler *profiler = nullptr,
                 const CancelToken &cancel = CancelToken());

    /**
     * run(), returning only this call's statistics delta
     * (snapshot-after minus snapshot-before). This is the SMARTS
     * measured-unit pattern: functional warming pollutes some counters
     * (e.g. prefetches issued by warmData), and subtracting snapshots
     * is the one correct way to attribute stats to a detailed region.
     * @p insts_done receives the committed-instruction count when
     * non-null.
     */
    SimStats runMeasured(TraceReplayer &src, uint64_t max_insts,
                         BbProfiler *profiler = nullptr,
                         uint64_t *insts_done = nullptr,
                         const CancelToken &cancel = CancelToken());

    /**
     * Clear in-flight pipeline state between discontiguous detailed
     * regions (sampling techniques). Caches, predictor and cycle/stat
     * counters are preserved.
     */
    void resetPipeline();

    /**
     * Return to the just-constructed state with copies of @p warm_mem
     * and @p warm_bp as the caches and predictor: the entry state of a
     * sampled unit whose tables were warmed elsewhere
     * (sim/sampling.hh). A restarted core simulates exactly what a
     * fresh core would, without reallocating its pools and rings.
     */
    void restart(const MemoryHierarchy &warm_mem,
                 const CombinedPredictor &warm_bp);

    /** Enable the trivial-computation enhancement (TC). */
    void setTrivialComputation(bool enabled) { tcEnabled = enabled; }

    /** Total committed instructions across all run() calls. */
    uint64_t instsRetired() const { return retired; }

    /** Cycle of the most recent commit (total elapsed cycles). */
    uint64_t cycles() const { return lastCommitCycle; }

    /** Point-in-time statistics snapshot (subtractable). */
    SimStats snapshot() const;

    MemoryHierarchy &memHierarchy() { return mem; }
    CombinedPredictor &predictor() { return bp; }
    const SimConfig &config() const { return cfg; }

  private:
    /** Monotonic bandwidth limiter for in-order stages. */
    struct InOrderStage
    {
        uint32_t width = 1;
        uint64_t cycle = 0;
        uint32_t usedThisCycle = 0;

        /** Schedule at the first cycle >= earliest with spare bandwidth. */
        uint64_t schedule(uint64_t earliest);
        void reset(uint64_t at);
    };

    /**
     * Ring of historical event times for occupancy limits. Slots not
     * yet written since init or reset hold 0, so back() needs no
     * fill check.
     */
    struct HistoryRing
    {
        std::vector<uint64_t> times;
        /** The oldest slot: the next push overwrites it. */
        size_t head = 0;

        void init(size_t entries);
        /** Time recorded @p entries slots ago (0 when history is short). */
        uint64_t back() const { return times[head]; }
        void push(uint64_t t)
        {
            times[head] = t;
            if (++head == times.size())
                head = 0;
        }
        void reset();
    };

    /** The pipelined FU pools, indexed by FuRoute::pool. */
    enum FuPool : uint8_t
    {
        kIntAluPool,
        kIntMulPool,
        kFpAluPool,
        kFpMulPool,
        kNumFuPools,
        kNoPool = kNumFuPools,
    };

    static constexpr uint8_t kNoDivider = 2;
    static constexpr size_t kFuClasses = size_t(FuClass::None) + 1;

    /** Where an FU class issues and how long it executes. */
    struct FuRoute
    {
        /** Pipelined pool, or kNoPool. */
        uint8_t pool = kNoPool;
        /** Unpipelined divider bank (0 int, 1 FP), or kNoDivider. */
        uint8_t divider = kNoDivider;
        uint32_t latency = 1;
    };

    /**
     * Schedule the issue of one instruction at or after @p earliest
     * (after @p horizon, its dispatch cycle), respecting issue
     * bandwidth, the functional-unit pool for @p fu,
     * and memory ports. @p bypass_fu skips the FU constraint entirely
     * (trivial computations are *eliminated*, not re-executed [Yi02]).
     */
    uint64_t scheduleIssue(uint64_t earliest, uint64_t horizon, FuClass fu,
                           bool is_mem, bool bypass_fu);

    /**
     * The per-instruction timing model: fetch, dispatch, ready, issue,
     * commit for exactly one committed instruction. @p pc_addr is the
     * instruction's byte address, @p next_pc the *index* of the
     * successor (address computed only for control flow), and
     * @p l1i_shift / @p frontend are hoisted configuration loads.
     *
     * Forcibly inlined into the run loop: the body is past the
     * compiler's size heuristics, and an out-of-line call here costs
     * ~20% of detailed throughput.
     */
#if defined(__GNUC__) || defined(__clang__)
    [[gnu::always_inline]]
#endif
    inline void simulateOne(const TimingOp &op, uint64_t pc_addr,
                     uint64_t next_pc, uint64_t mem_addr, bool taken,
                     bool trivial_hint, unsigned l1i_shift,
                     uint64_t frontend);

    SimConfig cfg;
    MemoryHierarchy mem;
    CombinedPredictor bp;

    // --- Fetch state ---
    uint64_t fetchCycle = 0;
    uint32_t fetchSlotsLeft = 0;
    uint64_t lastFetchBlock = ~0ULL;
    uint64_t redirectCycle = 0;

    // --- In-order stages ---
    InOrderStage dispatchStage;
    InOrderStage commitStage;

    // --- Out-of-order resources ---
    SlotPool issueSlots;
    SlotPool memPorts;
    std::array<SlotPool, kNumFuPools> fuPools;
    /** Per-unit next-free cycle for unpipelined dividers (int, FP). */
    std::array<std::vector<uint64_t>, 2> divFree;
    std::array<FuRoute, kFuClasses> fuRoutes;

    // --- Occupancy rings ---
    HistoryRing robCommit;   // commit times, ROB-entry deep
    HistoryRing lsqCommit;   // commit times of memory ops, LSQ deep
    HistoryRing iqIssue;     // issue times, IQ deep
    HistoryRing fqDispatch;  // dispatch times, fetch-queue deep

    // --- Dependences ---
    /** Ready cycle per TimingOp register slot. */
    std::array<uint64_t, TimingOp::kSlots> regReady{};

    /** decode() of every instruction of decodedTrace's program. */
    std::vector<TimingOp> decoded;
    std::shared_ptr<const ExecTrace> decodedTrace;

    /** Direct-mapped store-forwarding table. */
    struct FwdEntry
    {
        uint64_t addr = ~0ULL;
        uint64_t doneCycle = 0;
    };
    static constexpr size_t fwdEntries = 4096;
    std::vector<FwdEntry> storeFwd;

    // --- Accounting ---
    uint64_t retired = 0;
    uint64_t lastCommitCycle = 0;
    uint64_t trivialOps = 0;
    uint64_t memStallCycles = 0;
    bool tcEnabled = false;
};

} // namespace yasim

#endif // YASIM_SIM_OOO_CORE_HH
