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
 * Issue is the one out-of-order scheduler. The per-cycle count of every
 * issue resource lives in one IssueTable record per cycle, so placing an
 * instruction is one ascending scan. A pipeline reset is O(1): the issue
 * and store-forwarding tables carry a reset generation.
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
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "support/cancel.hh"
#include "support/check.hh"
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

/**
 * Exact per-cycle counts of the core's issue resources: issue slots,
 * memory ports and the four pipelined FU pools.
 *
 * A ring of 24-byte {cycle, gen, used[]} records indexed by cycle & mask.
 * A record serves only its own cycle in the current generation; any
 * other record is stale and is claimed with zero usage when its index is
 * next touched. The generation makes reset() O(1); the 16-bit tag wraps
 * once per 65,535 resets, and only then is the ring cleared.
 *
 * The ring is exact at any size. Every query is for a cycle after the
 * horizon, the current dispatch cycle, which never moves backwards, so a
 * record at or before it is dead. A claim that would evict a live record
 * doubles the ring instead, so the table answers exactly as an unbounded
 * per-cycle, per-resource array would.
 */
class IssueTable
{
  public:
    /** The counted resources; kNone names no resource. */
    enum Resource : uint8_t
    {
        kIntAluPool,
        kIntMulPool,
        kFpAluPool,
        kFpMulPool,
        kMemPort,
        kIssueSlot,
        kNumResources,
        kNone = kNumResources,
    };

    /** Units of each resource per cycle, indexed by Resource. */
    using Widths = std::array<uint32_t, kNumResources>;

    /**
     * The widest resource the 16-bit counters hold: a claim adds up to
     * two to used[kNone], which must stay below its width, 0xffff.
     */
    static constexpr uint32_t kMaxWidth = 0x7fff;

    /** Empty table; a width of 0 counts as 1, above kMaxWidth fails. */
    void init(const Widths &widths);

    /**
     * Claim an issue slot, one unit of @p pool (none for kNone) and,
     * when @p mem, a memory port, all at the first cycle >= @p earliest
     * where each is free. @p horizon is the current dispatch cycle;
     * @p earliest must be after it, and the horizon must never decrease
     * between resets. @return the claimed cycle.
     */
    uint64_t claim(uint64_t earliest, uint64_t horizon, Resource pool,
                   bool mem)
    {
        const Resource port = mem ? kMemPort : kNone;
        for (uint64_t c = earliest;; ++c) {
            Record &r = recordFor(c, horizon);
            if (r.used[kIssueSlot] < width[kIssueSlot] &&
                r.used[pool] < width[pool] && r.used[port] < width[port]) {
                ++r.used[kIssueSlot];
                ++r.used[pool];
                ++r.used[port];
                return c;
            }
        }
    }

    /** Invalidate every record by bumping the generation. O(1). */
    void reset();

    /** Records in the ring: grows only when live cycles would alias. */
    size_t window() const { return records.size(); }

  private:
    /** Records a fresh ring starts with (6 KiB). */
    static constexpr size_t kInitialWindow = 256;
    static_assert((kInitialWindow & (kInitialWindow - 1)) == 0,
                  "the ring is indexed by cycle & mask");

    struct Record
    {
        uint64_t cycle = 0;
        /** 0 never occurs as a generation, so a fresh Record is stale. */
        uint16_t gen = 0;
        /**
         * Units used per Resource. used[kNone] counts claims that name
         * no pool or port; its width is never reached, so claim()
         * treats every request alike.
         */
        std::array<uint16_t, kNumResources + 1> used{};
    };

    /**
     * The record of @p cycle, claimed with zero usage if stale (another
     * generation) or dead (at or before the horizon).
     */
    Record &recordFor(uint64_t cycle, uint64_t horizon)
    {
        for (;;) {
            Record &r = records[cycle & mask];
            if (r.gen == gen && r.cycle == cycle) [[likely]]
                return r;
            YASIM_CHECK(cycle > horizon,
                        "issue claim at cycle %llu, at or before "
                        "dispatch %llu",
                        static_cast<unsigned long long>(cycle),
                        static_cast<unsigned long long>(horizon));
            if (r.gen != gen || r.cycle <= horizon) {
                r = Record{cycle, gen, {}};
                return r;
            }
            grow(horizon);
        }
    }

    /** Double the ring, re-homing every record live after @p horizon. */
    void grow(uint64_t horizon);

    /** Per-Resource widths; width[kNone] is never reached. */
    std::array<uint16_t, kNumResources + 1> width{};
    uint16_t gen = 1;
    uint64_t mask = 0;
    std::vector<Record> records;
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
     * Return to the just-constructed state but keep the trained caches,
     * TLBs and predictor: the entry state of a sampled unit
     * (sim/sampling.hh). A restarted core simulates exactly what a
     * fresh core given copies of its tables would, without
     * reallocating its rings and tables.
     */
    void restart();

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

    static constexpr uint8_t kNoDivider = 2;
    static constexpr size_t kFuClasses = size_t(FuClass::None) + 1;

    /** Where an FU class issues and how long it executes. */
    struct FuRoute
    {
        /** Pipelined pool, or IssueTable::kNone. */
        IssueTable::Resource pool = IssueTable::kNone;
        /** Unpipelined divider bank (0 int, 1 FP), or kNoDivider. */
        uint8_t divider = kNoDivider;
        uint32_t latency = 1;
    };

    /**
     * Schedule the issue of one instruction at or after @p earliest
     * (after @p horizon, its dispatch cycle), respecting issue
     * bandwidth, the functional-unit pool or divider for @p fu, and
     * memory ports. @p bypass_fu skips the FU constraint entirely
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
    IssueTable issueTable;
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

    /**
     * Direct-mapped store-forwarding table. A load forwards only from an
     * entry of the current generation, so a reset is O(1).
     */
    struct FwdEntry
    {
        uint64_t addr = 0;
        uint64_t doneCycle = 0;
        /** 0 never occurs as a generation, so a fresh entry is stale. */
        uint32_t gen = 0;
    };
    static constexpr size_t fwdEntries = 4096;
    std::vector<FwdEntry> storeFwd;
    uint32_t fwdGen = 1;

    // --- Accounting ---
    uint64_t retired = 0;
    uint64_t lastCommitCycle = 0;
    uint64_t trivialOps = 0;
    uint64_t memStallCycles = 0;
    bool tcEnabled = false;
};

} // namespace yasim

#endif // YASIM_SIM_OOO_CORE_HH
