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

#include <cstdint>
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

/** The detailed timing model. */
class OooCore
{
  public:
    explicit OooCore(const SimConfig &config);

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

    /** Ring of historical event times for occupancy limits. */
    struct HistoryRing
    {
        std::vector<uint64_t> times;
        uint64_t count = 0;

        void init(size_t entries);
        /** Time recorded @p entries slots ago (0 when history is short). */
        uint64_t back() const;
        void push(uint64_t t);
        void reset(uint64_t fill);
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
    uint64_t fuLatency(FuClass fu) const;

    /**
     * The per-instruction timing model: fetch, dispatch, ready, issue,
     * commit for exactly one committed instruction. @p pc_addr is the
     * instruction's byte address, @p next_pc the *index* of the
     * successor (address computed only for control flow), and
     * @p l1i_block / @p frontend are hoisted configuration loads.
     *
     * Forcibly inlined into the run loop: the body is past the
     * compiler's size heuristics, and an out-of-line call here costs
     * ~20% of detailed throughput.
     */
#if defined(__GNUC__) || defined(__clang__)
    [[gnu::always_inline]]
#endif
    inline void simulateOne(const Instruction &inst, uint64_t pc_addr,
                     uint64_t next_pc, uint64_t mem_addr, bool taken,
                     bool trivial_hint, uint32_t l1i_block,
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
    SlotPool intAluPool;
    SlotPool fpAluPool;
    SlotPool intMulPool;
    SlotPool fpMulPool;
    /** Per-unit next-free cycle for unpipelined dividers. */
    std::vector<uint64_t> intDivFree;
    std::vector<uint64_t> fpDivFree;

    // --- Occupancy rings ---
    HistoryRing robCommit;   // commit times, ROB-entry deep
    HistoryRing lsqCommit;   // commit times of memory ops, LSQ deep
    HistoryRing iqIssue;     // issue times, IQ deep
    HistoryRing fqDispatch;  // dispatch times, fetch-queue deep

    // --- Dependences ---
    std::vector<uint64_t> intRegReady;
    std::vector<uint64_t> fpRegReady;

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
