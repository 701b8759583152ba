/**
 * @file
 * Systematic sampling: the SamplingPlan grid and the warming walk that
 * measures a selection of its units.
 *
 * The walk is SMARTS's cost model made literal: functional warming of
 * the gaps between selected units plus detailed simulation of the
 * units, on one OooCore and one replayer. The core's own tables warm
 * along the trace; at each unit's warm start the walk restarts the
 * core (OooCore::restart keeps the tables), measures the unit and
 * resumes warming at its end. That is exact: a detailed run writes the
 * caches, TLBs and predictor through the same lookups and update, in
 * the same per-instruction order (I side, then D side), as warming,
 * and its one extra access, the re-fetch after a redirect of the block
 * it just fetched, hits the most recent L1-I line and I-TLB entry and
 * moves only LRU stamp values. So every unit sees the warm state a
 * whole-prefix functional pass leaves at its position, and nothing is
 * copied, serialized or persisted.
 */

#ifndef YASIM_SIM_SAMPLING_HH
#define YASIM_SIM_SAMPLING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "support/cancel.hh"

namespace yasim {

class CombinedPredictor;
class ExecTrace;
class MemoryHierarchy;
class OooCore;
class TraceReplayer;

/**
 * The systematic sampling grid: maxUnits measurement units of
 * unitInsts instructions, each preceded by warmupInsts of detailed
 * warm-up, spaced period instructions apart over a run of length
 * instructions. Escalation selects every 2^k-th unit of the grid, so
 * a denser selection is always a superset of a sparser one and
 * already-measured units are reused verbatim.
 */
struct SamplingPlan
{
    uint64_t unitInsts = 0;
    uint64_t warmupInsts = 0;
    uint64_t length = 0;
    /** Grid spacing (>= span() except for single-unit runs). */
    uint64_t period = 0;
    /** Units on the grid (>= 1). */
    uint64_t maxUnits = 0;

    /**
     * Lay the grid over a run of @p length instructions. Applies the
     * SMARTS warm-up degrade rule first: a warm-up that would swallow
     * the run shrinks to leave room for at least one measured unit.
     */
    static SamplingPlan make(uint64_t unit_insts, uint64_t warmup_insts,
                             uint64_t length);

    /** Detailed instructions per unit (warm-up + measured). */
    uint64_t span() const { return unitInsts + warmupInsts; }

    /** Dynamic position where unit @p j's detailed warm-up begins. */
    uint64_t warmStart(uint64_t j) const
    {
        uint64_t gap = period > span() ? period - span() : 0;
        return j * period + gap;
    }

    /** Dynamic position where unit @p j's measured region begins. */
    uint64_t unitStart(uint64_t j) const
    {
        return warmStart(j) + warmupInsts;
    }

    /**
     * The largest power-of-two grid stride that still yields at least
     * min(@p n, maxUnits) units. Strides halve as n grows, so every
     * selection contains all sparser selections.
     */
    uint64_t strideFor(uint64_t n) const;

    /** Ascending unit indices {0, s, 2s, ...} for stride strideFor(n). */
    std::vector<uint64_t> indicesFor(uint64_t n) const;
};

/** What measuring one unit produced. */
struct UnitResult
{
    uint64_t index = 0;
    /** False when the unit lies entirely past program end. */
    bool measured = false;
    /** Snapshot-delta statistics of the measured region. */
    SimStats stats;
    uint64_t warmupDone = 0;
    uint64_t unitDone = 0;
    std::vector<double> bbef;
    std::vector<double> bbv;
};

/**
 * Run unit @p index of @p plan on @p core from @p stream, which must
 * sit at the unit's warm start: the detailed warm-up, then the
 * measured region as a snapshot delta with its block profile. The
 * one per-unit measurement every entry-state source shares. A
 * cancelled @p cancel stops the core within one poll quantum; the
 * caller must then discard the result.
 */
UnitResult measureUnit(OooCore &core, TraceReplayer &stream,
                       const SamplingPlan &plan, uint64_t index,
                       const CancelToken &cancel = CancelToken());

/** Instructions functionally warmed between cancellation polls. */
constexpr uint64_t kWarmCancelChunk = 1 << 20;

/**
 * Functionally warm @p mem and @p bp along @p cursor, which must not
 * be past @p target (checked), up to dynamic position @p target or to
 * program end, in chunks of at most kWarmCancelChunk instructions. @p cancel
 * is polled before every chunk, and once even when @p cursor already
 * sits at @p target. Each completed chunk adds the instructions it
 * warmed to @p warmed, so a caller's CancelledError can carry them.
 * The one warm-to-position loop: the warming walk, the sharded
 * reference's lead-ins and the live-point library all use it.
 *
 * @return false when a poll found @p cancel cancelled.
 */
bool warmTo(TraceReplayer &cursor, uint64_t target, MemoryHierarchy &mem,
            CombinedPredictor &bp, const CancelToken &cancel,
            uint64_t &warmed);

/**
 * Measure the units @p indices (ascending grid indices of @p plan)
 * along one in-order walk over @p trace from its first instruction:
 * functional warming up to each unit's warm start, then the unit's
 * detailed warm-up and its measured region as a snapshot delta on the
 * restarted core whose tables the walk warmed (see the file comment).
 * Results come back in @p indices order.
 *
 * A valid cancelled @p cancel token is polled once per unit and once
 * per further warming chunk, and by the core every
 * OooCore::kCancelCheckInsts; the call then throws CancelledError
 * carrying the instructions this walk warmed and simulated in detail.
 */
std::vector<UnitResult>
walkUnits(const std::shared_ptr<const ExecTrace> &trace,
          const SamplingPlan &plan, const SimConfig &config,
          const std::vector<uint64_t> &indices,
          const CancelToken &cancel = CancelToken());

} // namespace yasim

#endif // YASIM_SIM_SAMPLING_HH
