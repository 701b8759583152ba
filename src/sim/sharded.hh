/**
 * @file
 * Sharded parallel detailed simulation.
 *
 * The full-reference detailed run is the slowest serial artifact in the
 * repo: every figure anchors to it, yet it occupies one core while the
 * engine's pool parallelizes only across configurations. Sharding
 * splits the measured region into N slices at boundaries that are pure
 * plan arithmetic (shardSpacingFor); each worker seeks its own
 * TraceReplayer cursor over the shared recording to its slice,
 * functionally warms caches and predictor through its lead-in (the
 * SMARTS warming path), detail-simulates the slice on a drained
 * pipeline, and the per-shard SimStats are stitched in shard-index
 * order into whole-run statistics.
 *
 * Exactness contract (docs/perf.md): instruction, conditional-branch,
 * data-reference, and trivial-op counters are bit-identical to the
 * one-slice run; cycle and miss counters carry a small boundary error
 * (warmed-not-simulated lead-ins), empirically well under the 0.5%
 * CPI tolerance the SMARTS literature predicts. One slice is how every
 * unsharded reference and every reduced input runs
 * (runWholeProgram, techniques/full_reference.hh): one cold core
 * detail-simulates the whole trace and nothing is warmed.
 *
 * Every shard warms its lead-in in process (warmTo, sim/sampling.hh)
 * and persists nothing: at tens of millions of warmed instructions per
 * second, re-warming a lead-in is cheap, and docs/perf.md measures why
 * stored warm state does not pay at this suite's scale.
 */

#ifndef YASIM_SIM_SHARDED_HH
#define YASIM_SIM_SHARDED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "support/cancel.hh"

namespace yasim {

class ExecTrace;

/** Sharding knobs, carried from the driver down to the techniques. */
struct ShardOptions
{
    /** Worker slices for the reference detailed run (1 = one slice). */
    uint32_t shards = 1;
    /**
     * Functional-warming lead-in per shard in instructions; 0 warms
     * the full prefix (most accurate, most redundant work). Bounded
     * warm-ups below one boundary spacing (shardSpacingFor) still warm
     * from the aligned shard boundary minus the bound.
     */
    uint64_t warmupInsts = 0;

    /** True when the run splits into more than one slice. */
    bool enabled() const { return shards > 1; }
};

/** One shard: functionally warm [warmStart, begin), measure [begin, end). */
struct ShardSlice
{
    uint64_t warmStart = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
};

/**
 * The spacing shard boundaries align to for a run of @p length
 * instructions: the smallest 64Ki * 2^k that leaves at most 16 of its
 * multiples strictly before the run's end. A pure function of the
 * length.
 */
uint64_t shardSpacingFor(uint64_t length);

/**
 * Split [0, length) into at most @p shards slices with boundaries
 * aligned to the nearest multiple of shardSpacingFor(length).
 * Boundaries that collide after alignment merge, so short runs may
 * yield fewer slices. Shard 0 is never warmed (it starts cold, exactly
 * like the sequential run); later shards warm from `begin - warmup`
 * (full prefix when @p warmup == 0 or the bound reaches position zero).
 */
std::vector<ShardSlice> planShards(uint64_t length, uint32_t shards,
                                   uint64_t warmup);

/** Everything a sharded reference run produces. */
struct ShardedRunResult
{
    /** Whole-run statistics, stitched in shard-index order. */
    SimStats stats;
    /** Per-shard region statistics (diagnostics and tests). */
    std::vector<SimStats> perShard;
    /** Instructions detail-simulated (== run length). */
    uint64_t detailedInsts = 0;
    /**
     * Modeled functional-warming instructions: every slice's planned
     * lead-in, summed from the plan.
     */
    uint64_t warmedInsts = 0;
};

/**
 * Run the reference detailed simulation sharded over @p trace.
 * Workers replay independent cursors of the shared immutable trace;
 * parallelism comes from the global pool (nested invocations simply
 * run inline). @p opts.shards of 1 plans one slice, which is how every
 * unsharded reference and every reduced input runs.
 *
 * A valid @p cancel token stops the fan-out cooperatively: unstarted
 * shards are skipped, running ones return at their next batch-boundary
 * poll, and the call throws CancelledError (carrying the partial
 * detailed/warmed instruction counts) *instead of stitching* — a
 * partially-simulated run must never masquerade as whole-run
 * statistics.
 */
ShardedRunResult runShardedReference(
    const std::shared_ptr<const ExecTrace> &trace, const SimConfig &config,
    const ShardOptions &opts,
    const CancelToken &cancel = CancelToken());

} // namespace yasim

#endif // YASIM_SIM_SHARDED_HH
