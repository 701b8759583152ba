/**
 * @file
 * The gold standard: simulate the reference input set to completion in
 * detail. Every characterization measures the other techniques' distance
 * from this one's results.
 */

#ifndef YASIM_TECHNIQUES_FULL_REFERENCE_HH
#define YASIM_TECHNIQUES_FULL_REFERENCE_HH

#include "techniques/technique.hh"

namespace yasim {

/**
 * The one whole-program detailed run: detail-simulate @p input's
 * recorded stream to completion, split into @p shards slices
 * (sim/sharded.hh; one slice is the plain run from a cold core). The
 * trace carries the full-run profile a detailed pass would accumulate,
 * so no profiler is attached. Work units charge every instruction at
 * the detailed rate plus the plan's functional-warming lead-ins, so
 * sharding buys wall-clock, never fewer work units. Polls ctx.cancel
 * and throws CancelledError charged with the partial work. The
 * result's technique labels are left empty.
 */
TechniqueResult runWholeProgram(const TechniqueContext &ctx,
                                const SimConfig &config, InputSet input,
                                const ShardOptions &shards);

/** Full detailed simulation of the reference input. */
class FullReference : public Technique
{
  public:
    std::string name() const override { return "reference"; }
    std::string permutation() const override { return "full"; }

    TechniqueResult run(const TechniqueContext &ctx,
                        const SimConfig &config) const override;
};

} // namespace yasim

#endif // YASIM_TECHNIQUES_FULL_REFERENCE_HH
