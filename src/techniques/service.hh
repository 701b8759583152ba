/**
 * @file
 * The simulation-service seam between the analyses and the engine.
 *
 * Every characterization and driver obtains technique results through a
 * SimulationService instead of calling Technique::run directly. The
 * plain DirectService just forwards, over an in-memory trace store of
 * its own; the ExperimentEngine (src/engine/) implements the same
 * interface with memoization, an on-disk result cache, and pooled grid
 * scheduling. Keeping the interface here — below the engine in the
 * dependency order — lets core analyses accept an engine handle
 * without core depending on the engine library.
 */

#ifndef YASIM_TECHNIQUES_SERVICE_HH
#define YASIM_TECHNIQUES_SERVICE_HH

#include "techniques/technique.hh"
#include "techniques/trace_store.hh"

namespace yasim {

/** Abstract provider of technique results and reference lengths. */
class SimulationService
{
  public:
    virtual ~SimulationService() = default;

    /** Produce @p technique's result for (@p ctx, @p config). */
    virtual TechniqueResult run(const Technique &technique,
                                const TechniqueContext &ctx,
                                const SimConfig &config) = 0;

    /** Dynamic length of @p benchmark's reference input. */
    virtual uint64_t referenceLength(const std::string &benchmark,
                                     const SuiteConfig &suite) = 0;

    /**
     * The shared execution-trace store (never null).
     * TechniqueContext::make copies this into the context it builds.
     */
    virtual TraceStore *traceStore() = 0;
};

/**
 * Pass-through service: simulate on every call and cache no result.
 * Each benchmark input is still recorded once, into an in-memory
 * trace store the service owns.
 */
class DirectService final : public SimulationService
{
  public:
    TechniqueResult run(const Technique &technique,
                        const TechniqueContext &ctx,
                        const SimConfig &config) override
    {
        return technique.run(ctx, config);
    }

    uint64_t referenceLength(const std::string &benchmark,
                             const SuiteConfig &suite) override
    {
        return traces.get(benchmark, InputSet::Reference, suite)
            ->length();
    }

    TraceStore *traceStore() override { return &traces; }

  private:
    TraceStore traces;
};

} // namespace yasim

#endif // YASIM_TECHNIQUES_SERVICE_HH
