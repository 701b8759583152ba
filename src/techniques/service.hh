/**
 * @file
 * The simulation-service seam between the analyses and the engine.
 *
 * Every characterization and driver obtains technique results through a
 * SimulationService instead of calling Technique::run directly, one
 * runAll() batch per grid. The plain DirectService runs the jobs one by
 * one, over an in-memory trace store of its own; the ExperimentEngine
 * (src/engine/) adds memoization, an on-disk result cache, and a pooled
 * runAll(). Keeping the interface here — below the engine in the
 * dependency order — lets core analyses accept an engine handle
 * without core depending on the engine library.
 */

#ifndef YASIM_TECHNIQUES_SERVICE_HH
#define YASIM_TECHNIQUES_SERVICE_HH

#include <vector>

#include "techniques/technique.hh"
#include "techniques/trace_store.hh"

namespace yasim {

/** One grid cell for runAll(). Pointees must outlive the call. */
struct GridJob
{
    const Technique *technique = nullptr;
    const TechniqueContext *ctx = nullptr;
    const SimConfig *config = nullptr;
};

/** Abstract provider of technique results and instruction streams. */
class SimulationService
{
  public:
    virtual ~SimulationService() = default;

    /** Produce @p technique's result for (@p ctx, @p config). */
    virtual TechniqueResult run(const Technique &technique,
                                const TechniqueContext &ctx,
                                const SimConfig &config) = 0;

    /**
     * Every job's result, in job order. This implementation calls
     * run() per job; the engine schedules the batch on its pool.
     */
    virtual std::vector<TechniqueResult>
    runAll(const std::vector<GridJob> &jobs)
    {
        std::vector<TechniqueResult> results;
        results.reserve(jobs.size());
        for (const GridJob &job : jobs)
            results.push_back(run(*job.technique, *job.ctx, *job.config));
        return results;
    }

    /**
     * The shared execution-trace store (never null).
     * TechniqueContext::make copies this into the context it builds
     * and reads the reference length off its reference recording.
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

    TraceStore *traceStore() override { return &traces; }

  private:
    TraceStore traces;
};

/**
 * Every technique on every configuration in one runAll() batch through
 * @p service: row t holds techniques[t]'s results in configuration
 * order.
 */
inline std::vector<std::vector<TechniqueResult>>
runGrid(SimulationService &service,
        const std::vector<TechniquePtr> &techniques,
        const TechniqueContext &ctx, const std::vector<SimConfig> &configs)
{
    std::vector<GridJob> jobs;
    for (const TechniquePtr &technique : techniques)
        for (const SimConfig &config : configs)
            jobs.push_back({technique.get(), &ctx, &config});
    std::vector<TechniqueResult> results = service.runAll(jobs);
    std::vector<std::vector<TechniqueResult>> rows(techniques.size());
    for (size_t i = 0; i < results.size(); ++i)
        rows[i / configs.size()].push_back(std::move(results[i]));
    return rows;
}

} // namespace yasim

#endif // YASIM_TECHNIQUES_SERVICE_HH
