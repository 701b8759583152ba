/**
 * @file
 * The simulation-technique abstraction — the heart of the paper.
 *
 * A Technique answers the question "estimate this benchmark's behaviour
 * on this machine configuration without paying for a full detailed
 * reference simulation". Every technique returns the same bundle: its
 * CPI estimate, its architecture-level metric estimates, the BBEF/BBV
 * execution profile of the code it actually simulated in detail, and a
 * deterministic *work-unit* cost used by the speed-vs-accuracy analysis.
 *
 * Costs are modeled in work units rather than wall time so results are
 * machine-independent and reproducible: one detailed-simulated
 * instruction costs 1.0 units and the cheaper execution modes cost the
 * fractions below, calibrated to the detailed/functional speed ratios of
 * SimpleScalar-class simulators. The speed of a technique in the paper's
 * sense is its work divided by the reference run's work.
 */

#ifndef YASIM_TECHNIQUES_TECHNIQUE_HH
#define YASIM_TECHNIQUES_TECHNIQUE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/sharded.hh"
#include "sim/stats.hh"
#include "support/cancel.hh"
#include "workloads/suite.hh"

namespace yasim {

class SimulationService;
class TraceStore;

/** Relative cost of each execution mode (detailed instruction = 1.0). */
struct CostModel
{
    double detailedPerInst = 1.0;
    /** Functional warming: architectural state + caches + predictor
     *  (SMARTS reports ~25x faster than detailed simulation). */
    double functionalWarmPerInst = 0.04;
    /** Plain architectural fast-forward (sim-fast class, ~100x). */
    double fastForwardPerInst = 0.01;
    /** BBV profiling pass (SimPoint phase 1). */
    double profilePerInst = 0.015;
    /** Checkpoint generation (architectural state capture). */
    double checkpointPerInst = 0.01;
};

/** Everything a technique needs to know about the experiment. */
struct TechniqueContext
{
    /** Benchmark under study. */
    std::string benchmark;
    /** Suite scaling (reference length etc.). */
    SuiteConfig suite;
    /**
     * Measured dynamic length of the reference input. One paper
     * "M instructions" is referenceLength / 10000 of these (DESIGN.md
     * section 5).
     */
    uint64_t referenceLength = 0;
    /** Work-unit cost model. */
    CostModel cost;
    /**
     * Shared execution-trace store (techniques/trace_store.hh), the
     * only source of instruction streams: techniques open them through
     * openStream(ctx, input), which returns a TraceReplayer over the
     * store's recording and refuses a context without one. make()
     * fills it in.
     */
    TraceStore *traces = nullptr;
    /**
     * Sharded parallel detailed simulation (sim/sharded.hh).
     * Applies to the full-reference run only — reduced inputs always
     * run as one slice, and sampling techniques are already cheap and
     * their measured units are not shard-sized. The default (1 shard)
     * runs the whole reference as one slice on one cold core.
     */
    ShardOptions shards;
    /**
     * Cooperative cancellation for this run (support/cancel.hh).
     * Polled at batch boundaries only; the default invalid token
     * never fires. Deliberately NOT part of the cache key: a token
     * can only stop a run early, and a cancelled run produces no
     * result to cache.
     */
    CancelToken cancel;

    /** Convert the paper's scaled M-instructions to instructions. */
    uint64_t scaledM(double m) const
    {
        double insts =
            m * static_cast<double>(referenceLength) / 10000.0;
        return insts < 1.0 ? 1 : static_cast<uint64_t>(insts);
    }

    /**
     * Build a context over @p service's trace store, whose recorded
     * reference trace gives the reference length — the recording *is*
     * the measurement, so it is taken once per store. The preferred
     * construction path.
     */
    static TechniqueContext make(const std::string &benchmark,
                                 const SuiteConfig &suite,
                                 SimulationService &service);
};

/** What a technique reports back. */
struct TechniqueResult
{
    /** Technique family ("SimPoint", "Run Z", ...). */
    std::string technique;
    /** Permutation label ("multiple 10M", "Z=500M", ...). */
    std::string permutation;

    /** The technique's CPI estimate for the full reference run. */
    double cpi = 0.0;
    /**
     * Architecture-level metric estimates, paper order:
     * {IPC, branch accuracy, L1-D hit rate, L2 hit rate}.
     */
    std::vector<double> metrics;

    /** Raw statistics of the detailed-simulated portion. */
    SimStats detailed;

    /** Execution profile of the detail-simulated code (weighted). */
    std::vector<double> bbef;
    std::vector<double> bbv;

    /** Deterministic cost in work units (see CostModel). */
    double workUnits = 0.0;
    /** Dynamic instructions simulated in detail. */
    uint64_t detailedInsts = 0;
};

/** Abstract simulation technique. */
class Technique
{
  public:
    virtual ~Technique() = default;

    /** Technique family name (groups permutations in reports). */
    virtual std::string name() const = 0;

    /** Human-readable permutation label. */
    virtual std::string permutation() const = 0;

    /**
     * Estimate @p ctx.benchmark's behaviour on machine @p config.
     * Implementations must be deterministic for fixed inputs.
     */
    virtual TechniqueResult run(const TechniqueContext &ctx,
                                const SimConfig &config) const = 0;

    /** The input set whose instruction stream run() replays. */
    virtual InputSet input() const { return InputSet::Reference; }

    /**
     * Stable identity string for result caching. Must encode every
     * parameter that can change run()'s output; two techniques with
     * equal cacheKey() must produce identical results for identical
     * (context, config) inputs. The default covers techniques whose
     * permutation label pins down all parameters; techniques with
     * extra knobs (seeds, tolerances, ...) override it.
     */
    virtual std::string cacheKey() const;
};

/** Shared pointer alias used by the permutation tables. */
using TechniquePtr = std::shared_ptr<const Technique>;

} // namespace yasim

#endif // YASIM_TECHNIQUES_TECHNIQUE_HH
