/**
 * @file
 * SimPoint [Sherwood02]: representative sampling via basic-block-vector
 * clustering.
 *
 * Phase 1 profiles the reference run functionally, recording one
 * basic-block vector per fixed-length interval. Phase 2 L1-normalizes
 * the vectors, reduces them to 15 dimensions with a random projection,
 * clusters with k-means across k = 1..max_k, and picks the smallest k
 * whose BIC score is within 90% of the best (the SimPoint 1.0 recipe).
 * Phase 3 simulates in detail only the interval closest to each cluster
 * centroid and combines the per-point results weighted by cluster
 * population.
 *
 * The paper's three permutations map to: single 100M (one point of 100
 * scaled-M), multiple 10M (10-scaled-M intervals, max_k 100, 1 scaled-M
 * detailed warm-up per point), and multiple 100M (100-scaled-M
 * intervals, max_k 10, no warm-up) — exactly Table 1. The cost model
 * charges the profiling pass, checkpoint generation up to the last
 * simulation point, and the detailed interval simulations.
 */

#ifndef YASIM_TECHNIQUES_SIMPOINT_HH
#define YASIM_TECHNIQUES_SIMPOINT_HH

#include "techniques/technique.hh"

namespace yasim {

/** A chosen simulation point (exposed for tests and inspection). */
struct SimulationPoint
{
    /** Interval index within the profiled run. */
    uint64_t interval = 0;
    /** First dynamic instruction of the interval. */
    uint64_t startInst = 0;
    /** Cluster weight in [0, 1]. */
    double weight = 0.0;
};

/** The SimPoint technique. */
class SimPoint : public Technique
{
  public:
    /**
     * @param interval_m  interval length in scaled M-instructions
     * @param max_k       maximum cluster count
     * @param warmup_m    detailed warm-up before each point (scaled M)
     * @param label       permutation label ("multiple 10M", ...)
     * @param proj_dim    projected BBV dimensionality (SimPoint uses 15)
     * @param seed        clustering/projection random seed
     * @param restarts    k-means random-seed restarts per k (Table 1
     *                    runs the tool with 7 seeds; 3 is our default)
     * @param early       pick *early* simulation points [Perelman03]:
     *                    per cluster, the earliest interval whose
     *                    distance to the centroid is within
     *                    early_tolerance of the closest one — trades a
     *                    sliver of representativeness for much cheaper
     *                    checkpoint generation
     */
    SimPoint(double interval_m, int max_k, double warmup_m,
             std::string label, size_t proj_dim = 15, uint64_t seed = 42,
             int restarts = 3, bool early = false,
             double early_tolerance = 0.3);

    std::string name() const override { return "SimPoint"; }
    std::string permutation() const override { return label; }

    /** The label is free text, so the key spells out every knob. */
    std::string cacheKey() const override;

    TechniqueResult run(const TechniqueContext &ctx,
                        const SimConfig &config) const override;

    /**
     * Phase 1+2 only: profile and cluster, returning the chosen points
     * (ordered by start). Useful for tests and the ablation benches.
     */
    std::vector<SimulationPoint>
    choosePoints(const TechniqueContext &ctx) const;

  private:
    /** choosePoints' profile-and-cluster pass, uncached. */
    std::vector<SimulationPoint>
    computePoints(const TechniqueContext &ctx) const;

    /** Interval length in instructions (scaled, with a noise floor). */
    uint64_t intervalInsts(const TechniqueContext &ctx) const;

    double intervalM;
    int maxK;
    double warmupM;
    // Display-only: two SimPoints differing only by label are the same
    // experiment and must share a cache entry; the engine restamps
    // name/permutation onto results served from a shared key
    // (Engine.RestampsDisplayLabelsOnSharedKeys pins this).
    std::string label; // yasim-lint: key-exempt(tech: display-only, engine restamps it)
    size_t projDim;
    uint64_t seed;
    int restarts;
    bool early;
    double earlyTolerance;
};

} // namespace yasim

#endif // YASIM_TECHNIQUES_SIMPOINT_HH
