/**
 * @file
 * SMARTS [Wunderlich03]: systematic sampling with functional warming
 * and statistical error estimation.
 *
 * The run alternates three modes: functional *warming* (architectural
 * execution that keeps the caches and branch predictor trained) between
 * samples, a detailed warm-up of W instructions whose statistics are
 * discarded (to fill the pipeline and window), and a detailed
 * measurement unit of U instructions. Samples are spaced evenly so that
 * n units cover the run. Afterwards the coefficient of variation of the
 * per-unit CPIs feeds the standard n >= (z * cv / eps)^2 rule at the
 * paper's 99.7% confidence / ±3% interval; when the achieved n is too
 * small the sample is escalated to the recommended n (up to 6
 * attempts, matching the paper's 1–1.59 average runs per permutation).
 *
 * Units live on the fixed grid of a SamplingPlan (sim/sampling.hh)
 * and escalation only *adds* grid units — a denser selection is a
 * strict superset of a sparser one, so the units the previous attempt
 * measured are reused verbatim instead of re-simulated (TurboSMARTSim's
 * observation). Each attempt measures its new units along one warming
 * walk (walkUnits): functional warming of the gaps between units on
 * the walk's one core, whose tables each unit's detailed run then
 * trains through the unit's span. A walk therefore costs warming of
 * the gaps plus the units' detailed length; nothing is copied,
 * serialized or persisted.
 *
 * The initial sample count is scaled from the paper's n = 10,000 by the
 * instruction-budget ratio (DESIGN.md section 5) and can be overridden.
 */

#ifndef YASIM_TECHNIQUES_SMARTS_HH
#define YASIM_TECHNIQUES_SMARTS_HH

#include "techniques/technique.hh"

namespace yasim {

/** The SMARTS technique. */
class Smarts : public Technique
{
  public:
    /**
     * @param unit_insts   detailed measurement unit U (instructions)
     * @param warmup_insts detailed warm-up W before each unit
     * @param confidence   confidence level (paper: 0.997)
     * @param interval     target relative CI half-width (paper: 0.03)
     * @param initial_n    initial sample count; 0 = auto-scale
     */
    Smarts(uint64_t unit_insts, uint64_t warmup_insts,
           double confidence = 0.997, double interval = 0.03,
           uint64_t initial_n = 0);

    std::string name() const override { return "SMARTS"; }
    std::string permutation() const override;

    /** The U=/W= label omits confidence, interval, and initial n. */
    std::string cacheKey() const override;

    TechniqueResult run(const TechniqueContext &ctx,
                        const SimConfig &config) const override;

    /** Cap on the simulation attempts one run() makes. */
    static constexpr int maxAttempts = 6;

  private:
    uint64_t unitInsts;
    uint64_t warmupInsts;
    double confidence;
    double interval;
    uint64_t initialN;
};

} // namespace yasim

#endif // YASIM_TECHNIQUES_SMARTS_HH
