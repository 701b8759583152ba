/**
 * @file
 * End-to-end integration tests: the paper's headline findings must hold
 * as invariants of the whole pipeline (workloads -> simulator ->
 * techniques -> characterizations). These are the "does the repo
 * reproduce the paper" checks, run at a reduced scale.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/arch_characterization.hh"
#include "core/enhancement_study.hh"
#include "core/pb_characterization.hh"
#include "core/profile_characterization.hh"
#include "core/svat_analysis.hh"
#include "techniques/full_reference.hh"
#include "techniques/reduced_input.hh"
#include "techniques/service.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"

namespace yasim {
namespace {

/** The uncached service every test here simulates through. */
DirectService service;

TechniqueContext
ctxFor(const std::string &bench, uint64_t ref = 300'000)
{
    SuiteConfig suite;
    suite.referenceInstructions = ref;
    return TechniqueContext::make(bench, suite, service);
}

double
cpiError(const TechniqueResult &r, const TechniqueResult &ref)
{
    return std::fabs(r.cpi - ref.cpi) / ref.cpi;
}

/**
 * Paper headline: on mcf, the sampling techniques are reference-like
 * and the reduced inputs are a different program.
 */
TEST(PaperInvariants, McfSamplingBeatsReducedByAnOrderOfMagnitude)
{
    TechniqueContext ctx = ctxFor("mcf");
    SimConfig cfg = architecturalConfig(2);
    TechniqueResult ref = FullReference().run(ctx, cfg);

    double smarts_err = cpiError(Smarts(1000, 2000).run(ctx, cfg), ref);
    double simpoint_err = cpiError(
        SimPoint(10.0, 100, 1.0, "multiple 10M").run(ctx, cfg), ref);
    double reduced_err =
        cpiError(ReducedInput(InputSet::Small).run(ctx, cfg), ref);

    EXPECT_LT(smarts_err, 0.10);
    EXPECT_LT(simpoint_err, 0.10);
    EXPECT_GT(reduced_err, 0.50);
}

/** The reduced-input CPI error must flip sign across benchmarks or
 *  configurations somewhere (the paper: "the CPI error does not
 *  trend"), while SMARTS's error stays tiny everywhere. */
TEST(PaperInvariants, SmartsAccurateOnEveryBenchmark)
{
    SimConfig cfg = architecturalConfig(1);
    for (const std::string bench :
         {"gzip", "gcc", "mcf", "perlbmk", "art"}) {
        TechniqueContext ctx = ctxFor(bench);
        TechniqueResult ref = FullReference().run(ctx, cfg);
        double err = cpiError(Smarts(1000, 2000).run(ctx, cfg), ref);
        // gcc's enormous phase variance needs more samples than the
        // scaled budget can hold, so its bound is looser (the paper's
        // +/-3% presumes n = 10,000 on a multi-billion-instruction
        // run).
        EXPECT_LT(err, bench == std::string("gcc") ? 0.20 : 0.12)
            << bench;
    }
}

/** PB characterization: SMARTS's bottleneck ranks are closer to the
 *  reference's than the reduced input's on a memory-bound benchmark. */
TEST(PaperInvariants, PbRanksOrderSmartsAboveReduced)
{
    TechniqueContext ctx = ctxFor("mcf", 200'000);
    PbDesign design = PbDesign::forFactors(numPbFactors(), false);
    std::vector<PbOutcome> outcomes = runPbDesign(
        service,
        {std::make_shared<FullReference>(),
         std::make_shared<Smarts>(1000, 2000),
         std::make_shared<ReducedInput>(InputSet::Small)},
        ctx, design);
    ASSERT_EQ(outcomes.size(), 3u);
    const PbOutcome &ref = outcomes[0];
    const PbOutcome &smarts = outcomes[1];
    const PbOutcome &reduced = outcomes[2];
    EXPECT_LT(pbDistance(smarts, ref) + 5.0, pbDistance(reduced, ref));
}

/** On mcf's reference run the memory latency must be a top bottleneck;
 *  on the cache-resident small input it must not be. */
TEST(PaperInvariants, McfMemoryLatencyBottleneckOnlyAtReference)
{
    TechniqueContext ctx = ctxFor("mcf", 200'000);
    PbDesign design = PbDesign::forFactors(numPbFactors(), false);
    std::vector<PbOutcome> outcomes = runPbDesign(
        service,
        {std::make_shared<FullReference>(),
         std::make_shared<ReducedInput>(InputSet::Small)},
        ctx, design);
    ASSERT_EQ(outcomes.size(), 2u);
    const PbOutcome &ref = outcomes[0];
    const PbOutcome &small = outcomes[1];

    int mem_factor = -1;
    for (size_t j = 0; j < pbFactors().size(); ++j)
        if (pbFactors()[j].name == "memory latency (first)")
            mem_factor = static_cast<int>(j);
    ASSERT_GE(mem_factor, 0);
    auto jm = static_cast<size_t>(mem_factor);
    EXPECT_LE(ref.ranks[jm], 3);
    // Ranks among the small input's near-zero effects are noisy, so
    // compare the absolute CPI effects: the reference's main-memory
    // sensitivity must dwarf the cache-resident input's.
    EXPECT_GT(std::fabs(ref.effects[jm]),
              std::fabs(small.effects[jm]) * 3.0);
}

/** Execution profiles: sampling techniques match the reference's BBV
 *  distribution; a prefix window does not (on a phased benchmark). */
TEST(PaperInvariants, ProfilesSeparateSamplingFromTruncation)
{
    TechniqueContext ctx = ctxFor("gcc");
    SimConfig cfg = architecturalConfig(2);
    TechniqueResult ref = FullReference().run(ctx, cfg);
    TechniqueResult smarts = Smarts(1000, 2000).run(ctx, cfg);
    TechniqueResult prefix = RunZ(1000.0).run(ctx, cfg);

    ProfileComparison s = compareProfiles(smarts, ref);
    ProfileComparison p = compareProfiles(prefix, ref);
    EXPECT_TRUE(s.bbv.similar);
    EXPECT_GT(p.bbv.statistic, s.bbv.statistic * 10.0);
}

/** SvAT: SMARTS must dominate every truncated permutation in accuracy
 *  on gcc, and SimPoint must be cheaper than SMARTS. */
TEST(PaperInvariants, SvatOrderings)
{
    TechniqueContext ctx = ctxFor("gcc");
    std::vector<SimConfig> configs = {architecturalConfig(1),
                                      architecturalConfig(2)};
    std::vector<TechniquePtr> techniques = {
        std::make_shared<Smarts>(1000, 2000),
        std::make_shared<SimPoint>(100.0, 10, 0.0, "multiple 100M"),
        std::make_shared<RunZ>(1000.0),
        std::make_shared<FfRunZ>(1000.0, 1000.0),
    };
    auto points = svatAnalysis(service, ctx, techniques, configs);
    ASSERT_EQ(points.size(), 4u);
    const SvatPoint &smarts = points[0];
    const SvatPoint &simpoint = points[1];
    EXPECT_LT(smarts.cpiDistance, points[2].cpiDistance);
    EXPECT_LT(smarts.cpiDistance, points[3].cpiDistance);
    EXPECT_LT(simpoint.speedPct, smarts.speedPct);
}

/** Enhancement study: SMARTS's apparent TC speedup error on gcc is a
 *  fraction of the truncated techniques'. */
TEST(PaperInvariants, EnhancementErrorsOrder)
{
    TechniqueContext ctx = ctxFor("gcc");
    SimConfig cfg = architecturalConfig(2);
    std::vector<EnhancementImpact> impacts = evaluateEnhancement(
        service,
        {std::make_shared<Smarts>(1000, 2000),
         std::make_shared<RunZ>(1000.0)},
        ctx, cfg, Enhancement::TrivialComputation);
    ASSERT_EQ(impacts.size(), 2u);
    const EnhancementImpact &smarts = impacts[0];
    const EnhancementImpact &prefix = impacts[1];
    EXPECT_LT(std::fabs(smarts.speedupError()),
              std::fabs(prefix.speedupError()));
    EXPECT_LT(std::fabs(smarts.speedupError()), 0.04);
}

/** Determinism: the whole pipeline reproduces bit-for-bit. */
TEST(PaperInvariants, EndToEndDeterminism)
{
    TechniqueContext ctx = ctxFor("vortex");
    SimConfig cfg = architecturalConfig(3);
    TechniqueResult a = Smarts(500, 1000).run(ctx, cfg);
    TechniqueResult b = Smarts(500, 1000).run(ctx, cfg);
    EXPECT_DOUBLE_EQ(a.cpi, b.cpi);
    EXPECT_DOUBLE_EQ(a.workUnits, b.workUnits);
    EXPECT_EQ(a.detailed.cycles, b.detailed.cycles);
}

/** Architecture-level characterization orders mcf techniques. */
TEST(PaperInvariants, ArchDistancesOrder)
{
    TechniqueContext ctx = ctxFor("mcf");
    SimConfig cfg = architecturalConfig(2);
    TechniqueResult ref = FullReference().run(ctx, cfg);
    double smarts =
        archDistance(Smarts(1000, 2000).run(ctx, cfg), ref);
    double reduced =
        archDistance(ReducedInput(InputSet::Small).run(ctx, cfg), ref);
    EXPECT_LT(smarts * 5.0, reduced);
}

} // namespace
} // namespace yasim
