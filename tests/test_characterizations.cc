/** @file Tests for the characterization framework (the core library). */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>

#include "core/arch_characterization.hh"
#include "core/config_dependence.hh"
#include "core/decision_tree.hh"
#include "core/enhancement_pb.hh"
#include "core/enhancement_study.hh"
#include "core/pb_characterization.hh"
#include "core/profile_characterization.hh"
#include "core/survey.hh"
#include "core/svat_analysis.hh"
#include "techniques/full_reference.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"

namespace yasim {
namespace {

/** The uncached service every test here simulates through. */
DirectService service;

TechniqueContext
smallContext(const std::string &benchmark = "gzip")
{
    SuiteConfig suite;
    suite.referenceInstructions = 200'000;
    return TechniqueContext::make(benchmark, suite, service);
}

TEST(PbFactors, FortyThreeNamedFactors)
{
    EXPECT_EQ(numPbFactors(), 43u);
    std::set<std::string> names;
    for (const PbFactor &factor : pbFactors()) {
        EXPECT_FALSE(factor.name.empty());
        names.insert(factor.name);
    }
    EXPECT_EQ(names.size(), 43u); // all distinct
}

TEST(PbFactors, HighAndLowProduceDifferentConfigs)
{
    for (const PbFactor &factor : pbFactors()) {
        SimConfig lo, hi;
        factor.apply(lo, false);
        factor.apply(hi, true);
        // At least one knob must differ; compare a serialized view.
        bool differs =
            std::memcmp(&lo.core, &hi.core, sizeof(lo.core)) != 0 ||
            std::memcmp(&lo.bp, &hi.bp, sizeof(lo.bp)) != 0 ||
            std::memcmp(&lo.mem, &hi.mem, sizeof(lo.mem)) != 0;
        EXPECT_TRUE(differs) << factor.name;
    }
}

TEST(ArchConfigs, FourPresetsMatchTableThree)
{
    auto configs = architecturalConfigs();
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(configs[0].core.issueWidth, 4u);
    EXPECT_EQ(configs[3].core.issueWidth, 8u);
    EXPECT_EQ(configs[0].core.robEntries, 32u);
    EXPECT_EQ(configs[3].core.robEntries, 256u);
    EXPECT_EQ(configs[0].mem.memLatencyFirst, 150u);
    EXPECT_EQ(configs[2].mem.memLatencyFirst, 300u);
    EXPECT_EQ(configs[1].bp.bhtEntries, 8192u);
}

TEST(ArchConfigs, EnvelopeIs48Configs)
{
    EXPECT_EQ(envelopeConfigs().size(), 44u + 4u);
}

TEST(PbCharacterization, ReferenceDistanceToItselfIsZero)
{
    TechniqueContext ctx = smallContext();
    // A 7-factor toy design keeps this test fast while exercising the
    // whole pipeline; the response only sees the first 7 real factors.
    PbDesign design = PbDesign::forFactors(numPbFactors(), false);
    std::vector<PbOutcome> outcomes = runPbDesign(
        service, {std::make_shared<FullReference>()}, ctx, design);
    ASSERT_EQ(outcomes.size(), 1u);
    const PbOutcome &ref = outcomes[0];
    EXPECT_EQ(ref.responses.size(), design.numRuns());
    EXPECT_EQ(ref.ranks.size(), 43u);
    EXPECT_DOUBLE_EQ(pbDistance(ref, ref), 0.0);
    EXPECT_GT(ref.workUnits, 0.0);
}

TEST(PbCharacterization, DistanceDifferenceSeriesShape)
{
    PbOutcome a, b, ref;
    a.ranks = {1, 2, 3};
    b.ranks = {3, 2, 1};
    ref.ranks = {1, 2, 3};
    auto series = pbDistanceDifference(a, b, ref);
    ASSERT_EQ(series.size(), 3u);
    // a == ref so the difference is -dist(b) at every prefix.
    EXPECT_LT(series[0], 0.0);
    EXPECT_LT(series[2], 0.0);
}

TEST(ProfileCharacterization, IdenticalProfilesSimilar)
{
    TechniqueResult a, b;
    a.technique = b.technique = "x";
    a.bbef = b.bbef = {100, 300, 50};
    a.bbv = b.bbv = {1000, 9000, 200};
    ProfileComparison cmp = compareProfiles(a, b);
    EXPECT_TRUE(cmp.bbef.similar);
    EXPECT_TRUE(cmp.bbv.similar);
    EXPECT_NEAR(cmp.bbv.statistic, 0.0, 1e-9);
}

TEST(ProfileCharacterization, SkewedProfileDissimilar)
{
    TechniqueResult ref, tech;
    ref.bbef = {1000, 1000, 1000};
    ref.bbv = {10000, 10000, 10000};
    tech.bbef = {3000, 0, 0};
    tech.bbv = {30000, 0, 0};
    ProfileComparison cmp = compareProfiles(tech, ref);
    EXPECT_FALSE(cmp.bbv.similar);
    EXPECT_GT(cmp.bbv.statistic, cmp.bbv.critical);
}

TEST(ArchCharacterization, ZeroDistanceForIdenticalMetrics)
{
    TechniqueResult ref;
    ref.metrics = {1.5, 0.95, 0.9, 0.8};
    EXPECT_DOUBLE_EQ(archDistance(ref, ref), 0.0);
    TechniqueResult off;
    off.metrics = {3.0, 0.95, 0.9, 0.8}; // IPC doubled
    EXPECT_NEAR(archDistance(off, ref), 1.0, 1e-12);
}

TEST(ArchCharacterization, AveragesOverConfigs)
{
    TechniqueResult ref;
    ref.metrics = {1.0, 1.0, 1.0, 1.0};
    TechniqueResult t1 = ref, t2 = ref;
    t2.metrics[0] = 2.0;
    double avg = archDistanceOverConfigs({t1, t2}, {ref, ref});
    EXPECT_NEAR(avg, 0.5, 1e-12);
}

TEST(Svat, ReferenceLikeTechniqueNearOrigin)
{
    TechniqueContext ctx = smallContext();
    std::vector<SimConfig> configs = {architecturalConfig(1),
                                      architecturalConfig(2)};
    std::vector<TechniquePtr> techniques = {
        std::make_shared<RunZ>(10000.0), // the whole program: exact
        std::make_shared<RunZ>(500.0),   // 5% prefix: cheap, wrong
    };
    auto points = svatAnalysis(service, ctx, techniques, configs);
    ASSERT_EQ(points.size(), 2u);
    // Whole-program Run Z reproduces the reference exactly.
    EXPECT_NEAR(points[0].cpiDistance, 0.0, 1e-9);
    EXPECT_NEAR(points[0].speedPct, 100.0, 10.0);
    // The 5% prefix is much faster and (for gzip) less accurate.
    EXPECT_LT(points[1].speedPct, 25.0);
    EXPECT_GT(points[1].cpiDistance, points[0].cpiDistance);
}

TEST(ConfigDependence, PerfectTechniqueWithin3Pct)
{
    TechniqueContext ctx = smallContext();
    std::vector<SimConfig> configs = {architecturalConfig(1),
                                      architecturalConfig(2),
                                      architecturalConfig(3)};
    std::vector<ConfigDependence> deps = configDependence(
        service, {std::make_shared<RunZ>(10000.0)}, ctx, configs);
    ASSERT_EQ(deps.size(), 1u);
    const ConfigDependence &dep = deps[0];
    ASSERT_EQ(dep.signedErrors.size(), 3u);
    EXPECT_DOUBLE_EQ(dep.within3Pct(), 1.0);
    EXPECT_DOUBLE_EQ(dep.errorConsistency(), 1.0);
}

TEST(ConfigDependence, HistogramBucketsErrors)
{
    TechniqueContext ctx = smallContext("mcf");
    std::vector<SimConfig> configs = {architecturalConfig(1),
                                      architecturalConfig(4)};
    // mcf's prefix is wildly unrepresentative.
    std::vector<ConfigDependence> deps = configDependence(
        service, {std::make_shared<RunZ>(500.0)}, ctx, configs);
    ASSERT_EQ(deps.size(), 1u);
    const ConfigDependence &dep = deps[0];
    EXPECT_EQ(dep.errorHistogram.total(), 2u);
    EXPECT_LT(dep.within3Pct(), 1.0);
}

TEST(Enhancement, NlpSpeedsUpStreamingReference)
{
    // Needs a scale where art's streaming arrays exceed the L1.
    SuiteConfig suite;
    suite.referenceInstructions = 1'000'000;
    static DirectService service;
    TechniqueContext ctx = TechniqueContext::make("art", suite, service);
    SimConfig cfg = architecturalConfig(1);
    std::vector<EnhancementImpact> impacts =
        evaluateEnhancement(service, {std::make_shared<FullReference>()},
                            ctx, cfg, Enhancement::NextLinePrefetch);
    ASSERT_EQ(impacts.size(), 1u);
    double speedup = impacts[0].referenceSpeedup;
    EXPECT_GT(speedup, 1.0);
    EXPECT_LT(speedup, 3.0);
}

TEST(Enhancement, TcSpeedsUpGcc)
{
    TechniqueContext ctx = smallContext("gcc");
    SimConfig cfg = architecturalConfig(1);
    std::vector<EnhancementImpact> impacts =
        evaluateEnhancement(service, {std::make_shared<FullReference>()},
                            ctx, cfg, Enhancement::TrivialComputation);
    ASSERT_EQ(impacts.size(), 1u);
    EXPECT_GT(impacts[0].referenceSpeedup, 1.0);
}

TEST(Enhancement, ImpactErrorIsDeltaOfSpeedups)
{
    TechniqueContext ctx = smallContext("gzip");
    SimConfig cfg = architecturalConfig(1);
    std::vector<EnhancementImpact> impacts =
        evaluateEnhancement(service, {std::make_shared<RunZ>(10000.0)},
                            ctx, cfg, Enhancement::NextLinePrefetch);
    ASSERT_EQ(impacts.size(), 1u);
    EXPECT_NEAR(impacts[0].speedupError(), 0.0, 1e-9);
}

TEST(Enhancement, ConfigToggles)
{
    SimConfig base = architecturalConfig(1);
    SimConfig tc = withEnhancement(base, Enhancement::TrivialComputation);
    SimConfig nlp = withEnhancement(base, Enhancement::NextLinePrefetch);
    EXPECT_TRUE(tc.core.trivialComputation);
    EXPECT_FALSE(base.core.trivialComputation);
    EXPECT_TRUE(nlp.mem.nextLinePrefetch);
    EXPECT_NE(tc.name, base.name);
}

TEST(EnhancementPb, NlpRanksAmongBottlenecksOnMcf)
{
    // The Yi03 application: the enhancement joins the design as factor
    // 44. On memory-bound mcf, NLP's effect must be negative (it
    // reduces CPI) and rank well above the noise tail.
    SuiteConfig suite;
    suite.referenceInstructions = 150'000;
    static DirectService service;
    TechniqueContext ctx = TechniqueContext::make("mcf", suite, service);
    FullReference reference;
    EnhancementPbOutcome out = rankEnhancementEffect(
        service, reference, ctx, Enhancement::NextLinePrefetch);
    EXPECT_EQ(out.effects.size(), 44u);
    EXPECT_EQ(out.ranks.size(), 44u);
    EXPECT_LT(out.enhancementEffect, 0.0);
    EXPECT_LE(out.enhancementRank, 20);
    EXPECT_EQ(out.ranks.back(), out.enhancementRank);
    EXPECT_GT(out.workUnits, 0.0);
}

TEST(DecisionTree, PaperRankings)
{
    DecisionTree tree;
    const CriterionRanking &acc =
        tree.recommend(SelectionGoal::Accuracy);
    ASSERT_EQ(acc.ranking.size(), 6u);
    EXPECT_EQ(acc.ranking[0], "SMARTS");
    EXPECT_EQ(acc.ranking[1], "SimPoint");
    EXPECT_EQ(acc.ranking.back(), "reduced");

    const CriterionRanking &svat =
        tree.recommend(SelectionGoal::SpeedAccuracyTradeoff);
    EXPECT_EQ(svat.ranking[0], "SimPoint");
    EXPECT_EQ(svat.ranking[1], "SMARTS");

    const CriterionRanking &complexity =
        tree.recommend(SelectionGoal::LowComplexityToUse);
    EXPECT_EQ(complexity.ranking[0], "reduced");
    EXPECT_EQ(complexity.ranking.back(), "SMARTS");

    const CriterionRanking &cost =
        tree.recommend(SelectionGoal::LowCostToGenerate);
    EXPECT_EQ(cost.ranking[0], "SimPoint");
}

TEST(DecisionTree, PrintsAllGoals)
{
    DecisionTree tree;
    std::ostringstream os;
    tree.print(os);
    std::string out = os.str();
    for (SelectionGoal goal : allSelectionGoals())
        EXPECT_NE(out.find(selectionGoalName(goal)), std::string::npos);
    EXPECT_NE(out.find("Technical Factors"), std::string::npos);
    EXPECT_NE(out.find("Practical Factors"), std::string::npos);
}

TEST(Survey, PrevalencePercentagesMatchPaper)
{
    const auto &survey = prevalenceSurvey();
    double ff_run = 0, run = 0, reduced = 0, complete = 0;
    for (const SurveyEntry &e : survey) {
        if (e.technique == "FF X + Run Z")
            ff_run = e.percentOfKnown;
        if (e.technique == "Run Z")
            run = e.percentOfKnown;
        if (e.technique == "reduced input sets")
            reduced = e.percentOfKnown;
        if (e.technique == "run to completion")
            complete = e.percentOfKnown;
    }
    EXPECT_DOUBLE_EQ(ff_run, 27.3);
    EXPECT_DOUBLE_EQ(run, 23.1);
    EXPECT_DOUBLE_EQ(reduced, 18.5);
    EXPECT_DOUBLE_EQ(complete, 17.8);
    // The four most prevalent techniques cover almost 90%.
    EXPECT_NEAR(ff_run + run + reduced + complete, 86.7, 0.1);
    EXPECT_DOUBLE_EQ(adoptionTrend().beforeSimPointPct, 68.9);
    EXPECT_DOUBLE_EQ(adoptionTrend().afterSimPointPct, 82.1);
}

} // namespace
} // namespace yasim
