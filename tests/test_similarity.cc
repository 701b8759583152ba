/** @file Tests for the Eeckhout02-style similarity analysis. */

#include <gtest/gtest.h>

#include "core/similarity.hh"
#include "techniques/trace_store.hh"

namespace yasim {
namespace {

SuiteConfig
tinySuite()
{
    SuiteConfig cfg;
    cfg.referenceInstructions = 200'000;
    return cfg;
}

TEST(Similarity, CharacteristicsAreSane)
{
    TraceStore traces;
    WorkloadCharacteristics wc =
        characterizeWorkload("art", InputSet::Reference, tinySuite(),
                             traces);
    EXPECT_EQ(wc.benchmark, "art");
    EXPECT_GT(wc.fpFraction, 0.2);       // FP benchmark
    EXPECT_GT(wc.branchAccuracy, 0.98);  // streaming loops
    EXPECT_GT(wc.loadFraction, 0.05);
    EXPECT_LT(wc.loadFraction, 0.6);
    EXPECT_GT(wc.ilpProxy, 0.5);
    EXPECT_EQ(wc.vec().size(),
              WorkloadCharacteristics::metricNames().size());
}

TEST(Similarity, IntBenchmarksHaveNoFp)
{
    TraceStore traces;
    WorkloadCharacteristics wc =
        characterizeWorkload("gzip", InputSet::Reference, tinySuite(),
                             traces);
    EXPECT_DOUBLE_EQ(wc.fpFraction, 0.0);
}

TEST(Similarity, PerlbmkIsBranchHeavy)
{
    TraceStore traces;
    WorkloadCharacteristics perl = characterizeWorkload(
        "perlbmk", InputSet::Reference, tinySuite(), traces);
    WorkloadCharacteristics eq = characterizeWorkload(
        "equake", InputSet::Reference, tinySuite(), traces);
    EXPECT_GT(perl.branchFraction, eq.branchFraction * 2.0);
    EXPECT_LT(perl.branchAccuracy, eq.branchAccuracy);
}

TEST(Similarity, ZScoreProperties)
{
    std::vector<std::vector<double>> vectors = {
        {1.0, 10.0}, {2.0, 10.0}, {3.0, 10.0}};
    auto z = zScoreNormalize(vectors);
    // Column 0: mean 2, stdev 1 -> {-1, 0, 1}.
    EXPECT_DOUBLE_EQ(z[0][0], -1.0);
    EXPECT_DOUBLE_EQ(z[1][0], 0.0);
    EXPECT_DOUBLE_EQ(z[2][0], 1.0);
    // Column 1 is constant -> all zero, not NaN.
    for (const auto &row : z)
        EXPECT_DOUBLE_EQ(row[1], 0.0);
}

TEST(Similarity, McfSmallIsADifferentProgram)
{
    TraceStore traces;
    // The paper's reduced-input finding as a clustering result.
    std::vector<std::pair<std::string, InputSet>> pairs = {
        {"mcf", InputSet::Reference}, {"mcf", InputSet::Small},
        {"gzip", InputSet::Reference}, {"gzip", InputSet::Small},
        {"art", InputSet::Reference},
    };
    SimilarityAnalysis analysis =
        analyzeSimilarity(pairs, tinySuite(), traces);
    ASSERT_EQ(analysis.items.size(), 5u);
    // mcf/small must sit far from mcf/reference — farther than
    // gzip/small sits from gzip/reference.
    double mcf_gap = analysis.distance[0][1];
    double gzip_gap = analysis.distance[2][3];
    EXPECT_GT(mcf_gap, gzip_gap * 1.5);
    // Distance matrix is symmetric with a zero diagonal.
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(analysis.distance[i][i], 0.0);
        for (size_t j = 0; j < 5; ++j)
            EXPECT_DOUBLE_EQ(analysis.distance[i][j],
                             analysis.distance[j][i]);
    }
}

TEST(Similarity, Deterministic)
{
    std::vector<std::pair<std::string, InputSet>> pairs = {
        {"gzip", InputSet::Reference}, {"vortex", InputSet::Reference}};
    // Separate stores: each analysis records its own traces.
    TraceStore traces_a, traces_b;
    SimilarityAnalysis a = analyzeSimilarity(pairs, tinySuite(), traces_a);
    SimilarityAnalysis b = analyzeSimilarity(pairs, tinySuite(), traces_b);
    EXPECT_EQ(a.cluster, b.cluster);
    EXPECT_EQ(a.distance, b.distance);
}

} // namespace
} // namespace yasim
