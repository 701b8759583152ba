/**
 * @file
 * Property-based fuzzing of the cycle-level core: randomly generated
 * (but always-terminating) programs run on randomly chosen machine
 * configurations, checking the invariants any timing model must hold:
 *
 *  - the core commits exactly what the functional simulator executes,
 *    replayed from its recording
 *  - IPC never exceeds the commit width
 *  - cycles are bounded above by a per-instruction worst case
 *  - timing is deterministic for identical runs
 *  - enabling TC never slows the machine; raising memory latency
 *    never speeds it up
 */

#include <gtest/gtest.h>

#include "isa/program_builder.hh"
#include "sim/config.hh"
#include "sim/functional.hh"
#include "sim/memory.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "support/rng.hh"

namespace yasim {
namespace {

/** Deterministic random program: counted loops over random bodies. */
Program
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b("fuzz" + std::to_string(seed));
    b.movi(29, static_cast<int64_t>(heapBase)); // data base
    b.movi(28, 0x9e3779b1);                     // constant

    int segments = 2 + static_cast<int>(rng.nextBelow(4));
    for (int s = 0; s < segments; ++s) {
        uint64_t trips = 50 + rng.nextBelow(400);
        Label top = b.newLabel();
        b.movi(26, 0);
        b.movi(27, static_cast<int64_t>(trips));
        b.bind(top);

        int body = 3 + static_cast<int>(rng.nextBelow(8));
        for (int i = 0; i < body; ++i) {
            int rd = 3 + static_cast<int>(rng.nextBelow(18));
            int rs1 = 3 + static_cast<int>(rng.nextBelow(18));
            int rs2 = 3 + static_cast<int>(rng.nextBelow(18));
            switch (rng.nextBelow(12)) {
              case 0:
                b.add(rd, rs1, rs2);
                break;
              case 1:
                b.sub(rd, rs1, rs2);
                break;
              case 2:
                b.mul(rd, rs1, 28);
                break;
              case 3:
                b.div(rd, rs1, 28);
                break;
              case 4:
                b.xor_(rd, rs1, rs2);
                break;
              case 5: // load from a masked heap address
                b.andi(25, rs1, 0xFFFF8);
                b.add(25, 25, 29);
                b.ld(rd, 25, 0);
                break;
              case 6: // store to a masked heap address
                b.andi(25, rs1, 0xFFFF8);
                b.add(25, 25, 29);
                b.st(25, rs2, 0);
                break;
              case 7: // FP chain through the int value
                b.fcvt(1, rs1);
                b.fadd(2, 2, 1);
                break;
              case 8:
                b.fmul(3, 2, 1);
                break;
              case 9: { // forward skip (data-dependent branch)
                Label skip = b.newLabel();
                b.andi(24, rs1, 3);
                b.bne(24, 0, skip);
                b.addi(rd, rd, 1);
                b.bind(skip);
                break;
              }
              case 10:
                b.shri(rd, rs1, 5);
                break;
              default:
                b.slt(rd, rs1, rs2);
                break;
            }
        }
        b.addi(26, 26, 1);
        b.blt(26, 27, top);
    }
    b.halt();
    return b.finish();
}

/** Random PB-corner configuration. */
SimConfig
randomConfig(uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> levels(numPbFactors());
    for (int &l : levels)
        l = rng.nextBool() ? 1 : -1;
    return applyPbRow(levels, "fuzz-cfg" + std::to_string(seed));
}

class OooFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OooFuzz, TimingInvariantsHold)
{
    const uint64_t seed = GetParam();
    Program program = randomProgram(seed);

    // Functional ground truth.
    uint64_t functional_count;
    {
        FunctionalSim fsim(program);
        functional_count = fsim.fastForward(~0ULL);
        ASSERT_TRUE(fsim.halted());
    }
    auto trace = ExecTrace::record(program);

    for (int c = 0; c < 3; ++c) {
        SimConfig cfg = randomConfig(seed * 31 + static_cast<uint64_t>(c));
        TraceReplayer stream(trace);
        OooCore core(cfg);
        uint64_t committed = core.run(stream, ~0ULL);
        SimStats stats = core.snapshot();

        // Commit completeness.
        EXPECT_EQ(committed, functional_count);
        EXPECT_EQ(stats.instructions, functional_count);

        // Bandwidth bound.
        EXPECT_GE(stats.cycles * cfg.core.commitWidth,
                  stats.instructions);

        // Worst-case upper bound: every instruction fully serialized
        // through the slowest latency in the machine.
        uint64_t worst = cfg.core.intDivLatency + cfg.core.fpDivLatency +
                         cfg.mem.memLatencyFirst +
                         cfg.mem.memLatencyNext * 64 +
                         cfg.mem.tlbMissLatency + cfg.core.frontendDepth +
                         cfg.core.mispredictPenalty + 16;
        EXPECT_LE(stats.cycles, stats.instructions * worst)
            << "config " << cfg.name;

        // Determinism.
        TraceReplayer stream2(trace);
        OooCore core2(cfg);
        core2.run(stream2, ~0ULL);
        EXPECT_EQ(core2.snapshot().cycles, stats.cycles);
    }
}

TEST_P(OooFuzz, EnhancementsAndLatenciesAreMonotone)
{
    const uint64_t seed = GetParam();
    auto trace = ExecTrace::record(randomProgram(seed));
    SimConfig base = architecturalConfig(1);

    auto cycles_for = [&](const SimConfig &cfg) {
        TraceReplayer stream(trace);
        OooCore core(cfg);
        core.run(stream, ~0ULL);
        return core.snapshot().cycles;
    };

    uint64_t baseline = cycles_for(base);

    SimConfig tc = base;
    tc.core.trivialComputation = true;
    // TC moves trivial mul/div onto the ALU pool; the latency win can
    // be partially offset by ALU contention, so allow a tiny epsilon.
    EXPECT_LE(cycles_for(tc),
              baseline + baseline / 50);

    SimConfig slow_mem = base;
    slow_mem.mem.memLatencyFirst = base.mem.memLatencyFirst * 3;
    EXPECT_GE(cycles_for(slow_mem), baseline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OooFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
} // namespace yasim
