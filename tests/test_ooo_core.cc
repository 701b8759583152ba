/** @file Tests for the cycle-level out-of-order core. */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "core/enhancement_study.hh"
#include "core/pb_characterization.hh"
#include "isa/program_builder.hh"
#include "sim/bb_profiler.hh"
#include "sim/memory.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "stats/plackett_burman.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

namespace yasim {
namespace {

/** A simple ALU loop with independent operations (high ILP). */
Program
ilpLoop(uint64_t trips)
{
    ProgramBuilder b("ilp");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, static_cast<int64_t>(trips));
    b.bind(top);
    b.addi(3, 3, 1);
    b.addi(4, 4, 1);
    b.addi(5, 5, 1);
    b.addi(6, 6, 1);
    b.addi(7, 7, 1);
    b.addi(8, 8, 1);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    return b.finish();
}

/** A serial dependence chain (ILP = 1). */
Program
serialChain(uint64_t trips)
{
    ProgramBuilder b("serial");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, static_cast<int64_t>(trips));
    b.bind(top);
    b.addi(3, 3, 1);
    b.addi(3, 3, 1);
    b.addi(3, 3, 1);
    b.addi(3, 3, 1);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    return b.finish();
}

/** A divide-by-constant-one loop (pure trivial computations). */
Program
trivialDivLoop(uint64_t trips)
{
    ProgramBuilder b("trivdiv");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, static_cast<int64_t>(trips));
    b.movi(3, 1);
    b.movi(4, 1000);
    b.bind(top);
    b.div(4, 4, 3); // x / 1: trivial, serial chain through r4
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    return b.finish();
}

/** Loads, divides, stores and a loop branch over a walking pointer. */
Program
mixedLoop(uint64_t trips)
{
    ProgramBuilder b("mixed");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, static_cast<int64_t>(trips));
    b.movi(3, 1);
    b.movi(5, static_cast<int64_t>(heapBase));
    b.bind(top);
    b.ld(6, 5, 0);
    b.div(7, 6, 3);
    b.st(5, 7, 0);
    b.addi(5, 5, 8);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    return b.finish();
}

/** A replay cursor over one recorded run of @p program. */
TraceReplayer
replay(const Program &program)
{
    return TraceReplayer(ExecTrace::record(program));
}

SimStats
simulate(const Program &program, SimConfig config)
{
    TraceReplayer stream = replay(program);
    OooCore core(config);
    core.run(stream, ~0ULL);
    return core.snapshot();
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.l1iAccesses, b.l1iAccesses);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.trivialOps, b.trivialOps);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.memStallCycles, b.memStallCycles);
}

TEST(OooCore, IpcNeverExceedsWidth)
{
    SimConfig cfg;
    cfg.core.issueWidth = cfg.core.commitWidth = 4;
    SimStats stats = simulate(ilpLoop(5000), cfg);
    EXPECT_GT(stats.ipc(), 1.0);
    EXPECT_LE(stats.ipc(), 4.0);
}

TEST(OooCore, WiderMachineIsFaster)
{
    SimConfig narrow;
    narrow.core.fetchWidth = narrow.core.decodeWidth = 2;
    narrow.core.issueWidth = narrow.core.commitWidth = 2;
    SimConfig wide;
    wide.core.fetchWidth = wide.core.decodeWidth = 8;
    wide.core.issueWidth = wide.core.commitWidth = 8;
    wide.core.intAlus = 8;
    SimStats n = simulate(ilpLoop(5000), narrow);
    SimStats w = simulate(ilpLoop(5000), wide);
    EXPECT_GT(w.ipc(), n.ipc() * 1.3);
}

TEST(OooCore, SerialChainBoundByLatency)
{
    SimConfig cfg;
    cfg.core.intAluLatency = 1;
    SimStats fast = simulate(serialChain(3000), cfg);
    cfg.core.intAluLatency = 2;
    SimStats slow = simulate(serialChain(3000), cfg);
    // Four chained adds per iteration: doubling ALU latency must cost
    // nearly 4 extra cycles per iteration.
    EXPECT_GT(slow.cpi(), fast.cpi() * 1.4);
}

TEST(OooCore, IlpBeatsSerial)
{
    SimConfig cfg;
    SimStats ilp = simulate(ilpLoop(3000), cfg);
    SimStats serial = simulate(serialChain(3000), cfg);
    EXPECT_GT(ilp.ipc(), serial.ipc() * 1.5);
}

TEST(OooCore, RobSizeLimitsMemoryParallelism)
{
    // A strided-miss loop: a big ROB can overlap misses, a tiny one
    // cannot.
    auto missy = [] {
        ProgramBuilder b("missy");
        Label top = b.newLabel();
        b.movi(1, 0);
        b.movi(2, 3000);
        b.movi(5, static_cast<int64_t>(heapBase));
        b.bind(top);
        b.ld(6, 5, 0); // independent miss per iteration
        b.ld(7, 5, 65536);
        b.addi(5, 5, 128);
        b.addi(1, 1, 1);
        b.blt(1, 2, top);
        b.halt();
        return b.finish();
    };
    SimConfig small_rob;
    small_rob.core.robEntries = 8;
    SimConfig big_rob;
    big_rob.core.robEntries = 256;
    SimStats small_stats = simulate(missy(), small_rob);
    SimStats big_stats = simulate(missy(), big_rob);
    EXPECT_GT(small_stats.cpi(), big_stats.cpi() * 1.2);
}

TEST(OooCore, MispredictPenaltyBites)
{
    // Data-dependent 50/50 branches.
    auto branchy = [] {
        ProgramBuilder b("branchy");
        Label top = b.newLabel();
        b.movi(1, 0);
        b.movi(2, 4000);
        b.movi(3, 0x12345);
        b.movi(8, 6364136223846793005LL);
        b.bind(top);
        b.mul(3, 3, 8);
        b.addi(3, 3, 1442695040888963407LL);
        b.shri(4, 3, 33);
        b.andi(4, 4, 1);
        Label skip = b.newLabel();
        b.bne(4, 0, skip);
        b.addi(5, 5, 1);
        b.bind(skip);
        b.addi(1, 1, 1);
        b.blt(1, 2, top);
        b.halt();
        return b.finish();
    };
    SimConfig cheap;
    cheap.core.mispredictPenalty = 1;
    cheap.core.frontendDepth = 2;
    SimConfig pricey;
    pricey.core.mispredictPenalty = 20;
    pricey.core.frontendDepth = 10;
    SimStats c = simulate(branchy(), cheap);
    SimStats p = simulate(branchy(), pricey);
    EXPECT_GT(c.condMispredicts, c.condBranches / 8);
    EXPECT_GT(p.cpi(), c.cpi() * 1.2);
}

TEST(OooCore, TrivialComputationSpeedsUpTrivialDivides)
{
    SimConfig base;
    base.core.intDivLatency = 40;
    SimConfig tc = base;
    tc.core.trivialComputation = true;
    SimStats plain = simulate(trivialDivLoop(2000), base);
    SimStats enhanced = simulate(trivialDivLoop(2000), tc);
    EXPECT_GT(enhanced.trivialOps, 1900u);
    EXPECT_EQ(plain.trivialOps, 0u);
    // The serial divide chain collapses from ~40 to ~1 cycle per trip.
    EXPECT_GT(plain.cpi(), enhanced.cpi() * 3.0);
}

TEST(OooCore, StoreForwardingBeatsCacheLatency)
{
    auto fwd = [] {
        ProgramBuilder b("fwd");
        Label top = b.newLabel();
        b.movi(1, 0);
        b.movi(2, 2000);
        b.movi(5, static_cast<int64_t>(heapBase));
        b.bind(top);
        b.st(5, 1, 0);
        b.ld(6, 5, 0); // forwarded from the store
        b.addi(1, 1, 1);
        b.blt(1, 2, top);
        b.halt();
        return b.finish();
    };
    SimConfig cfg;
    cfg.mem.l1dLatency = 4;
    SimStats stats = simulate(fwd(), cfg);
    // Load value available promptly; the loop must not serialize on a
    // 4-cycle L1 for every load.
    EXPECT_LT(stats.cpi(), 4.0);
}

TEST(OooCore, ResetPipelineKeepsCachesAndStats)
{
    TraceReplayer stream = replay(ilpLoop(2000));
    SimConfig cfg;
    OooCore core(cfg);
    core.run(stream, 3000);
    SimStats mid = core.snapshot();
    core.resetPipeline();
    core.run(stream, ~0ULL);
    SimStats end = core.snapshot();
    EXPECT_GT(end.instructions, mid.instructions);
    EXPECT_GE(end.cycles, mid.cycles);
}

TEST(OooCore, RestartSimulatesWhatAFreshCoreDoes)
{
    // The sampling walk restarts one core per unit instead of building
    // a fresh one, so a core that has run (clocks, rings, issue table,
    // dividers, forwarding table, a toggled trivial-computation flag)
    // must, once restarted over the tables it trained, simulate exactly
    // what a fresh core given copies of those tables does.
    SimConfig cfg;
    auto trace = ExecTrace::record(mixedLoop(20000));

    OooCore used(cfg);
    used.setTrivialComputation(!cfg.core.trivialComputation);
    TraceReplayer before(trace);
    used.run(before, 50000);
    ASSERT_GT(used.snapshot().trivialOps, 0u); // the toggle took hold
    used.restart();

    OooCore fresh(cfg);
    fresh.memHierarchy() = used.memHierarchy();
    fresh.predictor() = used.predictor();

    TraceReplayer a(trace);
    TraceReplayer b(trace);
    a.seek(30000);
    b.seek(30000);
    used.run(a, ~0ULL);
    fresh.run(b, ~0ULL);
    expectSameStats(used.snapshot(), fresh.snapshot());
}

TEST(OooCore, DetailedSpanTrainsTablesAsWarmingDoes)
{
    // The sampling walk measures a unit on the tables it warmed, then
    // resumes warming from the unit's end, so simulating a span in
    // detail must leave the caches, TLBs and predictor as functionally
    // warming it does, up to LRU stamp values that no later hit, miss
    // or victim can see. A later unit measured on each pair must read
    // the same, on every configuration axis the tables' training
    // depends on: the PB rows, the next-line prefetcher, and FIFO and
    // random replacement.
    std::vector<SimConfig> configs =
        pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false));
    for (const SimConfig &config : architecturalConfigs())
        configs.push_back(
            withEnhancement(config, Enhancement::NextLinePrefetch));
    for (ReplacementPolicy policy :
         {ReplacementPolicy::Fifo, ReplacementPolicy::Random}) {
        SimConfig config = architecturalConfig(2);
        config.mem.l1i.replacement = policy;
        config.mem.l1d.replacement = policy;
        configs.push_back(config);
    }
    ASSERT_EQ(configs.size(), 50u);

    // The span is long enough to mispredict, miss and evict in every
    // table; the measured unit follows a short warming gap.
    constexpr uint64_t kSpanStart = 20'000;
    constexpr uint64_t kSpanEnd = 30'000;
    constexpr uint64_t kUnitStart = 31'000;
    constexpr uint64_t kUnitInsts = 3'000;
    SuiteConfig suite;
    suite.referenceInstructions = 40'000;
    for (const char *bench : {"gcc", "mcf"}) {
        auto trace = ExecTrace::record(
            buildWorkload(bench, InputSet::Reference, suite).program);
        ASSERT_GE(trace->length(), kUnitStart + kUnitInsts);
        for (size_t c = 0; c < configs.size(); ++c) {
            SCOPED_TRACE(std::string(bench) + " config " +
                         std::to_string(c));
            OooCore detailed(configs[c]);
            OooCore warmed(configs[c]);
            TraceReplayer a(trace);
            TraceReplayer b(trace);
            auto warm = [](TraceReplayer &src, OooCore &core,
                           uint64_t insts) {
                return src.fastForwardWarm(insts, &core.memHierarchy(),
                                           &core.predictor());
            };
            ASSERT_EQ(warm(a, detailed, kSpanStart), kSpanStart);
            ASSERT_EQ(warm(b, warmed, kSpanStart), kSpanStart);

            detailed.restart();
            ASSERT_EQ(detailed.run(a, kSpanEnd - kSpanStart),
                      kSpanEnd - kSpanStart);
            ASSERT_GT(detailed.snapshot().condMispredicts, 0u);
            ASSERT_EQ(warm(b, warmed, kSpanEnd - kSpanStart),
                      kSpanEnd - kSpanStart);

            for (auto [src, core] : {std::pair{&a, &detailed},
                                     std::pair{&b, &warmed}}) {
                ASSERT_EQ(warm(*src, *core, kUnitStart - kSpanEnd),
                          kUnitStart - kSpanEnd);
                core->restart();
            }
            expectSameStats(detailed.runMeasured(a, kUnitInsts),
                            warmed.runMeasured(b, kUnitInsts));
        }
    }
}

TEST(OooCore, ChunkedRunMatchesMonolithicExactly)
{
    // run() never drains the pipeline (only resetPipeline() does), so
    // a run split into pieces must simulate exactly what one call
    // does. Piece sizes straddle the core's 256-record fetch batch and
    // the trace's 65,536-record chunk, on a program several chunks
    // long.
    SimConfig cfg;
    auto trace = ExecTrace::record(ilpLoop(40000));
    ASSERT_GT(trace->length(), uint64_t(4) * 65536);
    TraceReplayer whole(trace);
    OooCore mono_core(cfg);
    mono_core.run(whole, ~0ULL);
    const SimStats mono = mono_core.snapshot();
    ASSERT_EQ(mono.instructions, trace->length());

    for (uint64_t piece : {1, 7, 255, 256, 257, 500, 8193, 65535, 65536,
                           65537, 70000}) {
        SCOPED_TRACE("piece " + std::to_string(piece));
        TraceReplayer stream(trace);
        OooCore core(cfg);
        while (core.run(stream, piece) == piece) {
        }
        expectSameStats(core.snapshot(), mono);
    }
}

TEST(OooCore, ProfilerSeesEveryInstruction)
{
    TraceReplayer stream = replay(ilpLoop(100));
    SimConfig cfg;
    OooCore core(cfg);
    BbProfiler profiler(stream.trace()->program());
    uint64_t done = core.run(stream, ~0ULL, &profiler);
    double total = 0.0;
    for (double v : profiler.bbv())
        total += v;
    EXPECT_DOUBLE_EQ(total, static_cast<double>(done));
}

TEST(OooCore, SnapshotDeltasArePerRegion)
{
    TraceReplayer stream = replay(ilpLoop(3000));
    SimConfig cfg;
    OooCore core(cfg);
    core.run(stream, 1000);
    SimStats a = core.snapshot();
    core.run(stream, 1000);
    SimStats b = core.snapshot();
    SimStats delta = b - a;
    EXPECT_EQ(delta.instructions, 1000u);
    EXPECT_GT(delta.cycles, 0u);
}

/** Memory-latency sweep: CPI must rise monotonically with latency. */
class MemLatencySweep : public ::testing::TestWithParam<uint32_t>
{
  public:
    static Program missLoop()
    {
        ProgramBuilder b("miss");
        Label top = b.newLabel();
        b.movi(1, 0);
        b.movi(2, 1500);
        b.movi(5, static_cast<int64_t>(heapBase));
        b.movi(8, 2654435761LL);
        b.bind(top);
        b.ld(6, 5, 0);
        b.add(5, 5, 6);
        b.mul(5, 5, 8);
        b.addi(5, 5, 0x4F1BCDC8LL);
        b.andi(5, 5, 0x3FFFFF8);
        b.movi(7, static_cast<int64_t>(heapBase));
        b.add(5, 5, 7);
        b.andi(5, 5, ~7LL);
        b.addi(1, 1, 1);
        b.blt(1, 2, top);
        b.halt();
        return b.finish();
    }
};

TEST_P(MemLatencySweep, CpiTracksMemoryLatency)
{
    SimConfig fast;
    fast.mem.memLatencyFirst = 50;
    SimConfig slow;
    slow.mem.memLatencyFirst = GetParam();
    SimStats f = simulate(missLoop(), fast);
    SimStats s = simulate(missLoop(), slow);
    EXPECT_GT(s.cpi(), f.cpi());
}

INSTANTIATE_TEST_SUITE_P(Latencies, MemLatencySweep,
                         ::testing::Values(100, 200, 400));

// -------------------------------------------------------------- decode

TEST(OooCore, DecodeMatchesTheIsaPredicatesAndOperandFiles)
{
    // Every opcode with each register operand at r0, a live register
    // and noReg: the timing record must carry the ISA predicates and
    // route every operand to the register file simulateOne reads.
    constexpr int kLive = 5;
    auto slot = [](int reg, bool fp_file) -> int {
        if (reg == noReg)
            return TimingOp::kNoReg;
        return fp_file ? TimingOp::kFpBase + reg : reg;
    };
    for (int o = 0; o <= static_cast<int>(Opcode::Halt); ++o) {
        for (int rd : {0, kLive, noReg}) {
            for (int rs1 : {0, kLive, noReg}) {
                for (int rs2 : {0, kLive, noReg}) {
                    Instruction inst;
                    inst.op = static_cast<Opcode>(o);
                    inst.rd = rd;
                    inst.rs1 = rs1;
                    inst.rs2 = rs2;
                    SCOPED_TRACE(std::string(opcodeName(inst.op)) +
                                 " rd " + std::to_string(rd) + " rs1 " +
                                 std::to_string(rs1) + " rs2 " +
                                 std::to_string(rs2));
                    const TimingOp op = OooCore::decode(inst);
                    EXPECT_EQ(op.load, inst.isLoad());
                    EXPECT_EQ(op.store, inst.isStore());
                    EXPECT_EQ(op.control, inst.isControl());
                    EXPECT_EQ(op.condBranch, inst.isCondBranch());
                    EXPECT_EQ(op.fu, inst.fuClass());

                    // Writes to r0, or without a destination, land in
                    // the sink.
                    if (inst.writesFpReg())
                        EXPECT_EQ(op.dst, slot(rd, true));
                    else if (rd == 0 || rd == noReg)
                        EXPECT_EQ(op.dst, TimingOp::kSink);
                    else
                        EXPECT_EQ(op.dst, slot(rd, false));

                    // FCvt, Ld and FLd read only rs1, from the int
                    // file; St reads both sources from the int file;
                    // FSt reads rs2 from the FP file; the other ops
                    // read the FP file exactly when they are FP ops.
                    switch (inst.op) {
                      case Opcode::FCvt:
                      case Opcode::Ld:
                      case Opcode::FLd:
                        EXPECT_EQ(op.src1, slot(rs1, false));
                        EXPECT_EQ(op.src2, TimingOp::kNoReg);
                        break;
                      case Opcode::St:
                        EXPECT_EQ(op.src1, slot(rs1, false));
                        EXPECT_EQ(op.src2, slot(rs2, false));
                        break;
                      case Opcode::FSt:
                        EXPECT_EQ(op.src1, slot(rs1, false));
                        EXPECT_EQ(op.src2, slot(rs2, true));
                        break;
                      default:
                        EXPECT_EQ(op.src1, slot(rs1, inst.isFp()));
                        EXPECT_EQ(op.src2, slot(rs2, inst.isFp()));
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------- IssueTable

/**
 * One resource as the core counted it before the issue table: a
 * per-cycle map of used units, unbounded, with a linear free search.
 */
struct MapPool
{
    uint32_t width = 1;
    std::map<uint64_t, uint32_t> used;

    uint64_t findFree(uint64_t c) const
    {
        for (auto it = used.find(c); it != used.end() && it->second >= width;
             it = used.find(c))
            ++c;
        return c;
    }
};

/**
 * Six MapPools and the fixed-point loop that scheduled over them: jump
 * to the first cycle each constraint allows, in turn, until one cycle
 * satisfies all of them. The reference for IssueTable's single scan.
 */
struct SixPoolOracle
{
    std::array<MapPool, IssueTable::kNumResources> pools;

    uint64_t findFree(uint64_t earliest, IssueTable::Resource pool,
                      bool mem) const
    {
        const MapPool &issue = pools[IssueTable::kIssueSlot];
        uint64_t c = earliest;
        for (;;) {
            c = issue.findFree(c);
            if (pool != IssueTable::kNone) {
                const uint64_t c2 = pools[pool].findFree(c);
                if (c2 != c) {
                    c = c2;
                    continue;
                }
            }
            if (mem) {
                const uint64_t c3 = pools[IssueTable::kMemPort].findFree(c);
                if (c3 != c) {
                    c = c3;
                    continue;
                }
            }
            return c;
        }
    }

    void consume(uint64_t c, IssueTable::Resource pool, bool mem)
    {
        ++pools[IssueTable::kIssueSlot].used[c];
        if (pool != IssueTable::kNone)
            ++pools[pool].used[c];
        if (mem)
            ++pools[IssueTable::kMemPort].used[c];
    }

    void clear()
    {
        for (MapPool &p : pools)
            p.used.clear();
    }
};

/** What one oracle run exercised. */
struct OracleRun
{
    size_t window = 0;
    /** Requests an FU pool or a memory port delayed past issue alone. */
    uint64_t poolBound = 0;
    uint64_t portBound = 0;
};

/**
 * Drive a fresh IssueTable against the six-pool oracle under a horizon
 * that only moves forward, as dispatch does. Each request draws one of
 * the four resource sets an instruction can need: an issue slot alone
 * (a trivial op or a divide), with an FU pool, with a memory port, or
 * with both. Widths are drawn from 1 to 16 per resource. Most queries
 * crowd the horizon and fill its cycles; one in ten lands up to
 * @p far_reach cycles ahead, a reach that @p widen stretches through
 * the run, so the ring keeps growing while full records sit near the
 * horizon.
 */
OracleRun
checkTableAgainstOracle(uint64_t far_reach, bool widen, uint64_t seed)
{
    Rng rng(seed);
    IssueTable::Widths widths{};
    SixPoolOracle oracle;
    for (size_t r = 0; r < IssueTable::kNumResources; ++r) {
        widths[r] = static_cast<uint32_t>(1 + rng.nextBelow(16));
        oracle.pools[r].width = widths[r];
    }
    IssueTable table;
    table.init(widths);
    OracleRun run;
    uint64_t horizon = 0;
    for (int step = 0; step < 20000; ++step) {
        horizon += rng.nextBelow(3);
        if (rng.nextBelow(500) == 0) {
            table.reset();
            oracle.clear();
        }
        const uint64_t reach =
            rng.nextBelow(10) == 0 ? far_reach + (widen ? step / 4 : 0)
                                   : 8;
        const uint64_t earliest = horizon + 1 + rng.nextBelow(reach);
        const bool with_pool = rng.nextBool(0.5);
        const bool mem = rng.nextBool(0.5);
        const auto pool =
            with_pool ? static_cast<IssueTable::Resource>(
                            rng.nextBelow(IssueTable::kMemPort))
                      : IssueTable::kNone;
        const uint64_t expected = oracle.findFree(earliest, pool, mem);
        const uint64_t issue_only =
            oracle.findFree(earliest, IssueTable::kNone, false);
        run.poolBound += with_pool && oracle.findFree(earliest, pool,
                                                      false) != issue_only;
        run.portBound +=
            mem && oracle.findFree(earliest, IssueTable::kNone, true) !=
                       issue_only;
        const uint64_t got = table.claim(earliest, horizon, pool, mem);
        oracle.consume(expected, pool, mem);
        EXPECT_EQ(got, expected) << "step " << step;
        if (got != expected)
            break;
    }
    run.window = table.window();
    return run;
}

TEST(IssueTable, MatchesSixUnboundedPoolsWhileGrowing)
{
    // Far queries reach 8192 cycles past the horizon from the start
    // and 13,191 by the end, outrunning the 256-record ring and its
    // doublings, so live cycles keep colliding: the ring must grow (at
    // least twice) instead of aliasing.
    uint64_t pool_bound = 0, port_bound = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        const OracleRun run = checkTableAgainstOracle(8192, true, seed);
        EXPECT_GE(run.window, 1024u);
        pool_bound += run.poolBound;
        port_bound += run.portBound;
    }
    // A pool or port at least as wide as the issue width never binds.
    // These draws include narrower ones, so the scan's pool and port
    // checks both decide some answers.
    EXPECT_GT(pool_bound, 0u);
    EXPECT_GT(port_bound, 0u);
    // Traffic that stays within the first ring never grows it.
    EXPECT_EQ(checkTableAgainstOracle(64, false, 9).window, 256u);
}

TEST(IssueTable, RejectsAClaimAtOrBeforeTheHorizon)
{
    IssueTable table;
    table.init({1, 1, 1, 1, 1, 1});
    EXPECT_EQ(table.claim(11, 10, IssueTable::kIntAluPool, true), 11u);
    EXPECT_DEATH(table.claim(10, 10, IssueTable::kNone, false),
                 "at or before dispatch");
}

TEST(IssueTable, GenerationWrapForgetsEveryRecord)
{
    // The 16-bit generation wraps on the 65,535th reset; a record
    // claimed before the wrap must not answer after it.
    IssueTable table;
    table.init({1, 1, 1, 1, 1, 1});
    EXPECT_EQ(table.claim(5, 4, IssueTable::kNone, false), 5u);
    for (int i = 0; i < 65535; ++i)
        table.reset();
    EXPECT_EQ(table.claim(5, 4, IssueTable::kNone, false), 5u);
    EXPECT_EQ(table.claim(5, 4, IssueTable::kNone, false), 6u);
}

TEST(IssueTable, RejectsAWidthItsCountersCannotHold)
{
    IssueTable table;
    IssueTable::Widths widths = {1, 1, 1, 1, 1, IssueTable::kMaxWidth};
    table.init(widths);
    widths[IssueTable::kIssueSlot] = IssueTable::kMaxWidth + 1;
    EXPECT_DEATH(table.init(widths), "above");
}

} // namespace
} // namespace yasim
