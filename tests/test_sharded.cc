/**
 * @file
 * Tests for sharded parallel detailed simulation: the shard planner
 * and the drain-boundary exactness contract against the sequential
 * reference.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/ooo_core.hh"
#include "sim/sharded.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace yasim {
namespace {

/** gzip's reference workload scaled to @p ref_insts. */
Workload
workloadOf(uint64_t ref_insts)
{
    SuiteConfig suite;
    suite.referenceInstructions = ref_insts;
    return buildWorkload("gzip", InputSet::Reference, suite);
}

/** The sequential reference statistics for @p trace. */
SimStats
sequentialStats(const std::shared_ptr<const ExecTrace> &trace,
                const SimConfig &config)
{
    TraceReplayer replayer(trace);
    OooCore core(config);
    core.run(replayer, ~0ULL);
    return core.snapshot();
}

void
expectWithin(double actual, double expected, double tol,
             const char *what)
{
    ASSERT_NE(expected, 0.0) << what;
    EXPECT_LE(std::abs(actual - expected) / std::abs(expected), tol)
        << what << ": " << actual << " vs " << expected;
}

TEST(ShardPlan, CoversRunContiguouslyOnLadderRungs)
{
    const uint64_t length = 8'000'000;
    const uint64_t spacing = shardSpacingFor(length);
    auto plan = planShards(length, 8, 0);
    ASSERT_EQ(plan.size(), 8u);
    EXPECT_EQ(plan.front().begin, 0u);
    EXPECT_EQ(plan.back().end, length);
    for (size_t k = 0; k + 1 < plan.size(); ++k)
        EXPECT_EQ(plan[k].end, plan[k + 1].begin);
    for (size_t k = 1; k < plan.size(); ++k)
        EXPECT_EQ(plan[k].begin % spacing, 0u) << k;
    // Unbounded warm-up warms every shard from the start of the run;
    // shard 0 is cold by construction.
    for (const ShardSlice &s : plan)
        EXPECT_EQ(s.warmStart, 0u);
}

TEST(ShardPlan, BoundedWarmupClampsToRunStart)
{
    auto plan = planShards(8'000'000, 8, 100'000);
    for (size_t k = 1; k < plan.size(); ++k) {
        EXPECT_EQ(plan[k].warmStart, plan[k].begin - 100'000) << k;
    }
    EXPECT_EQ(plan[0].warmStart, plan[0].begin);

    // A bound exceeding the prefix degrades to a full-prefix warm.
    auto wide = planShards(8'000'000, 8, 100'000'000);
    for (const ShardSlice &s : wide)
        EXPECT_EQ(s.warmStart, 0u);
}

TEST(ShardPlan, BoundariesArePinned)
{
    // Shard boundaries are pure plan arithmetic; these literals pin the
    // plans yasim has always produced, so no refactor may move a shard
    // (and with it every sharded result).
    struct Case
    {
        uint64_t length;
        uint32_t shards;
        uint64_t warmup;
        std::vector<ShardSlice> plan;
    };
    const std::vector<Case> cases = {
        // gcc and mcf reference runs at --ref-insts 120000, 4 shards.
        {85'321, 4, 0, {{0, 0, 65'536}, {0, 65'536, 85'321}}},
        {125'218, 4, 0, {{0, 0, 65'536}, {0, 65'536, 125'218}}},
        // gcc at --ref-insts 150000 --shards 4 --shard-warmup 65536.
        {168'064, 4, 65'536,
         {{0, 0, 65'536}, {0, 65'536, 131'072},
          {65'536, 131'072, 168'064}}},
        // gzip's default 2M-instruction reference run.
        {2'193'851, 8, 65'536,
         {{0, 0, 262'144}, {196'608, 262'144, 524'288},
          {458'752, 524'288, 786'432}, {720'896, 786'432, 1'048'576},
          {983'040, 1'048'576, 1'310'720},
          {1'245'184, 1'310'720, 1'703'936},
          {1'638'400, 1'703'936, 1'966'080},
          {1'900'544, 1'966'080, 2'193'851}}},
        {8'000'000, 8, 100'000,
         {{0, 0, 1'048'576}, {948'576, 1'048'576, 2'097'152},
          {1'997'152, 2'097'152, 3'145'728},
          {3'045'728, 3'145'728, 4'194'304},
          {4'094'304, 4'194'304, 5'242'880},
          {5'142'880, 5'242'880, 5'767'168},
          {5'667'168, 5'767'168, 6'815'744},
          {6'715'744, 6'815'744, 8'000'000}}},
        {40'000'000, 4, 0,
         {{0, 0, 8'388'608}, {0, 8'388'608, 20'971'520},
          {0, 20'971'520, 29'360'128}, {0, 29'360'128, 40'000'000}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.length);
        const std::vector<ShardSlice> plan =
            planShards(c.length, c.shards, c.warmup);
        ASSERT_EQ(plan.size(), c.plan.size());
        for (size_t k = 0; k < plan.size(); ++k) {
            EXPECT_EQ(plan[k].warmStart, c.plan[k].warmStart) << k;
            EXPECT_EQ(plan[k].begin, c.plan[k].begin) << k;
            EXPECT_EQ(plan[k].end, c.plan[k].end) << k;
        }
    }
}

TEST(ShardPlan, ShortRunsMergeCollidingShards)
{
    // 150k instructions sit on a 64Ki ladder: only two interior rungs
    // exist, so eight requested shards merge down to three.
    auto plan = planShards(150'000, 8, 0);
    ASSERT_GE(plan.size(), 2u);
    ASSERT_LE(plan.size(), 8u);
    EXPECT_EQ(plan.front().begin, 0u);
    EXPECT_EQ(plan.back().end, 150'000u);
    for (size_t k = 0; k + 1 < plan.size(); ++k)
        EXPECT_EQ(plan[k].end, plan[k + 1].begin);

    auto one = planShards(150'000, 1, 0);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].warmStart, 0u);
    EXPECT_EQ(one[0].begin, 0u);
    EXPECT_EQ(one[0].end, 150'000u);
}

TEST(Sharded, DrainBoundaryCountersMatchSequentialExactly)
{
    Workload w = workloadOf(400'000);
    auto trace = ExecTrace::record(w.program);
    SimConfig config;
    SimStats seq = sequentialStats(trace, config);

    ShardOptions opts;
    opts.shards = 4;
    ShardedRunResult sharded = runShardedReference(trace, config, opts);

    // Architectural counters are bit-exact under sharding: the same
    // dynamic instructions flow through the same warmed structures.
    EXPECT_EQ(sharded.stats.instructions, seq.instructions);
    EXPECT_EQ(sharded.stats.condBranches, seq.condBranches);
    EXPECT_EQ(sharded.stats.l1dAccesses, seq.l1dAccesses);
    EXPECT_EQ(sharded.stats.trivialOps, seq.trivialOps);
    EXPECT_EQ(sharded.detailedInsts, trace->length());

    // Each fresh core re-fetches its first I-cache block, so the
    // I-side access count can exceed sequential by at most one access
    // per extra shard.
    ASSERT_GE(sharded.stats.l1iAccesses, seq.l1iAccesses);
    EXPECT_LE(sharded.stats.l1iAccesses - seq.l1iAccesses,
              sharded.perShard.size() - 1);

    // Timing carries only the documented drain-boundary error.
    expectWithin(sharded.stats.cpi(), seq.cpi(), 0.005, "cpi");
    expectWithin(sharded.stats.l1dHitRate(), seq.l1dHitRate(), 0.005,
                 "l1d hit rate");
    expectWithin(sharded.stats.l2HitRate(), seq.l2HitRate(), 0.005,
                 "l2 hit rate");
    expectWithin(sharded.stats.branchAccuracy(), seq.branchAccuracy(),
                 0.005, "branch accuracy");
}

TEST(Sharded, SingleShardMatchesSequentialBitForBit)
{
    Workload w = workloadOf(150'000);
    auto trace = ExecTrace::record(w.program);
    SimConfig config;
    SimStats seq = sequentialStats(trace, config);

    ShardOptions one;
    one.shards = 1;

    ShardedRunResult r = runShardedReference(trace, config, one);
    ASSERT_EQ(r.perShard.size(), 1u);
    EXPECT_EQ(r.stats.instructions, seq.instructions);
    EXPECT_EQ(r.stats.cycles, seq.cycles);
    EXPECT_EQ(r.stats.condMispredicts, seq.condMispredicts);
    EXPECT_EQ(r.stats.l1iAccesses, seq.l1iAccesses);
    EXPECT_EQ(r.stats.l1iMisses, seq.l1iMisses);
    EXPECT_EQ(r.stats.l1dMisses, seq.l1dMisses);
    EXPECT_EQ(r.stats.l2Accesses, seq.l2Accesses);
    EXPECT_EQ(r.stats.l2Misses, seq.l2Misses);
    EXPECT_EQ(r.stats.memStallCycles, seq.memStallCycles);
    EXPECT_EQ(r.warmedInsts, 0u);
}

TEST(Sharded, StitchedWorkExceedsSequentialWork)
{
    // Sharding buys wall-clock, not work units: the plan charges the
    // detailed run plus every warming lead-in.
    Workload w = workloadOf(400'000);
    auto trace = ExecTrace::record(w.program);
    ShardOptions opts;
    opts.shards = 4;
    ShardedRunResult r =
        runShardedReference(trace, SimConfig{}, opts);
    EXPECT_EQ(r.detailedInsts, trace->length());
    EXPECT_GT(r.warmedInsts, 0u);
}

} // namespace
} // namespace yasim
