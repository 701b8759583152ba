/**
 * @file
 * Cooperative cancellation and deadlines (support/cancel.hh and every
 * seam it threads through): token/source semantics, the deterministic
 * "engine.cancel.token" failpoint, the shared Backoff policy, the
 * core's batch-boundary latency bound, the shared warming loop, pool
 * and sharded unwinding, the engine's never-cache-a-cancelled-run
 * contract, and a failpoint-storm torture loop followed by a clean
 * bit-identical verification pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "isa/program_builder.hh"
#include "sim/ooo_core.hh"
#include "sim/sampling.hh"
#include "sim/sharded.hh"
#include "sim/trace.hh"
#include "support/backoff.hh"
#include "support/cancel.hh"
#include "support/failpoint.hh"
#include "support/parallel.hh"
#include "techniques/full_reference.hh"
#include "techniques/random_sampling.hh"
#include "techniques/reduced_input.hh"
#include "techniques/service.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

namespace yasim {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kRefInsts = 150'000;

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

/**
 * A replayed run of ilpLoop(40000): 320,003 dynamic instructions, so
 * the core's polls fall inside trace chunks (65,536 records each), not
 * only at their edges.
 */
TraceReplayer
multiChunkStream()
{
    return TraceReplayer(ExecTrace::record(ilpLoop(40000)));
}

/** A scratch cache directory wiped before and after each use. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : dir(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ScratchDir() { fs::remove_all(dir); }
    std::string str() const { return dir.string(); }

  private:
    fs::path dir;
};

bool
bitEq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectBitIdentical(const TechniqueResult &a, const TechniqueResult &b)
{
    EXPECT_TRUE(bitEq(a.cpi, b.cpi));
    EXPECT_TRUE(bitEq(a.workUnits, b.workUnits));
    EXPECT_EQ(a.detailedInsts, b.detailedInsts);
    EXPECT_EQ(a.detailed.instructions, b.detailed.instructions);
    EXPECT_EQ(a.detailed.cycles, b.detailed.cycles);
}

/**
 * Run @p technique through @p engine under the cancel-token schedule
 * @p spec, on a token of its own, and return the CancelledError the
 * run must throw.
 */
CancelledError
runUntilCancelled(ExperimentEngine &engine, const Technique &technique,
                  TechniqueContext ctx, const SimConfig &config,
                  const std::string &spec)
{
    failpoint::ScopedSchedule sched(spec);
    CancelSource source;
    ctx.cancel = source.token();
    try {
        engine.run(technique, ctx, config);
    } catch (const CancelledError &err) {
        EXPECT_EQ(err.cause, CancelCause::Cancelled);
        return err;
    }
    ADD_FAILURE() << technique.name() << " " << technique.permutation()
                  << " finished under " << spec;
    return CancelledError();
}

/**
 * @p engine charged the partial work of every run in @p caught (in
 * that order) and memoized none; a retry then computes the result
 * bit-identically to a never-cancelled engine.
 */
void
expectChargedThenRecomputed(ExperimentEngine &engine,
                            const Technique &technique,
                            const TechniqueContext &ctx,
                            const SimConfig &config,
                            const std::vector<CancelledError> &caught)
{
    double charged = 0.0;
    for (const CancelledError &err : caught)
        charged += err.partialWorkUnits;
    EngineCounters after = engine.counters();
    EXPECT_EQ(after.runsCancelled, caught.size());
    EXPECT_EQ(after.runsExecuted, 0u);
    EXPECT_TRUE(bitEq(after.workUnitsComputed, charged));

    failpoint::ScopedSchedule off("");
    TechniqueResult retried = engine.run(technique, ctx, config);
    EXPECT_EQ(engine.counters().runsExecuted, 1u);
    EXPECT_EQ(engine.counters().memoHits, 0u);

    ExperimentEngine clean;
    TechniqueResult fresh =
        clean.run(technique, clean.context(ctx.benchmark, ctx.suite), config);
    expectBitIdentical(retried, fresh);
}

// ------------------------------------------------- token semantics

TEST(CancelToken, InvalidTokenNeverFires)
{
    // Even with the failpoint armed on every evaluation: an invalid
    // token's poll is a null check and must never reach the site.
    failpoint::ScopedSchedule always("engine.cancel.token=always");
    CancelToken token;
    EXPECT_FALSE(token.valid());
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.cause(), CancelCause::None);
    EXPECT_EQ(failpoint::stats("engine.cancel.token").evaluations, 0u);
}

TEST(CancelSource, FirstCauseWins)
{
    failpoint::ScopedSchedule off("");
    CancelSource source;
    CancelToken token = source.token();
    EXPECT_FALSE(token.cancelled());

    source.cancel(CancelCause::Cancelled);
    source.cancel(CancelCause::DeadlineExceeded);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.cause(), CancelCause::Cancelled);
    EXPECT_TRUE(source.expired());
    EXPECT_EQ(source.cause(), CancelCause::Cancelled);

    // And the other way round: a deadline that already fired blocks a
    // later explicit cancel from rewriting the cause.
    CancelSource late;
    late.setDeadlineAfterMs(-1);
    EXPECT_TRUE(late.expired());
    late.cancel(CancelCause::Cancelled);
    EXPECT_EQ(late.cause(), CancelCause::DeadlineExceeded);
}

TEST(CancelSource, DeadlineTripsAsDeadlineExceeded)
{
    failpoint::ScopedSchedule off("");
    CancelSource source;
    EXPECT_EQ(source.deadlineAtMs(), INT64_MAX);

    source.setDeadlineAfterMs(60'000);
    EXPECT_NE(source.deadlineAtMs(), INT64_MAX);
    EXPECT_FALSE(source.expired());
    EXPECT_EQ(source.cause(), CancelCause::None);

    source.setDeadlineAfterMs(-1);
    CancelToken token = source.token();
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.cause(), CancelCause::DeadlineExceeded);
}

TEST(CancelFailpoint, AfterScheduleFiresOnTheExactPoll)
{
    // "after3" fires exactly once, on the fourth evaluation — this is
    // what makes cancellation tests timer-free and deterministic.
    failpoint::ScopedSchedule sched("engine.cancel.token=after3");
    CancelSource source;
    CancelToken token = source.token();
    for (int poll = 0; poll < 3; ++poll)
        EXPECT_FALSE(token.cancelled()) << "poll " << poll;
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.cause(), CancelCause::Cancelled);
    // Sticky thereafter, with no further site evaluations needed.
    EXPECT_TRUE(token.cancelled());
}

// ------------------------------------------- the shared Backoff

TEST(BackoffPolicy, DeterministicBoundedAndResettable)
{
    Backoff a(42), b(42);
    for (uint32_t attempt = 0; attempt < 12; ++attempt) {
        uint64_t delay = a.nextDelayMs();
        EXPECT_EQ(delay, b.nextDelayMs()) << "attempt " << attempt;
        // Full jitter over a capped exponential window.
        uint64_t window = attempt < 6 ? (uint64_t(1) << attempt) : 64;
        EXPECT_LE(delay, window) << "attempt " << attempt;
    }
    EXPECT_EQ(a.attempts(), 12u);

    // reset() shrinks the window back to the base; the jitter stream
    // keeps advancing (it is a policy stream, not a replay).
    a.reset();
    EXPECT_EQ(a.attempts(), 0u);
    EXPECT_LE(a.nextDelayMs(), 1u);
}

// ------------------------------------------- core latency bound

TEST(OooCoreCancel, PreCancelledRunStopsWithinOneQuantum)
{
    failpoint::ScopedSchedule off("");
    TraceReplayer stream = multiChunkStream();
    OooCore core{SimConfig{}};
    CancelSource source;
    source.cancel();

    uint64_t done = core.run(stream, ~0ULL, nullptr, source.token());
    // The poll cadence is kCancelCheckInsts; the first poll must see
    // the cancel and return, so the run commits one quantum, give or
    // take one fetch batch — never the whole program.
    EXPECT_GE(done, OooCore::kCancelCheckInsts);
    EXPECT_LT(done, OooCore::kCancelCheckInsts + 512);
    EXPECT_EQ(core.instsRetired(), done);
}

TEST(OooCoreCancel, FailpointCancelIsDeterministicAcrossRuns)
{
    auto cancelledRun = [] {
        failpoint::ScopedSchedule sched("engine.cancel.token=after2");
        TraceReplayer stream = multiChunkStream();
        OooCore core{SimConfig{}};
        CancelSource source;
        return core.run(stream, ~0ULL, nullptr, source.token());
    };
    uint64_t first = cancelledRun();
    // Fires on the third batch-boundary poll: under three quanta plus
    // one fetch batch, and identical on every run.
    EXPECT_LT(first, 3 * OooCore::kCancelCheckInsts + 512);
    EXPECT_GE(first, 2 * OooCore::kCancelCheckInsts);
    EXPECT_EQ(cancelledRun(), first);
}

TEST(OooCoreCancel, UncancelledValidTokenIsBitIdentical)
{
    // Armed far past the run's end, the token's failpoint never fires
    // but counts every poll.
    failpoint::ScopedSchedule count("engine.cancel.token=after1000000");
    SimConfig config;

    TraceReplayer plain_src = multiChunkStream();
    OooCore plain{config};
    plain.run(plain_src, ~0ULL);

    TraceReplayer token_src = multiChunkStream();
    OooCore tokened{config};
    CancelSource source;
    uint64_t done =
        tokened.run(token_src, ~0ULL, nullptr, source.token());

    SimStats a = plain.snapshot(), b = tokened.snapshot();
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    // The valid token was polled once per quantum, so the identity
    // above held while the run kept checking.
    EXPECT_EQ(failpoint::stats("engine.cancel.token").evaluations,
              done / OooCore::kCancelCheckInsts);
}

// ------------------------------------------------ the warming loop

TEST(WarmToCancel, StopsAfterExactlyTheChunksBeforeTheFiringPoll)
{
    // "after2" fires on the third poll. warmTo polls before every
    // chunk, so it warms exactly two whole chunks and reports them.
    constexpr uint64_t kChunks = 2;
    failpoint::ScopedSchedule sched("engine.cancel.token=after2");
    auto trace = ExecTrace::record(ilpLoop(300'000)); // ~2.4M insts
    ASSERT_GT(trace->length(), kChunks * kWarmCancelChunk);
    SimConfig config;
    MemoryHierarchy mem(config.mem);
    CombinedPredictor bp(config.bp);
    TraceReplayer cursor(trace);
    CancelSource source;

    uint64_t warmed = 0;
    EXPECT_FALSE(warmTo(cursor, trace->length(), mem, bp, source.token(),
                        warmed));
    EXPECT_EQ(warmed, kChunks * kWarmCancelChunk);
    EXPECT_EQ(cursor.instsExecuted(), warmed);
    EXPECT_EQ(failpoint::stats("engine.cancel.token").evaluations,
              kChunks + 1);
}

TEST(WarmToCancel, RejectsACursorPastItsTarget)
{
    // The walk warms and measures on one cursor, so a cursor past its
    // target is a caller's bug: warmTo must stop rather than warm up to
    // a whole chunk past the position it was asked for.
    auto trace = ExecTrace::record(ilpLoop(1000));
    SimConfig config;
    MemoryHierarchy mem(config.mem);
    CombinedPredictor bp(config.bp);
    TraceReplayer cursor(trace);
    cursor.seek(100);
    uint64_t warmed = 0;
    EXPECT_TRUE(warmTo(cursor, 100, mem, bp, CancelToken(), warmed));
    EXPECT_EQ(warmed, 0u);
    EXPECT_DEATH(warmTo(cursor, 99, mem, bp, CancelToken(), warmed),
                 "<= target");
}

// ------------------------------------------------- pool unwinding

TEST(ThreadPoolCancel, PreCancelledMapRunsNothing)
{
    failpoint::ScopedSchedule off("");
    CancelSource source;
    source.cancel();
    std::atomic<int> executed{0};
    std::vector<int> results = parallelMap<int>(
        1000,
        [&](size_t) {
            ++executed;
            return 1;
        },
        source.token());
    EXPECT_EQ(executed.load(), 0);
    ASSERT_EQ(results.size(), 1000u);
    for (int r : results)
        EXPECT_EQ(r, 0); // skipped slots stay default-constructed
}

TEST(ThreadPoolCancel, MidMapCancelSkipsUnclaimedWork)
{
    failpoint::ScopedSchedule off("");
    constexpr size_t kCount = 100'000;
    CancelSource source;
    std::atomic<size_t> executed{0};
    std::vector<int> results = parallelMap<int>(
        kCount,
        [&](size_t) {
            source.cancel(); // first task cancels everyone
            ++executed;
            return 1;
        },
        source.token());
    // The call returned (no hang) and the sweep skipped nearly all of
    // the map: only tasks already claimed when the cancel landed ran.
    EXPECT_GT(executed.load(), 0u);
    EXPECT_LT(executed.load(), kCount);
    size_t ran = 0;
    for (int r : results)
        ran += size_t(r);
    EXPECT_EQ(ran, executed.load());
}

// ------------------------------------------------ sharded stitches

TEST(ShardedCancel, RefusesToStitchAPartialRun)
{
    failpoint::ScopedSchedule off("");
    auto trace = ExecTrace::record(ilpLoop(40'000)); // ~320k insts
    ShardOptions opts;
    opts.shards = 4;
    CancelSource source;
    source.cancel();

    bool threw = false;
    try {
        runShardedReference(trace, SimConfig{}, opts, source.token());
    } catch (const CancelledError &err) {
        threw = true;
        EXPECT_EQ(err.cause, CancelCause::Cancelled);
        // Honest partial accounting, never a full-length claim.
        EXPECT_LT(err.detailedInsts, trace->length());
    }
    EXPECT_TRUE(threw)
        << "a cancelled sharded run stitched whole-run statistics";
}

// ------------------------------------------------------ the engine

TEST(EngineCancel, CancelledRunIsChargedButNeverCached)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    FullReference reference;
    SimConfig config = architecturalConfig(2);

    {
        failpoint::ScopedSchedule sched("engine.cancel.token=after4");
        CancelSource source;
        ctx.cancel = source.token();
        bool threw = false;
        try {
            engine.run(reference, ctx, config);
        } catch (const CancelledError &err) {
            threw = true;
            EXPECT_EQ(err.cause, CancelCause::Cancelled);
        }
        ASSERT_TRUE(threw);
    }
    EngineCounters after = engine.counters();
    EXPECT_EQ(after.runsCancelled, 1u);
    EXPECT_EQ(after.runsExecuted, 0u);
    EXPECT_EQ(after.memoHits, 0u);

    // The retry must recompute (nothing was memoized) and come back
    // bit-identical to a never-cancelled engine.
    failpoint::ScopedSchedule off("");
    ctx.cancel = CancelToken();
    TechniqueResult retried = engine.run(reference, ctx, config);
    EXPECT_EQ(engine.counters().runsExecuted, 1u);

    ExperimentEngine clean;
    TechniqueResult fresh =
        clean.run(reference, clean.context("gzip", suite), config);
    expectBitIdentical(retried, fresh);
}

TEST(EngineCancel, SmartsCancelledMidWalkChargesWhatItSimulated)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    // Building the context records the stream, so every poll below
    // belongs to the run.
    TechniqueContext ctx = engine.context("gzip", suite);
    Smarts smarts(800, 300);
    SimConfig config = architecturalConfig(1);
    const SamplingPlan plan =
        SamplingPlan::make(800, 300, ctx.referenceLength);
    const std::vector<uint64_t> first = plan.indicesFor(50);

    CancelledError caught;
    {
        // The engine polls once before the run, and the walk once per
        // unit: every warming gap here fits one chunk, and no span
        // reaches the core's poll quantum. So the 21st poll, the one
        // that fires, lands before the walk's 20th unit.
        failpoint::ScopedSchedule sched("engine.cancel.token=after20");
        CancelSource source;
        ctx.cancel = source.token();
        bool threw = false;
        try {
            engine.run(smarts, ctx, config);
        } catch (const CancelledError &err) {
            threw = true;
            caught = err;
        }
        ASSERT_TRUE(threw);
    }
    EXPECT_EQ(caught.cause, CancelCause::Cancelled);
    // Exactly what the walk did: it simulated that many whole units
    // in detail and warmed the gaps up to the last one's warm start,
    // but not the spans of the units before it, whose detailed runs
    // trained the tables instead.
    constexpr uint64_t kUnits = 19;
    ASSERT_LT(kUnits, first.size());
    EXPECT_EQ(caught.detailedInsts, kUnits * plan.span());
    EXPECT_EQ(caught.warmedInsts, plan.warmStart(first[kUnits - 1]) -
                                      (kUnits - 1) * plan.span());
    EXPECT_TRUE(bitEq(caught.partialWorkUnits,
                      ctx.cost.functionalWarmPerInst *
                              static_cast<double>(caught.warmedInsts) +
                          ctx.cost.detailedPerInst *
                              static_cast<double>(caught.detailedInsts)));

    // The engine charged that partial work and memoized nothing.
    EngineCounters after = engine.counters();
    EXPECT_EQ(after.runsCancelled, 1u);
    EXPECT_EQ(after.runsExecuted, 0u);
    EXPECT_EQ(after.memoHits, 0u);
    EXPECT_TRUE(bitEq(after.workUnitsComputed, caught.partialWorkUnits));

    // The retry recomputes and matches a never-cancelled engine.
    failpoint::ScopedSchedule off("");
    ctx.cancel = CancelToken();
    TechniqueResult retried = engine.run(smarts, ctx, config);
    EXPECT_EQ(engine.counters().runsExecuted, 1u);
    EXPECT_EQ(engine.counters().memoHits, 0u);

    ExperimentEngine clean;
    TechniqueResult fresh =
        clean.run(smarts, clean.context("gzip", suite), config);
    expectBitIdentical(retried, fresh);
}

TEST(EngineCancel, ReducedInputStopsAtACancelPoll)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    // Building the context records the reference and the store lookup
    // records the train input, so every poll below belongs to the run.
    TechniqueContext ctx = engine.context("gzip", suite);
    const uint64_t train_length =
        engine.traceStore()->get("gzip", InputSet::Train, suite)->length();
    ReducedInput reduced(InputSet::Train);
    SimConfig config = architecturalConfig(1);

    CancelledError caught;
    {
        // Five polls pass before the one that fires: the engine's before
        // the run, the inline one-task parallelFor's at its claim, the
        // shard worker's before its measured run, then the core's first
        // two, one per 8,192 committed instructions. The core's third
        // poll fires.
        failpoint::ScopedSchedule sched("engine.cancel.token=after5");
        CancelSource source;
        ctx.cancel = source.token();
        bool threw = false;
        try {
            engine.run(reduced, ctx, config);
        } catch (const CancelledError &err) {
            threw = true;
            caught = err;
        }
        ASSERT_TRUE(threw) << "the reduced input never polled";
    }
    EXPECT_EQ(caught.cause, CancelCause::Cancelled);
    EXPECT_GT(caught.detailedInsts, 0u);
    EXPECT_LT(caught.detailedInsts, train_length);
    EXPECT_GE(caught.detailedInsts, 2 * OooCore::kCancelCheckInsts);
    EXPECT_LT(caught.detailedInsts, 3 * OooCore::kCancelCheckInsts + 512);
    EXPECT_EQ(caught.warmedInsts, 0u);
    EXPECT_TRUE(bitEq(caught.partialWorkUnits,
                      ctx.cost.detailedPerInst *
                          static_cast<double>(caught.detailedInsts)));

    // The engine charged that partial work and memoized nothing.
    EngineCounters after = engine.counters();
    EXPECT_EQ(after.runsCancelled, 1u);
    EXPECT_EQ(after.runsExecuted, 0u);
    EXPECT_TRUE(bitEq(after.workUnitsComputed, caught.partialWorkUnits));

    // The retry recomputes and matches a never-cancelled engine.
    failpoint::ScopedSchedule off("");
    ctx.cancel = CancelToken();
    TechniqueResult retried = engine.run(reduced, ctx, config);
    EXPECT_EQ(engine.counters().runsExecuted, 1u);
    EXPECT_EQ(engine.counters().memoHits, 0u);

    ExperimentEngine clean;
    TechniqueResult fresh =
        clean.run(reduced, clean.context("gzip", suite), config);
    expectBitIdentical(retried, fresh);
}

TEST(EngineCancel, TruncatedStopsAtACancelPoll)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    // Building the context records the reference, so every poll below
    // belongs to the run.
    TechniqueContext ctx = engine.context("gzip", suite);
    FfWuRunZ truncated(1000.0, 800.0, 2000.0);
    SimConfig config = architecturalConfig(1);
    const uint64_t ff = ctx.scaledM(1000.0);
    const uint64_t warm = ctx.scaledM(800.0);
    ASSERT_GT(warm, OooCore::kCancelCheckInsts);
    ASSERT_LT(warm, 2 * OooCore::kCancelCheckInsts);
    ASSERT_GT(ctx.scaledM(2000.0), 2 * OooCore::kCancelCheckInsts);
    ASSERT_LT(ff + warm + ctx.scaledM(2000.0), ctx.referenceLength);

    // The engine polls before the run, then the core once per 8,192
    // committed instructions of each call: the warm-up's first poll is
    // the second, and the measured window's first is the third. The
    // fast-forward polls nothing; it is charged all the same.
    struct Stop
    {
        const char *spec;
        uint64_t warmDone;
        uint64_t runDone;
    };
    std::vector<CancelledError> caught;
    for (const Stop &stop :
         {Stop{"engine.cancel.token=after1", OooCore::kCancelCheckInsts, 0},
          Stop{"engine.cancel.token=after2", warm,
               OooCore::kCancelCheckInsts}}) {
        SCOPED_TRACE(stop.spec);
        const CancelledError err =
            runUntilCancelled(engine, truncated, ctx, config, stop.spec);
        EXPECT_EQ(err.detailedInsts, stop.warmDone + stop.runDone);
        EXPECT_EQ(err.warmedInsts, 0u);
        EXPECT_TRUE(bitEq(
            err.partialWorkUnits,
            ctx.cost.fastForwardPerInst * static_cast<double>(ff) +
                ctx.cost.detailedPerInst *
                    static_cast<double>(stop.warmDone) +
                ctx.cost.detailedPerInst *
                    static_cast<double>(stop.runDone) +
                ctx.cost.checkpointPerInst * static_cast<double>(ff)));
        caught.push_back(err);
    }
    expectChargedThenRecomputed(engine, truncated, ctx, config, caught);
}

TEST(EngineCancel, RandomSamplingStopsAtACancelPoll)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    constexpr uint64_t kUnit = 10'000, kWarmup = 2'000;
    RandomSampling sampling(2, kUnit, kWarmup);
    SimConfig config = architecturalConfig(1);
    const std::vector<uint64_t> starts = sampling.samplePositions(ctx);
    ASSERT_EQ(starts.size(), 2u);
    // The second sample neither overlaps the first nor runs off the end.
    ASSERT_GT(starts[1], starts[0] + kUnit);
    ASSERT_LT(starts[1] + kUnit, ctx.referenceLength);
    const uint64_t skipped = starts[0] - kWarmup;

    // Polls: the engine's, then one per sample before it runs, and the
    // core's once per 8,192 instructions of a call. So the third poll
    // is the core's inside the first unit, and the fourth the second
    // sample's own.
    struct Stop
    {
        const char *spec;
        uint64_t detailed;
    };
    std::vector<CancelledError> caught;
    for (const Stop &stop :
         {Stop{"engine.cancel.token=after2",
               kWarmup + OooCore::kCancelCheckInsts},
          Stop{"engine.cancel.token=after3", kWarmup + kUnit}}) {
        SCOPED_TRACE(stop.spec);
        const CancelledError err =
            runUntilCancelled(engine, sampling, ctx, config, stop.spec);
        EXPECT_EQ(err.detailedInsts, stop.detailed);
        EXPECT_TRUE(bitEq(
            err.partialWorkUnits,
            ctx.cost.fastForwardPerInst * static_cast<double>(skipped) +
                ctx.cost.detailedPerInst *
                    static_cast<double>(stop.detailed)));
        caught.push_back(err);
    }
    expectChargedThenRecomputed(engine, sampling, ctx, config, caught);
}

TEST(EngineCancel, SimPointStopsAtACancelPoll)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    // Parameters no other test here uses: the points this SimPoint
    // picks must not be in the process-wide point cache yet.
    SimPoint simpoint(10.0, 12, 1.0, "cancel probe", 15, 3);
    SimConfig config = architecturalConfig(1);
    std::vector<CancelledError> caught;

    // The profiling pass polls once per 8,192 profiled instructions,
    // so the engine's poll and its first pass and the next fires.
    {
        const CancelledError err = runUntilCancelled(
            engine, simpoint, ctx, config, "engine.cancel.token=after2");
        EXPECT_EQ(err.detailedInsts, 0u);
        EXPECT_EQ(err.warmedInsts, 0u);
        EXPECT_TRUE(bitEq(err.partialWorkUnits,
                          ctx.cost.profilePerInst *
                              static_cast<double>(
                                  2 * OooCore::kCancelCheckInsts)));
        caught.push_back(err);
    }

    // With the points chosen, each point polls once as it warms to its
    // warm start (no gap here spans a second warming chunk, and no
    // detailed run reaches the core's quantum): the engine's poll and
    // two points' pass, and the third point's fires.
    const std::vector<SimulationPoint> points = simpoint.choosePoints(ctx);
    ASSERT_GT(points.size(), 2u);
    const uint64_t interval = std::max<uint64_t>(ctx.scaledM(10.0), 2000);
    const uint64_t warmup = std::max<uint64_t>(ctx.scaledM(1.0), 256);
    ASSERT_LT(interval, OooCore::kCancelCheckInsts);
    ASSERT_LE(points[1].startInst + interval, points[2].startInst);
    uint64_t at = 0, warmed = 0;
    for (size_t p = 0; p < 2; ++p) {
        const uint64_t warm_start = points[p].startInst >= warmup
                                        ? points[p].startInst - warmup
                                        : 0;
        warmed += warm_start > at ? warm_start - at : 0;
        at = points[p].startInst + interval;
    }
    {
        const CancelledError err = runUntilCancelled(
            engine, simpoint, ctx, config, "engine.cancel.token=after3");
        EXPECT_EQ(err.detailedInsts, 2 * (interval + warmup));
        EXPECT_EQ(err.warmedInsts, warmed);
        EXPECT_TRUE(bitEq(
            err.partialWorkUnits,
            ctx.cost.profilePerInst *
                    static_cast<double>(ctx.referenceLength) +
                ctx.cost.checkpointPerInst * static_cast<double>(at) +
                ctx.cost.detailedPerInst *
                    static_cast<double>(2 * (interval + warmup))));
        caught.push_back(err);
    }
    expectChargedThenRecomputed(engine, simpoint, ctx, config, caught);
}

TEST(EngineCancel, CancelledBatchThrowsAndMemoizesNothing)
{
    // A grid whose context is cancelled before it starts: runAll
    // throws the cancellation, and no job leaves a result in the memo
    // table or the cache directory. A clean batch afterwards computes
    // every cell.
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_cancel_batch");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine({.cacheDir = scratch.str()});
    const std::vector<TechniquePtr> techniques = {
        std::make_shared<FullReference>(),
        std::make_shared<Smarts>(1000, 2000)};
    const std::vector<SimConfig> configs = {architecturalConfig(1),
                                            architecturalConfig(2)};

    TechniqueContext ctx = engine.context("gzip", suite);
    CancelSource source;
    ctx.cancel = source.token();
    source.cancel();
    EXPECT_THROW(runGrid(engine, techniques, ctx, configs), CancelledError);
    EngineCounters after = engine.counters();
    EXPECT_GE(after.runsCancelled, 1u);
    EXPECT_EQ(after.runsExecuted, 0u);
    EXPECT_EQ(after.diskWrites, 0u);
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        EXPECT_NE(entry.path().extension(), ".result")
            << "cancelled batch published " << entry.path().filename();

    ctx.cancel = CancelToken();
    EXPECT_EQ(runGrid(engine, techniques, ctx, configs).size(),
              techniques.size());
    EXPECT_EQ(engine.counters().runsExecuted,
              techniques.size() * configs.size());
    EXPECT_EQ(engine.counters().memoHits, 0u);
}

TEST(EngineCancel, AbortedCacheWritesLeaveNoArtifacts)
{
    ScratchDir scratch("yasim_cancel_aborted_writes");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    FullReference reference;
    SimConfig config = architecturalConfig(1);

    TechniqueResult result;
    {
        // Every result publish aborts at the last moment, as if the
        // request were cancelled between completion and write.
        failpoint::ScopedSchedule sched("engine.cancel.write=always");
        ExperimentEngine engine({.cacheDir = scratch.str()});
        result = engine.run(
            reference, engine.context("gzip", suite), config);
        EXPECT_GT(result.workUnits, 0.0);
        EXPECT_GE(engine.counters().cacheWritesAborted, 1u);
    }
    // The abort happened before the atomic publish: no .result file
    // exists at all — in particular, never a torn one.
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        EXPECT_NE(entry.path().extension(), ".result")
            << "aborted write still published "
            << entry.path().filename();

    // A cold engine over the directory therefore recomputes, and the
    // recomputation is bit-identical.
    failpoint::ScopedSchedule off("");
    ExperimentEngine cold({.cacheDir = scratch.str()});
    TechniqueResult recomputed =
        cold.run(reference, cold.context("gzip", suite), config);
    EXPECT_EQ(cold.counters().runsExecuted, 1u);
    expectBitIdentical(recomputed, result);
}

TEST(EngineCancel, TortureStormThenCleanVerify)
{
    // The cancellation analogue of the crash-torture test: hammer one
    // shared cache directory with runs whose polls and publishes fail
    // pseudo-randomly, then disarm everything and prove the directory
    // still serves bit-identical results.
    ScratchDir scratch("yasim_cancel_torture");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    FullReference reference;
    SimConfig config = architecturalConfig(1);

    int cancelled = 0;
    for (int round = 0; round < 6; ++round) {
        failpoint::ScopedSchedule sched(
            "engine.cancel.token=1in4,engine.cancel.write=1in3,seed=" +
            std::to_string(round));
        ExperimentEngine engine({.cacheDir = scratch.str()});
        TechniqueContext ctx = engine.context("gzip", suite);
        CancelSource source;
        ctx.cancel = source.token();
        try {
            engine.run(reference, ctx, config);
        } catch (const CancelledError &) {
            ++cancelled;
            EXPECT_EQ(engine.counters().runsCancelled, 1u);
        }
    }
    // The schedule must have actually cancelled something, or the
    // storm was vacuous.
    EXPECT_GE(cancelled, 1);

    failpoint::ScopedSchedule off("");
    ExperimentEngine after({.cacheDir = scratch.str()});
    TechniqueResult survived =
        after.run(reference, after.context("gzip", suite), config);

    ExperimentEngine clean;
    TechniqueResult fresh =
        clean.run(reference, clean.context("gzip", suite), config);
    expectBitIdentical(survived, fresh);
}

} // namespace
} // namespace yasim
