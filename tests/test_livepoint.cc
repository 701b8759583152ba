/**
 * @file
 * Tests for sampled simulation (sim/sampling.hh) and the live-point
 * library (sim/livepoint.hh): the sampling grid's superset escalation,
 * the compressed point format's round trip and structural rejection,
 * corruption healing (quarantine + rebuild, byte by byte),
 * stale-version handling as a miss rather than rot, failed reads
 * counted and warned about once per library, cancellation storms
 * leaving no partial entries, and the headline exactness
 * contract: SMARTS's warming walk bit-identical to the live-point
 * library's measurement across the whole Table-2 suite, and SMARTS
 * bit-identical to the result pinned from live interpretation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "isa/program_builder.hh"
#include "sim/functional.hh"
#include "sim/livepoint.hh"
#include "sim/sampling.hh"
#include "sim/trace.hh"
#include "support/artifact_io.hh"
#include "support/cancel.hh"
#include "support/failpoint.hh"
#include "techniques/service.hh"
#include "techniques/smarts.hh"
#include "techniques/trace_store.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"
#include "workloads/suite.hh"

#include "result_digest.hh"

namespace yasim {
namespace {

namespace fs = std::filesystem;

/** A load/store loop: every unit both loads and stores heap words. */
Program
loopProgram(int64_t trips = 3000)
{
    ProgramBuilder b("lvpt");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, trips);
    b.movi(5, static_cast<int64_t>(heapBase));
    b.bind(top);
    b.ld(6, 5, 0);
    b.add(7, 7, 6);
    b.st(5, 7, 0);
    b.addi(5, 5, 8);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    return b.finish();
}

/** A scratch directory wiped before and after each use. */
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
    fs::path path() const { return dir; }

  private:
    fs::path dir;
};

bool
bitEq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
bitEq(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!bitEq(a[i], b[i]))
            return false;
    return true;
}

/**
 * True when @p path holds a point file that verifies under the current
 * format and decodes cleanly.
 */
bool
readsBack(const std::string &path)
{
    const ArtifactReadResult read =
        readArtifact(path, "yasim-lvpt", kLivePointFormatVersion);
    LivePoint point;
    return read.status == ArtifactStatus::Ok &&
           LivePoint::decode(read.payload, point);
}

/** How many lines of @p text contain @p needle. */
size_t
linesContaining(const std::string &text, const std::string &needle)
{
    std::istringstream lines(text);
    size_t count = 0;
    for (std::string line; std::getline(lines, line);)
        count += line.find(needle) != std::string::npos ? 1 : 0;
    return count;
}

void
expectUnitsIdentical(const std::vector<UnitResult> &a,
                     const std::vector<UnitResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("unit " + std::to_string(a[i].index));
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].measured, b[i].measured);
        EXPECT_EQ(a[i].warmupDone, b[i].warmupDone);
        EXPECT_EQ(a[i].unitDone, b[i].unitDone);
        // SimStats is all counters: compare every one, bit for bit.
        EXPECT_EQ(std::memcmp(&a[i].stats, &b[i].stats, sizeof(SimStats)),
                  0);
        EXPECT_TRUE(bitEq(a[i].bbef, b[i].bbef));
        EXPECT_TRUE(bitEq(a[i].bbv, b[i].bbv));
    }
}

// ----------------------------------------------------- sampling plan

TEST(SamplingPlan, GridCoversTheRun)
{
    SamplingPlan plan = SamplingPlan::make(1000, 400, 100'000);
    EXPECT_EQ(plan.unitInsts, 1000u);
    EXPECT_EQ(plan.warmupInsts, 400u);
    EXPECT_GE(plan.maxUnits, 1u);
    EXPECT_GE(plan.period, plan.span());
    // Every unit's span ends within the run.
    uint64_t last = plan.maxUnits - 1;
    EXPECT_LE(plan.warmStart(last) + plan.span(), plan.length);
    // unitStart sits exactly warmupInsts past warmStart.
    EXPECT_EQ(plan.unitStart(3), plan.warmStart(3) + 400u);
}

TEST(SamplingPlan, OversizedWarmupDegradesToOneUnit)
{
    // A warm-up longer than the run must shrink instead of pushing
    // the only unit past program end (the SMARTS degrade rule).
    SamplingPlan plan = SamplingPlan::make(1000, 400'000, 100'000);
    EXPECT_GE(plan.maxUnits, 1u);
    EXPECT_LE(plan.span(), plan.length);
    EXPECT_LE(plan.warmStart(0) + plan.span(), plan.length);
}

TEST(SamplingPlan, DenserSelectionsAreSupersets)
{
    SamplingPlan plan = SamplingPlan::make(1000, 400, 2'000'000);
    std::vector<uint64_t> prev;
    for (uint64_t n : {1u, 3u, 10u, 50u, 200u, 1000u, 100000u}) {
        std::vector<uint64_t> sel = plan.indicesFor(n);
        EXPECT_GE(sel.size(), std::min<uint64_t>(n, plan.maxUnits));
        // Ascending, on-grid, and a superset of every sparser pick.
        std::set<uint64_t> set(sel.begin(), sel.end());
        EXPECT_EQ(set.size(), sel.size());
        EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
        for (uint64_t idx : sel)
            EXPECT_LT(idx, plan.maxUnits);
        for (uint64_t idx : prev)
            EXPECT_TRUE(set.count(idx)) << "lost unit " << idx;
        prev = sel;
    }
}

// ----------------------------------------------------- point format

TEST(LivePoint, EncodeDecodeRoundTripsEverything)
{
    Program p = loopProgram();
    SimConfig cfg = architecturalConfig(1);
    MemoryHierarchy mem(cfg.mem);
    CombinedPredictor bp(cfg.bp);
    FunctionalSim warmer(p);
    warmer.fastForwardWarm(2000, &mem, &bp);
    LivePoint point = LivePoint::atPosition(2000);
    point.attachUarch(mem, bp, "unit-key");

    std::string payload = point.encode();
    LivePoint decoded;
    ASSERT_TRUE(LivePoint::decode(payload, decoded));
    EXPECT_EQ(decoded.position(), 2000u);
    EXPECT_TRUE(decoded.hasUarch());
    EXPECT_EQ(decoded.uarchKey(), "unit-key");
    // Re-encoding the decoded point reproduces the payload exactly.
    EXPECT_EQ(decoded.encode(), payload);

    // The warm blob restores under its key and only its key.
    MemoryHierarchy mem2(cfg.mem);
    CombinedPredictor bp2(cfg.bp);
    EXPECT_FALSE(decoded.restoreUarch(mem2, bp2, "other-key"));
    MemoryHierarchy mem3(cfg.mem);
    CombinedPredictor bp3(cfg.bp);
    EXPECT_TRUE(decoded.restoreUarch(mem3, bp3, "unit-key"));

    // A differently-shaped hierarchy must fail structural validation
    // rather than silently absorb mismatched tables, key or no key.
    MemoryConfig narrow = cfg.mem;
    narrow.l1d.sizeKb = cfg.mem.l1d.sizeKb / 2;
    MemoryHierarchy wrong(narrow);
    CombinedPredictor wrongbp(cfg.bp);
    EXPECT_FALSE(decoded.restoreUarch(wrong, wrongbp, "unit-key"));
}

TEST(Checkpoint, UarchRestoreRefusesWrongKeyOrGeometry)
{
    // A live-point is a warm-only checkpoint: a position and a warm
    // blob, no architectural state. Its restore must refuse a foreign
    // key and a differently-shaped hierarchy.
    Program p = loopProgram();
    MemoryConfig mcfg;
    BranchPredictorConfig bcfg;
    MemoryHierarchy mem(mcfg);
    CombinedPredictor bp(bcfg);
    FunctionalSim sim(p);
    sim.fastForwardWarm(3000, &mem, &bp);

    LivePoint cp = LivePoint::atPosition(3000);
    cp.attachUarch(mem, bp, "warm-key");

    MemoryHierarchy same(mcfg);
    CombinedPredictor samebp(bcfg);
    EXPECT_FALSE(cp.restoreUarch(same, samebp, "other-key"));

    // A differently-shaped hierarchy must fail structural validation
    // rather than silently absorb mismatched tables.
    MemoryConfig narrow = mcfg;
    narrow.l1d.sizeKb = mcfg.l1d.sizeKb / 2;
    MemoryHierarchy wrong(narrow);
    CombinedPredictor wrongbp(bcfg);
    EXPECT_FALSE(cp.restoreUarch(wrong, wrongbp, "warm-key"));

    // The matching key and geometry restore.
    MemoryHierarchy match(mcfg);
    CombinedPredictor matchbp(bcfg);
    EXPECT_TRUE(cp.restoreUarch(match, matchbp, "warm-key"));
}

TEST(LivePoint, DecodeRejectsEveryTruncation)
{
    Program p = loopProgram();
    SimConfig cfg = architecturalConfig(1);
    MemoryHierarchy mem(cfg.mem);
    CombinedPredictor bp(cfg.bp);
    FunctionalSim warmer(p);
    warmer.fastForwardWarm(1500, &mem, &bp);
    LivePoint point = LivePoint::atPosition(1500);
    point.attachUarch(mem, bp, "unit-key");
    std::string payload = point.encode();

    LivePoint out;
    ASSERT_TRUE(LivePoint::decode(payload, out));
    for (size_t len = 0; len < payload.size(); ++len) {
        LivePoint trunc;
        EXPECT_FALSE(
            LivePoint::decode(std::string_view(payload).substr(0, len),
                              trunc))
            << "prefix of " << len << " bytes parsed";
    }
    // Trailing garbage is structural damage too.
    LivePoint padded;
    EXPECT_FALSE(LivePoint::decode(payload + '\0', padded));
}

// -------------------------------------------------- library healing

TEST(LivePointLibrary, CorruptionByteSweepHealsByRewarming)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_lvpt_sweep");
    auto trace = ExecTrace::record(loopProgram());
    const uint64_t length = trace->length();
    SimConfig cfg = architecturalConfig(1);
    SamplingPlan plan = SamplingPlan::make(400, 150, length);
    LivePointOptions opts{scratch.str()};
    std::vector<uint64_t> indices = plan.indicesFor(4);

    // Build and persist the clean library; keep its bytes and its
    // measured truth.
    LivePointLibrary clean(trace, plan, cfg, opts);
    clean.ensure(indices);
    auto baseline = clean.measureUnits(indices, false);
    const std::string victim = clean.pointPath(indices[1]);
    std::string good;
    {
        std::ifstream in(victim, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(good.empty());

    // Flip one byte at a time across the whole file (strided to keep
    // the sweep bounded): every flip must be detected — quarantined
    // as rot or deleted as a stale version, never trusted — and the
    // library must heal by re-warming to a bit-identical point.
    size_t step = std::max<size_t>(1, good.size() / 48);
    for (size_t pos = 0; pos < good.size(); pos += step) {
        std::string bad = good;
        bad[pos] ^= 0x40;
        {
            std::ofstream out(victim,
                              std::ios::binary | std::ios::trunc);
            out << bad;
        }
        LivePointLibrary healed(trace, plan, cfg, opts);
        healed.ensure(indices);
        for (uint64_t idx : indices)
            ASSERT_NE(healed.at(idx), nullptr) << "byte " << pos;
        EXPECT_EQ(healed.counters().quarantined +
                      healed.counters().versionMisses,
                  1u)
            << "byte " << pos;
        expectUnitsIdentical(healed.measureUnits(indices, false),
                             baseline);
        // The rebuilt point was re-persisted and reads back cleanly.
        EXPECT_TRUE(readsBack(victim)) << "byte " << pos;
        fs::remove(victim + ".corrupt");
    }
}

TEST(LivePointLibrary, StaleFormatVersionIsMissNotCorruption)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_lvpt_version");
    auto trace = ExecTrace::record(loopProgram());
    const uint64_t length = trace->length();
    SimConfig cfg = architecturalConfig(1);
    SamplingPlan plan = SamplingPlan::make(400, 150, length);
    LivePointOptions opts{scratch.str()};
    std::vector<uint64_t> indices = plan.indicesFor(2);

    LivePointLibrary clean(trace, plan, cfg, opts);
    clean.ensure(indices);
    auto baseline = clean.measureUnits(indices, false);
    const std::string path = clean.pointPath(indices[0]);

    // Re-frame the valid payload under the next format generation:
    // a cleanly-framed stale version is a miss, not rot.
    std::string payload = clean.at(indices[0])->encode();
    ASSERT_TRUE(writeArtifact(path, "yasim-lvpt",
                              kLivePointFormatVersion + 1, payload)
                    .ok);

    LivePointLibrary healed(trace, plan, cfg, opts);
    healed.ensure(indices);
    EXPECT_EQ(healed.counters().versionMisses, 1u);
    EXPECT_EQ(healed.counters().quarantined, 0u);
    EXPECT_FALSE(fs::exists(path + ".corrupt"));
    // Rebuilt, re-persisted under the current version, bit-identical.
    EXPECT_TRUE(readsBack(path));
    expectUnitsIdentical(healed.measureUnits(indices, false), baseline);
}

TEST(LivePointLibrary, FailedReadsAreCountedAndWarnOnce)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_lvpt_failed_reads");
    auto trace = ExecTrace::record(loopProgram());
    const uint64_t length = trace->length();
    SimConfig cfg = architecturalConfig(1);
    SamplingPlan plan = SamplingPlan::make(400, 150, length);
    LivePointOptions opts{scratch.str()};
    std::vector<uint64_t> indices = plan.indicesFor(4);
    ASSERT_GE(indices.size(), 2u);

    LivePointLibrary clean(trace, plan, cfg, opts);
    clean.ensure(indices);
    ASSERT_EQ(clean.counters().diskWrites, indices.size());
    auto baseline = clean.measureUnits(indices, false);

    // Every read flips a bit: each point is quarantined, counted and
    // rebuilt, and only the first failure warns.
    {
        failpoint::ScopedSchedule corrupt("io.read.corrupt=always");
        LivePointLibrary healed(trace, plan, cfg, opts);
        ::testing::internal::CaptureStderr();
        healed.ensure(indices);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(healed.counters().quarantined, indices.size());
        EXPECT_EQ(healed.counters().diskLoads, 0u);
        EXPECT_EQ(healed.counters().built, indices.size());
        EXPECT_EQ(linesContaining(err, "warn:"), 1u) << err;
        EXPECT_EQ(linesContaining(err, "is corrupt"), 1u) << err;
        // A library's failures are counted in its own counters, never
        // in --engine-stats.
        EXPECT_EQ(linesContaining(err, "--engine-stats"), 0u) << err;
        expectUnitsIdentical(healed.measureUnits(indices, false),
                             baseline);
    }
    for (uint64_t idx : indices) {
        EXPECT_TRUE(readsBack(clean.pointPath(idx))) << "point " << idx;
        EXPECT_TRUE(fs::remove(clean.pointPath(idx) + ".corrupt"))
            << "point " << idx;
    }

    // Every open fails: each point is counted unreadable, left in place
    // and rebuilt; one warning covers the reads, while each failed
    // write of a rebuilt point warns.
    {
        failpoint::ScopedSchedule unreadable("io.open.transient=always");
        LivePointLibrary healed(trace, plan, cfg, opts);
        ::testing::internal::CaptureStderr();
        healed.ensure(indices);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(healed.counters().unreadable, indices.size());
        EXPECT_EQ(healed.counters().diskLoads, 0u);
        EXPECT_EQ(healed.counters().quarantined, 0u);
        EXPECT_EQ(healed.counters().diskWrites, 0u);
        EXPECT_EQ(linesContaining(err, "is unreadable"), 1u) << err;
        EXPECT_EQ(linesContaining(err, "--engine-stats"), 0u) << err;
        EXPECT_EQ(linesContaining(err, "cannot write"), indices.size())
            << err;
        expectUnitsIdentical(healed.measureUnits(indices, false),
                             baseline);
    }
    for (uint64_t idx : indices) {
        EXPECT_TRUE(readsBack(clean.pointPath(idx))) << "point " << idx;
        EXPECT_FALSE(fs::exists(clean.pointPath(idx) + ".corrupt"));
    }
}

TEST(LivePointLibrary, CancelStormLeavesNoPartialEntries)
{
    ScratchDir scratch("yasim_lvpt_storm");
    auto trace = ExecTrace::record(loopProgram(20'000));
    const uint64_t length = trace->length();
    SimConfig cfg = architecturalConfig(1);
    SamplingPlan plan = SamplingPlan::make(400, 150, length);
    LivePointOptions opts{scratch.str()};
    std::vector<uint64_t> indices = plan.indicesFor(8);

    int cancelled = 0;
    for (int round = 0; round < 8; ++round) {
        failpoint::ScopedSchedule storm(
            "engine.cancel.token=1in5,seed=" + std::to_string(round));
        LivePointLibrary library(trace, plan, cfg, opts);
        CancelSource source;
        try {
            library.ensure(indices, source.token());
            library.measureUnits(indices, true, source.token());
        } catch (const CancelledError &) {
            ++cancelled;
        }
        // However the round died: the directory holds only complete,
        // cleanly-loading point files — atomic publish means a
        // cancelled build leaves no partial entry behind.
        for (const auto &entry : fs::directory_iterator(scratch.path())) {
            std::string name = entry.path().filename().string();
            ASSERT_EQ(entry.path().extension(), ".lvpt")
                << "stray file " << name << " in round " << round;
            EXPECT_TRUE(readsBack(entry.path().string()))
                << name << " unreadable in round " << round;
        }
    }
    EXPECT_GE(cancelled, 1) << "the storm never fired";

    // Disarmed, the survivors plus rebuilds serve results
    // bit-identical to a cold library in a fresh directory.
    failpoint::ScopedSchedule off("");
    LivePointLibrary after(trace, plan, cfg, opts);
    after.ensure(indices);
    ScratchDir fresh("yasim_lvpt_storm_fresh");
    LivePointLibrary cold(trace, plan, cfg,
                          LivePointOptions{fresh.str()});
    cold.ensure(indices);
    expectUnitsIdentical(after.measureUnits(indices, false),
                         cold.measureUnits(indices, false));
}

// ------------------------------------------------ exactness contract

TEST(Smarts, WalkMatchesLivePointOracleAcrossSuite)
{
    failpoint::ScopedSchedule off("");
    SuiteConfig suite;
    suite.referenceInstructions = 150'000;
    DirectService service;
    SimConfig cfg = architecturalConfig(1);

    size_t escalated = 0;
    for (const std::string &bench : benchmarkNames()) {
        SCOPED_TRACE(bench);
        TechniqueContext ctx =
            TechniqueContext::make(bench, suite, service);
        const auto trace = openStream(ctx, InputSet::Reference).trace();
        const SamplingPlan plan =
            SamplingPlan::make(800, 300, ctx.referenceLength);

        // Smarts(800, 300)'s first selection at this scale (n = 50),
        // then the units escalating to the full grid adds, which a
        // fresh walk reaches past the first selection's units.
        const std::vector<uint64_t> first = plan.indicesFor(50);
        const std::vector<uint64_t> grid = plan.indicesFor(plan.maxUnits);
        std::vector<uint64_t> added;
        std::set_difference(grid.begin(), grid.end(), first.begin(),
                            first.end(), std::back_inserter(added));

        LivePointLibrary oracle(trace, plan, cfg, LivePointOptions{});
        oracle.ensure(first);
        expectUnitsIdentical(walkUnits(trace, plan, cfg, first),
                             oracle.measureUnits(first, false));
        if (added.empty())
            continue; // the first selection is already the full grid
        ++escalated;
        oracle.ensure(grid);
        expectUnitsIdentical(walkUnits(trace, plan, cfg, added),
                             oracle.measureUnits(added, false));
    }
    EXPECT_GE(escalated, benchmarkNames().size() / 2);
}

TEST(Smarts, ReplayModeParallelMatchesLiveSerial)
{
    failpoint::ScopedSchedule off("");
    SuiteConfig suite;
    suite.referenceInstructions = 150'000;
    SimConfig cfg = architecturalConfig(1);
    Smarts smarts(800, 300);

    // The warming walk on the engine's recorded trace.
    ExperimentEngine engine;
    TechniqueContext replay_ctx = engine.context("gzip", suite);
    ASSERT_NE(replay_ctx.traces, nullptr);
    TechniqueResult replayed = smarts.run(replay_ctx, cfg);

    // The ground truth: the serial loop over live functional
    // interpretation, digested once before that path was retired.
    EXPECT_EQ(resultDigest(replayed),
              "a927f314a1a813a589d970d455c1dc9f");
}

} // namespace
} // namespace yasim
