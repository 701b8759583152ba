/**
 * @file
 * Tests for the ExperimentEngine: cache-key construction, memoization
 * and its counters, the on-disk result cache (bit-identical
 * round-trips), in-flight deduplication, and pooled runAll
 * determinism.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/pb_characterization.hh"
#include "core/svat_analysis.hh"
#include "engine/cache_key.hh"
#include "engine/engine.hh"
#include "engine/result_io.hh"
#include "sim/config.hh"
#include "sim/trace.hh"
#include "stats/plackett_burman.hh"
#include "support/artifact_io.hh"
#include "support/failpoint.hh"
#include "support/hash.hh"
#include "support/thread_pool.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"
#include "techniques/random_sampling.hh"
#include "techniques/reduced_input.hh"
#include "techniques/service.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"

namespace yasim {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kRefInsts = 150'000;

TechniqueContext
directCtx(const std::string &bench, uint64_t ref = kRefInsts)
{
    SuiteConfig suite;
    suite.referenceInstructions = ref;
    static DirectService service;
    return TechniqueContext::make(bench, suite, service);
}

/** Bitwise double equality — the disk cache promises bit-identical. */
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

/** Full bit-level equality of two technique results. */
void
expectBitIdentical(const TechniqueResult &a, const TechniqueResult &b)
{
    EXPECT_EQ(a.technique, b.technique);
    EXPECT_EQ(a.permutation, b.permutation);
    EXPECT_TRUE(bitEq(a.cpi, b.cpi));
    EXPECT_TRUE(bitEq(a.metrics, b.metrics));
    EXPECT_TRUE(bitEq(a.bbef, b.bbef));
    EXPECT_TRUE(bitEq(a.bbv, b.bbv));
    EXPECT_TRUE(bitEq(a.workUnits, b.workUnits));
    EXPECT_EQ(a.detailedInsts, b.detailedInsts);
    EXPECT_EQ(a.detailed.instructions, b.detailed.instructions);
    EXPECT_EQ(a.detailed.cycles, b.detailed.cycles);
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

/** Flip one byte in the middle of @p path (simulated bit rot). */
void
flipMiddleByte(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/**
 * Assert that every published artifact in @p dir verifies: quarantine
 * leftovers and in-flight temps are ignored, everything else must
 * parse under its extension's (magic, version) pair. This is the
 * crash-safety invariant — a cache directory is always empty-or-valid.
 */
void
expectDirEmptyOrValid(const std::string &dir)
{
    failpoint::ScopedSchedule off("");
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos ||
            name.find(".corrupt") != std::string::npos)
            continue;
        const std::string ext = entry.path().extension().string();
        ArtifactReadResult read;
        if (ext == ".result") {
            read = readArtifact(entry.path().string(), "yasim-result",
                                kCacheFormatVersion);
        } else if (ext == ".trace") {
            read = readArtifact(entry.path().string(), "yasim-trace",
                                kTraceFormatVersion);
        } else {
            ADD_FAILURE() << "unexpected cache file " << name;
            continue;
        }
        EXPECT_EQ(read.status, ArtifactStatus::Ok)
            << name << ": " << read.error;
    }
}

/** Files in @p dir published under @p extension (temps excluded). */
int
countPublished(const std::string &dir, const std::string &extension)
{
    int files = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        files += entry.is_regular_file() &&
                         entry.path().extension() == extension
                     ? 1
                     : 0;
    return files;
}

/**
 * The grid the batched-publication tests run. Cold, its runAll stages
 * five files: the small input's trace spill, which the pre-pass
 * records, and four results.
 */
struct SmallGrid
{
    std::vector<TechniquePtr> techniques = {
        std::make_shared<Smarts>(500, 1000),
        std::make_shared<ReducedInput>(InputSet::Small)};
    std::vector<SimConfig> configs = {architecturalConfig(1),
                                      architecturalConfig(2)};

    size_t cells() const { return techniques.size() * configs.size(); }

    std::vector<std::vector<TechniqueResult>>
    run(SimulationService &service, const TechniqueContext &ctx) const
    {
        return runGrid(service, techniques, ctx, configs);
    }
};

void
expectSameRows(const std::vector<std::vector<TechniqueResult>> &a,
               const std::vector<std::vector<TechniqueResult>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size());
        for (size_t c = 0; c < a[t].size(); ++c)
            expectBitIdentical(a[t][c], b[t][c]);
    }
}

// ---------------------------------------------------------------- keys

TEST(CacheKey, StableAcrossCalls)
{
    TechniqueContext ctx = directCtx("gzip");
    SimConfig config = architecturalConfig(2);
    Smarts smarts(1000, 2000);
    EXPECT_EQ(resultCacheKey(smarts, ctx, config),
              resultCacheKey(smarts, ctx, config));
}

TEST(CacheKey, EveryInputChangesTheKey)
{
    TechniqueContext gzip = directCtx("gzip");
    TechniqueContext mcf = directCtx("mcf");
    TechniqueContext longer = directCtx("gzip", kRefInsts * 2);
    SimConfig config = architecturalConfig(2);
    Smarts smarts(1000, 2000);
    const std::string base = resultCacheKey(smarts, gzip, config);

    // Benchmark and suite scaling.
    EXPECT_NE(base, resultCacheKey(smarts, mcf, config));
    EXPECT_NE(base, resultCacheKey(smarts, longer, config));

    // Technique and technique parameters.
    EXPECT_NE(base, resultCacheKey(Smarts(1000, 4000), gzip, config));
    EXPECT_NE(base, resultCacheKey(FullReference(), gzip, config));

    // Any machine-configuration field.
    SimConfig bigger_l2 = config;
    bigger_l2.mem.l2.sizeKb *= 2;
    EXPECT_NE(base, resultCacheKey(smarts, gzip, bigger_l2));
}

TEST(CacheKey, ConfigDisplayNameIsExcluded)
{
    TechniqueContext ctx = directCtx("gzip");
    Smarts smarts(1000, 2000);
    SimConfig a = architecturalConfig(2);
    SimConfig b = a;
    b.name = "same machine, different label";
    EXPECT_EQ(resultCacheKey(smarts, ctx, a),
              resultCacheKey(smarts, ctx, b));
}

TEST(CacheKey, TechniqueDisplayLabelIsExcluded)
{
    // Two SimPoints that differ only in their display label are the
    // same experiment and must share a key.
    TechniqueContext ctx = directCtx("gzip");
    SimConfig config = architecturalConfig(2);
    SimPoint a(10.0, 30, 1.0, "multiple 10M");
    SimPoint b(10.0, 30, 1.0, "another label");
    EXPECT_NE(a.permutation(), b.permutation());
    EXPECT_EQ(resultCacheKey(a, ctx, config),
              resultCacheKey(b, ctx, config));
}

TEST(CacheKey, KeyMentionsFormatVersionAndBenchmark)
{
    TechniqueContext ctx = directCtx("gzip");
    std::string key =
        resultCacheKey(Smarts(1000, 2000), ctx, architecturalConfig(1));
    EXPECT_NE(key.find("gzip"), std::string::npos);
    EXPECT_NE(key.find(std::to_string(kCacheFormatVersion)),
              std::string::npos);
}

TEST(CacheKey, DigestIs32HexAndContentSensitive)
{
    // A key's file name is its content digest plus the kind's suffix.
    const ArtifactDir files("", "yasim-result", kCacheFormatVersion,
                            ".result", 0);
    std::string a = files.path("some key text");
    std::string b = files.path("some key texu");
    ASSERT_EQ(a.size(), 32u + 7u);
    EXPECT_TRUE(a.ends_with(".result"));
    EXPECT_TRUE(a.find_first_not_of("0123456789abcdef") == 32u);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, files.path("some key text"));
}

TEST(CacheKey, ShardsChangeOnlyTheReferenceKey)
{
    // Only the full reference reads ctx.shards, so a sharded context
    // moves its key alone: every other cell stays a cache hit. A
    // technique that forwards the reference's cacheKey() is keyed as
    // the reference.
    struct ForwardsReference : FullReference
    {
        std::string name() const override { return "timed"; }
        std::string cacheKey() const override
        {
            return FullReference().cacheKey();
        }
    };
    const TechniqueContext plain = directCtx("gzip");
    TechniqueContext sharded = plain;
    sharded.shards.shards = 4;
    sharded.shards.warmupInsts = 65536;
    const SimConfig config = architecturalConfig(2);

    EXPECT_NE(resultCacheKey(FullReference(), plain, config),
              resultCacheKey(FullReference(), sharded, config));
    EXPECT_EQ(resultCacheKey(ForwardsReference(), sharded, config),
              resultCacheKey(FullReference(), sharded, config));
    const std::vector<TechniquePtr> others = {
        std::make_shared<Smarts>(1000, 2000),
        std::make_shared<SimPoint>(10.0, 30, 1.0, "multiple 10M"),
        std::make_shared<ReducedInput>(InputSet::Small)};
    for (const TechniquePtr &technique : others)
        EXPECT_EQ(resultCacheKey(*technique, plain, config),
                  resultCacheKey(*technique, sharded, config))
            << technique->name();
}

TEST(CacheKey, EveryGridKeyIsUnchanged)
{
    // Every result in an existing cache directory is filed under its
    // key's digest, so the key text of every grid the drivers run must
    // never move. The literal below folds the keys of the paper's
    // technique x configuration grids as the csprintf-based renderer
    // wrote them.
    std::vector<SimConfig> configs = envelopeConfigs();
    for (const SimConfig &row : pbDesignConfigs(
             PbDesign::forFactors(numPbFactors(), true)))
        configs.push_back(row);
    for (SimConfig variant : architecturalConfigs()) {
        variant.mem.nextLinePrefetch = true;
        variant.core.trivialComputation = true;
        variant.core.divPipelined = true;
        variant.mem.l1d.replacement = ReplacementPolicy::Fifo;
        configs.push_back(variant);
    }

    CostModel cost;
    cost.detailedPerInst = 0.9;
    cost.functionalWarmPerInst = 0.035;
    cost.fastForwardPerInst = 0.1;
    cost.profilePerInst = 1.0 / 3.0;
    cost.checkpointPerInst = 0.0125;

    Hasher h;
    size_t keys = 0;
    for (const char *bench : {"gzip", "mcf"}) {
        std::vector<TechniquePtr> techniques = table1Permutations(bench);
        techniques.push_back(std::make_shared<FullReference>());
        techniques.push_back(
            std::make_shared<RandomSampling>(20, 1000, 2000));
        for (uint32_t shards : {1u, 4u}) {
            TechniqueContext ctx;
            ctx.benchmark = bench;
            ctx.suite.referenceInstructions = kRefInsts;
            ctx.cost = cost;
            ctx.shards.shards = shards;
            ctx.shards.warmupInsts = shards > 1 ? 65536 : 0;
            for (const TechniquePtr &technique : techniques)
                for (const SimConfig &config : configs) {
                    h.str(resultCacheKey(*technique, ctx, config));
                    ++keys;
                }
        }
    }
    EXPECT_EQ(keys, 39480u);
    EXPECT_EQ(h.hex(), "c52bab41d35136c54ec1a07f45698ae0");
}

TEST(CacheKey, RendersNumbersAsPrintfDid)
{
    // snprintf is the oracle: the key's numbers must come out in the
    // bytes "%.17g" and "%llu" give them, edge values included.
    const double values[] = {0.0,     -0.0,    0.1,
                             1e-5,    5e-324,  1.7976931348623157e308,
                             1e21,    0.30000000000000004};
    constexpr size_t kValues = std::size(values);
    auto printed = [](const char *format, auto v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), format, v);
        return std::string(buf);
    };

    TechniqueContext ctx;
    ctx.benchmark = "gzip";
    ctx.suite.referenceInstructions = UINT64_MAX;
    ctx.suite.seed = UINT64_MAX;
    const std::string max =
        printed("%llu", static_cast<unsigned long long>(UINT64_MAX));
    const std::string suite = "ref=" + max + ",seed=" + max;
    // Every value takes every position of the cost segment once.
    for (size_t first = 0; first < kValues; ++first) {
        double *fields[] = {&ctx.cost.detailedPerInst,
                            &ctx.cost.functionalWarmPerInst,
                            &ctx.cost.fastForwardPerInst,
                            &ctx.cost.profilePerInst,
                            &ctx.cost.checkpointPerInst};
        std::string cost;
        for (size_t f = 0; f < std::size(fields); ++f) {
            *fields[f] = values[(first + f) % kValues];
            cost += (f ? "/" : "") + printed("%.17g", *fields[f]);
        }
        const std::string head = "v" +
                                 std::to_string(kCacheFormatVersion) +
                                 "|bench=gzip|" + suite + "|cost=" + cost +
                                 "|tech=";
        const std::string key =
            resultCacheKey(FullReference(), ctx, SimConfig());
        EXPECT_TRUE(key.starts_with(head)) << key << "\n" << head;
    }
}

// ---------------------------------------------------------- result I/O

TEST(ResultIo, RoundTripsBitIdentically)
{
    TechniqueContext ctx = directCtx("gzip");
    SimConfig config = architecturalConfig(2);
    Smarts smarts(1000, 2000);
    TechniqueResult fresh = smarts.run(ctx, config);
    const std::string key = resultCacheKey(smarts, ctx, config);

    std::ostringstream buffer;
    writeResult(buffer, key, fresh);
    TechniqueResult loaded;
    ASSERT_TRUE(readResult(buffer.str(), key, loaded));
    expectBitIdentical(loaded, fresh);
}

TEST(ResultIo, RejectsWrongKeyAndTruncation)
{
    TechniqueContext ctx = directCtx("gzip");
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);
    TechniqueResult fresh = smarts.run(ctx, config);
    const std::string key = resultCacheKey(smarts, ctx, config);

    std::ostringstream buffer;
    writeResult(buffer, key, fresh);
    TechniqueResult loaded;
    EXPECT_FALSE(readResult(buffer.str(), key + "X", loaded));

    std::string text = buffer.str();
    EXPECT_FALSE(readResult(text.substr(0, text.size() / 2), key, loaded));
}

TEST(ResultIo, RejectsTrailingGarbage)
{
    // A well-formed payload followed by extra bytes is not something
    // writeResult ever produced — it must read as a miss, never as
    // "close enough" (an interrupted overwrite looks exactly like
    // this).
    TechniqueContext ctx = directCtx("gzip");
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);
    TechniqueResult fresh = smarts.run(ctx, config);
    const std::string key = resultCacheKey(smarts, ctx, config);

    std::ostringstream buffer;
    writeResult(buffer, key, fresh);
    TechniqueResult loaded;
    EXPECT_FALSE(readResult(buffer.str() + "zombie bytes\n", key, loaded));
}

TEST(ResultIo, RejectsEveryTruncation)
{
    // The reader accepts exactly what writeResult writes: every proper
    // prefix, a non-hex digit in a double, other spacing or number forms
    // and another format version all read as a miss.
    TechniqueContext ctx = directCtx("gzip");
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);
    TechniqueResult fresh = smarts.run(ctx, config);
    const std::string key = resultCacheKey(smarts, ctx, config);

    std::ostringstream buffer;
    writeResult(buffer, key, fresh);
    const std::string text = buffer.str();
    TechniqueResult loaded;
    ASSERT_TRUE(readResult(text, key, loaded));
    for (size_t n = 0; n < text.size(); ++n)
        EXPECT_FALSE(readResult(std::string_view(text).substr(0, n), key,
                                loaded))
            << "prefix of " << n << " bytes";

    // One digit each of the cpi, the first metric and workUnits.
    const size_t metrics = text.find("\nmetrics ");
    for (size_t at : {text.find("\ncpi ") + 5,
                      text.find(' ', metrics + 9) + 1,
                      text.find("\nworkUnits ") + 11}) {
        ASSERT_TRUE(std::isxdigit(static_cast<unsigned char>(text[at])))
            << "byte " << at;
        std::string bad = text;
        bad[at] = 'g';
        EXPECT_FALSE(readResult(bad, key, loaded)) << "byte " << at;
    }

    // Spacing and number forms writeResult never writes.
    const std::pair<const char *, const char *> variants[] = {
        {"\nstats ", "\nstats  "},
        {"\ndetailedInsts ", "\ndetailedInsts 0"},
        {"\ndetailedInsts ", "\ndetailedInsts +"},
        {"\nend\n", "\nend \n"}};
    for (const auto &[from, to] : variants) {
        std::string bad = text;
        const size_t at = bad.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        bad.replace(at, std::strlen(from), to);
        EXPECT_FALSE(readResult(bad, key, loaded)) << to;
    }

    const std::string header =
        "yasim-result " + std::to_string(kCacheFormatVersion) + "\n";
    ASSERT_TRUE(text.starts_with(header));
    const std::string other = "yasim-result " +
                              std::to_string(kCacheFormatVersion + 1) +
                              "\n" + text.substr(header.size());
    EXPECT_FALSE(readResult(other, key, loaded));
}

TEST(ResultIo, NonFiniteDoublesRoundTripBitForBit)
{
    TechniqueResult fresh;
    fresh.technique = "synthetic";
    fresh.bbef = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                  std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity()};
    std::ostringstream buffer;
    writeResult(buffer, "k", fresh);
    TechniqueResult loaded;
    ASSERT_TRUE(readResult(buffer.str(), "k", loaded));
    expectBitIdentical(loaded, fresh);
}

// ------------------------------------------------------------- memoing

TEST(Engine, MemoizesRepeatedRuns)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimConfig config = architecturalConfig(2);
    Smarts smarts(1000, 2000);

    TechniqueResult first = engine.run(smarts, ctx, config);
    TechniqueResult second = engine.run(smarts, ctx, config);
    expectBitIdentical(first, second);

    EngineCounters ctr = engine.counters();
    EXPECT_EQ(ctr.runsExecuted, 1u);
    EXPECT_EQ(ctr.memoMisses, 1u);
    EXPECT_EQ(ctr.memoHits, 1u);
    EXPECT_GT(ctr.workUnitsSaved, 0.0);
}

TEST(Engine, MatchesDirectServiceBitForBit)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ectx = engine.context("mcf", suite);
    TechniqueContext dctx = directCtx("mcf");
    SimConfig config = architecturalConfig(2);
    Smarts smarts(1000, 2000);

    TechniqueResult pooled = engine.run(smarts, ectx, config);
    TechniqueResult direct = smarts.run(dctx, config);
    expectBitIdentical(pooled, direct);
}

TEST(Engine, RestampsDisplayLabelsOnSharedKeys)
{
    // a and b share a cache key (labels are excluded), but each caller
    // must get its own technique's labels back.
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimConfig config = architecturalConfig(1);
    SimPoint a(10.0, 30, 1.0, "multiple 10M");
    SimPoint b(10.0, 30, 1.0, "another label");

    TechniqueResult ra = engine.run(a, ctx, config);
    TechniqueResult rb = engine.run(b, ctx, config);
    EXPECT_EQ(engine.counters().runsExecuted, 1u);
    EXPECT_EQ(ra.permutation, "multiple 10M");
    EXPECT_EQ(rb.permutation, "another label");
    EXPECT_TRUE(bitEq(ra.cpi, rb.cpi));
}

TEST(Engine, ConcurrentRequestsCollapseOntoOneRun)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimConfig config = architecturalConfig(2);
    FullReference reference;

    std::vector<TechniqueResult> results(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t)
        threads.emplace_back([&, t] {
            results[t] = engine.run(reference, ctx, config);
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(engine.counters().runsExecuted, 1u);
    for (size_t t = 1; t < results.size(); ++t)
        expectBitIdentical(results[t], results[0]);
}

TEST(Engine, ConcurrentSimPointCellsProfileOnce)
{
    // One SimPoint permutation on eight configurations at once. Its
    // points depend only on the program, so exactly one cell may
    // profile BBVs and cluster; the others wait for its points. Every
    // cell opens the reference stream once to simulate, and the one
    // profiling pass opens it once more, so the trace-hit count is
    // fixed. The seed makes the key unique in this process: no other
    // test can have filled SimPoint's point cache for it.
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimPoint simpoint(10.0, 10, 1.0, "single-flight", 15, 0x51f1e7);
    std::vector<SimConfig> configs = architecturalConfigs();
    const std::vector<SimConfig> pb =
        pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false));
    configs.insert(configs.end(), pb.begin(), pb.begin() + 4);

    const TraceCounters before = engine.traceStore()->counters();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < configs.size(); ++t)
        threads.emplace_back(
            [&, t] { engine.run(simpoint, ctx, configs[t]); });
    for (std::thread &thread : threads)
        thread.join();
    const TraceCounters after = engine.traceStore()->counters();

    EXPECT_EQ(engine.counters().runsExecuted, configs.size());
    EXPECT_EQ(after.recordings, before.recordings);
    EXPECT_EQ(after.inflightJoins, before.inflightJoins);
    EXPECT_EQ(after.hits - before.hits, configs.size() + 1);
}

/**
 * Spin until @p ready holds: a gate on another thread's progress. A gate
 * still shut after 10 s fails the test instead of hanging it.
 */
template <typename Ready>
void
awaitGate(Ready ready)
{
    const int64_t give_up = monotonicNowMs() + 10'000;
    while (!ready()) {
        if (monotonicNowMs() > give_up) {
            ADD_FAILURE() << "gate still shut after 10 s";
            return;
        }
        std::this_thread::yield();
    }
}

/**
 * A technique for the in-flight tests. It counts its runs and can throw
 * from its first one. A gated probe parks each run until open(), so
 * another request can join it, and then polls its token as a real run
 * does at a batch boundary.
 */
class ProbeTechnique : public Technique
{
  public:
    explicit ProbeTechnique(bool gated, bool fail_first = false)
        : gated(gated), failFirst(fail_first)
    {}

    std::string name() const override { return "Probe"; }
    std::string permutation() const override { return "probe"; }

    TechniqueResult run(const TechniqueContext &ctx,
                        const SimConfig &) const override
    {
        if (++calls == 1 && failFirst)
            throw std::runtime_error("probe: the first run fails");
        awaitGate([&] { return !gated || opened.load(); });
        if (ctx.cancel.cancelled()) {
            CancelledError err;
            err.cause = ctx.cancel.cause();
            throw err;
        }
        TechniqueResult result;
        result.cpi = 1.25;
        result.workUnits = 100.0;
        return result;
    }

    /** Let parked and later runs proceed. */
    void open() { opened = true; }

    /** run() invocations so far. */
    mutable std::atomic<int> calls{0};

  private:
    bool gated;
    bool failFirst;
    std::atomic<bool> opened{false};
};

TEST(Engine, ThrowingRunDoesNotStrandLaterRequests)
{
    // A run that throws must not leave its key marked as in flight:
    // the next request computes again instead of waiting for a run
    // that never finishes. Its deadline turns a stranded wait into a
    // failure instead of a hang.
    failpoint::ScopedSchedule off("");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimConfig config = architecturalConfig(1);
    ProbeTechnique probe(false, true);

    EXPECT_THROW(engine.run(probe, ctx, config), std::runtime_error);

    CancelSource deadline;
    deadline.setDeadlineAfterMs(1000);
    ctx.cancel = deadline.token();
    TechniqueResult result;
    EXPECT_NO_THROW(result = engine.run(probe, ctx, config));
    EXPECT_EQ(probe.calls.load(), 2);
    EXPECT_EQ(result.cpi, 1.25);
    EngineCounters ctr = engine.counters();
    EXPECT_EQ(ctr.inflightJoins, 0u);
    EXPECT_EQ(ctr.memoMisses, 2u);
    EXPECT_EQ(ctr.runsExecuted, 1u);
}

TEST(Engine, JoinerOfACancelledRunComputesInstead)
{
    // The run a request joined is cancelled. The joiner did not ask
    // for that, so it computes the result itself.
    failpoint::ScopedSchedule off("");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimConfig config = architecturalConfig(1);
    ProbeTechnique probe(true);

    CancelSource owner_source;
    TechniqueContext owner_ctx = ctx;
    owner_ctx.cancel = owner_source.token();
    bool owner_cancelled = false;
    std::thread owner([&] {
        try {
            engine.run(probe, owner_ctx, config);
        } catch (const CancelledError &) {
            owner_cancelled = true;
        }
    });
    awaitGate([&] { return probe.calls.load() == 1; });

    // The joiner's deadline only stops a wait that never ends.
    CancelSource patience;
    patience.setDeadlineAfterMs(10'000);
    TechniqueContext joiner_ctx = ctx;
    joiner_ctx.cancel = patience.token();
    TechniqueResult joined;
    bool joiner_cancelled = false;
    std::thread joiner([&] {
        try {
            joined = engine.run(probe, joiner_ctx, config);
        } catch (const CancelledError &) {
            joiner_cancelled = true;
        }
    });
    awaitGate([&] { return engine.counters().inflightJoins == 1; });
    owner_source.cancel();
    probe.open();
    owner.join();
    joiner.join();

    EXPECT_TRUE(owner_cancelled);
    EXPECT_FALSE(joiner_cancelled);
    EXPECT_EQ(probe.calls.load(), 2);
    EXPECT_EQ(joined.cpi, 1.25);
    EngineCounters ctr = engine.counters();
    EXPECT_EQ(ctr.inflightJoins, 1u);
    EXPECT_EQ(ctr.memoMisses, 2u);
    EXPECT_EQ(ctr.runsCancelled, 1u);
    EXPECT_EQ(ctr.runsExecuted, 1u);
}

TEST(Engine, JoinerDeadlineFiresWhileOwnerRuns)
{
    // A joiner's own deadline ends its wait although the run it joined
    // goes on. That run then finishes and is memoized as usual.
    failpoint::ScopedSchedule off("");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimConfig config = architecturalConfig(1);
    ProbeTechnique probe(true);

    TechniqueResult owned;
    std::thread owner([&] { owned = engine.run(probe, ctx, config); });
    awaitGate([&] { return probe.calls.load() == 1; });

    CancelSource deadline;
    deadline.setDeadlineAfterMs(50);
    TechniqueContext joiner_ctx = ctx;
    joiner_ctx.cancel = deadline.token();
    CancelCause cause = CancelCause::None;
    try {
        engine.run(probe, joiner_ctx, config);
    } catch (const CancelledError &err) {
        cause = err.cause;
    }
    EXPECT_EQ(cause, CancelCause::DeadlineExceeded);
    probe.open();
    owner.join();

    EXPECT_EQ(owned.cpi, 1.25);
    EXPECT_EQ(engine.run(probe, ctx, config).cpi, 1.25);
    EXPECT_EQ(probe.calls.load(), 1);
    EngineCounters ctr = engine.counters();
    EXPECT_EQ(ctr.inflightJoins, 1u);
    EXPECT_EQ(ctr.memoHits, 1u);
    EXPECT_EQ(ctr.runsCancelled, 0u);
    EXPECT_EQ(ctr.runsExecuted, 1u);
}

// ----------------------------------------------------------- the disk

TEST(Engine, DiskCacheRoundTripsAcrossEngines)
{
    // Pin the schedule: the exact counters below assume no injected
    // faults even when the suite runs under a CI YASIM_FAILPOINTS job.
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_disk_roundtrip");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(2);
    Smarts smarts(1000, 2000);

    TechniqueResult fresh;
    {
        ExperimentEngine warm({.cacheDir = scratch.str()});
        fresh = warm.run(smarts, warm.context("gzip", suite), config);
        EXPECT_EQ(warm.counters().runsExecuted, 1u);
        EXPECT_GE(warm.counters().diskWrites, 1u);
    }

    // A second engine over the same directory simulates nothing: the
    // result comes from the disk cache and the reference length from
    // the trace store (whose trace also loads from disk, not a fresh
    // interpretation).
    ExperimentEngine cold({.cacheDir = scratch.str()});
    const TechniqueContext ctx = cold.context("gzip", suite);
    TechniqueResult loaded = cold.run(smarts, ctx, config);
    EngineCounters ctr = cold.counters();
    EXPECT_EQ(ctr.runsExecuted, 0u);
    EXPECT_GE(ctr.diskHits, 1u);
    ASSERT_NE(cold.traceStore(), nullptr);
    EXPECT_EQ(ctx.referenceLength,
              cold.traceStore()
                  ->get("gzip", InputSet::Reference, suite)
                  ->length());
    EXPECT_EQ(cold.traceStore()->counters().recordings, 0u);
    EXPECT_GE(cold.traceStore()->counters().diskLoads, 1u);
    expectBitIdentical(loaded, fresh);
}

TEST(Engine, CorruptDiskFilesReadAsMisses)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_disk_corrupt");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);

    {
        ExperimentEngine warm({.cacheDir = scratch.str()});
        warm.run(smarts, warm.context("gzip", suite), config);
    }
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.is_regular_file()) {
            std::ofstream out(entry.path(), std::ios::trunc);
            out << "not a cache file\n";
        }

    ExperimentEngine cold({.cacheDir = scratch.str()});
    TechniqueResult rerun =
        cold.run(smarts, cold.context("gzip", suite), config);
    EXPECT_EQ(cold.counters().runsExecuted, 1u);
    EXPECT_GT(rerun.workUnits, 0.0);
}

// ---------------------------------------------------------- robustness

TEST(EngineRobustness, SelfHealsCorruptEntriesAndCountsThem)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_self_heal");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);

    TechniqueResult fresh;
    {
        ExperimentEngine warm({.cacheDir = scratch.str()});
        fresh = warm.run(smarts, warm.context("gzip", suite), config);
    }
    int rotted = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.path().extension() == ".result") {
            flipMiddleByte(entry.path());
            ++rotted;
        }
    ASSERT_GE(rotted, 1);

    // The cold engine quarantines the rotten entry, recomputes
    // bit-identically, counts the corruption, and republishes.
    ExperimentEngine cold({.cacheDir = scratch.str()});
    TechniqueResult healed =
        cold.run(smarts, cold.context("gzip", suite), config);
    expectBitIdentical(healed, fresh);
    EngineCounters ctr = cold.counters();
    EXPECT_EQ(ctr.runsExecuted, 1u);
    EXPECT_GE(ctr.cacheCorrupt, 1u);
    EXPECT_GE(ctr.diskWrites, 1u);

    int quarantined = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.path().string().ends_with(".corrupt"))
            ++quarantined;
    EXPECT_GE(quarantined, 1);
    expectDirEmptyOrValid(scratch.str());
}

TEST(EngineRobustness, TraceQuarantineRecordsBitIdenticallyAgain)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_trace_heal");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);

    TechniqueResult fresh;
    {
        ExperimentEngine warm({.cacheDir = scratch.str()});
        fresh = warm.run(smarts, warm.context("gzip", suite), config);
    }
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.path().extension() == ".result" ||
            entry.path().extension() == ".trace")
            flipMiddleByte(entry.path());

    ExperimentEngine cold({.cacheDir = scratch.str()});
    TechniqueResult healed =
        cold.run(smarts, cold.context("gzip", suite), config);
    expectBitIdentical(healed, fresh);
    ASSERT_NE(cold.traceStore(), nullptr);
    TraceCounters t = cold.traceStore()->counters();
    EXPECT_GE(t.quarantined, 1u);
    EXPECT_EQ(t.recordings, 1u);
    EXPECT_EQ(t.diskLoads, 0u);
}

TEST(EngineRobustness, TransientReadsRetryAndStillHitTheCache)
{
    ScratchDir scratch("yasim_engine_transient");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);

    TechniqueResult fresh;
    {
        failpoint::ScopedSchedule off("");
        ExperimentEngine warm({.cacheDir = scratch.str()});
        fresh = warm.run(smarts, warm.context("gzip", suite), config);
    }

    // The very first open fails once; the bounded retry succeeds, so
    // the cache still serves everything without a single simulation.
    failpoint::ScopedSchedule sched("io.open.transient=after0");
    ExperimentEngine cold({.cacheDir = scratch.str()});
    TechniqueResult loaded =
        cold.run(smarts, cold.context("gzip", suite), config);
    expectBitIdentical(loaded, fresh);
    EXPECT_EQ(cold.counters().runsExecuted, 0u);
    ASSERT_NE(cold.traceStore(), nullptr);
    EXPECT_GE(cold.counters().ioRetries +
                  cold.traceStore()->counters().ioRetries,
              1u);
}

TEST(EngineRobustness, UnreadableEntriesAreCountedNotFatal)
{
    ScratchDir scratch("yasim_engine_unreadable");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);

    TechniqueResult fresh;
    {
        failpoint::ScopedSchedule off("");
        ExperimentEngine warm({.cacheDir = scratch.str()});
        fresh = warm.run(smarts, warm.context("gzip", suite), config);
    }

    // Every open fails even after retries: reads degrade to misses,
    // writes are dropped with a warning, the run still completes with
    // bit-identical results (the unreadable-entry satellite fix).
    failpoint::ScopedSchedule sched("io.open.transient=always");
    ExperimentEngine cold({.cacheDir = scratch.str()});
    TechniqueResult recomputed =
        cold.run(smarts, cold.context("gzip", suite), config);
    expectBitIdentical(recomputed, fresh);
    EngineCounters ctr = cold.counters();
    EXPECT_EQ(ctr.runsExecuted, 1u);
    EXPECT_GE(ctr.cacheUnreadable, 1u);
    EXPECT_EQ(ctr.diskHits, 0u);
    // The spill read that stayed unreadable is counted the same way.
    EXPECT_GE(cold.traceStore()->counters().unreadable, 1u);
}

TEST(EngineRobustness, StatsReportCarriesTheTraceStoresDiskCounters)
{
    ScratchDir scratch("yasim_engine_trace_stats");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    // A one-byte budget: each spill written evicts the one before it.
    ExperimentEngine engine(
        {.cacheDir = scratch.str(), .cacheBudgetBytes = 1});
    {
        failpoint::ScopedSchedule sched("io.open.transient=always");
        engine.context("gzip", suite);
    }
    failpoint::ScopedSchedule off("");
    engine.context("mcf", suite);
    engine.context("art", suite);

    const TraceCounters t = engine.traceStore()->counters();
    ASSERT_GE(t.unreadable, 1u);
    ASSERT_GE(t.budgetEvictions, 1u);
    const JsonReport report = engine.statsReport();
    ASSERT_TRUE(report.has("trace_unreadable"));
    ASSERT_TRUE(report.has("trace_budget_evictions"));
    EXPECT_EQ(report.count("trace_unreadable"), t.unreadable);
    EXPECT_EQ(report.count("trace_budget_evictions"), t.budgetEvictions);

    std::ostringstream table;
    engine.printStats(table);
    EXPECT_NE(table.str().find("trace unreadable"), std::string::npos);
    EXPECT_NE(table.str().find("trace budget evictions"),
              std::string::npos);
}

TEST(EngineRobustness, CacheBudgetEvictsOldestEntries)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_budget");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    Smarts smarts(500, 1000);

    // A one-byte budget forces an eviction sweep after every publish;
    // only the newest artifact may survive each sweep.
    ExperimentEngine engine(
        {.cacheDir = scratch.str(), .cacheBudgetBytes = 1});
    TechniqueContext ctx = engine.context("gzip", suite);
    engine.run(smarts, ctx, architecturalConfig(1));
    engine.run(smarts, ctx, architecturalConfig(2));
    EXPECT_GE(engine.counters().budgetEvictions, 2u);

    int files = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1);
    expectDirEmptyOrValid(scratch.str());
}

TEST(EngineRobustness, ConcurrentEnginesShareOneCacheDir)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_shared_dir");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(2);
    Smarts smarts(1000, 2000);

    // Four independent engines (four "driver processes" in miniature)
    // race over one cache directory: every result must be
    // bit-identical and the directory must end valid — the atomic
    // temp+rename publish means no reader ever sees a torn artifact.
    std::vector<TechniqueResult> results(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t)
        threads.emplace_back([&, t] {
            ExperimentEngine engine({.cacheDir = scratch.str()});
            results[t] = engine.run(
                smarts, engine.context("gzip", suite), config);
        });
    for (std::thread &thread : threads)
        thread.join();

    for (size_t t = 1; t < results.size(); ++t)
        expectBitIdentical(results[t], results[0]);
    expectDirEmptyOrValid(scratch.str());
}

TEST(EngineRobustness, KilledWritersNeverPublishTornArtifacts)
{
    // The crash-safety torture test: fork a writer child and hard-kill
    // it (_exit from inside the write loop) at a failpoint-chosen
    // write offset, sweeping the offset across runs. Whatever the
    // crash point — during the trace spill or the result write — the
    // shared directory must stay empty-or-valid.
    ScratchDir scratch("yasim_engine_torture");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SimConfig config = architecturalConfig(1);
    Smarts smarts(500, 1000);

    int crashes = 0;
    for (uint64_t crash_at :
         std::initializer_list<uint64_t>{0, 1, 2, 4, 7, 12}) {
        fs::remove_all(scratch.str());
        fs::create_directories(scratch.str());

        pid_t pid = fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            // Child: arm the crash site, run one cache-warming job,
            // and exit 0 if the sweep point was past the last write.
            failpoint::configure("io.write.crash=after" +
                                 std::to_string(crash_at));
            ExperimentEngine engine({.cacheDir = scratch.str()});
            engine.run(smarts, engine.context("gzip", suite), config);
            ::_exit(0);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_TRUE(WEXITSTATUS(status) == 0 ||
                    WEXITSTATUS(status) == 86)
            << "unexpected child exit " << WEXITSTATUS(status);
        crashes += WEXITSTATUS(status) == 86 ? 1 : 0;

        expectDirEmptyOrValid(scratch.str());

        // And the survivors must be fully usable: a fresh engine over
        // the directory reproduces the result bit-identically.
        failpoint::ScopedSchedule off("");
        ExperimentEngine after({.cacheDir = scratch.str()});
        TechniqueResult result =
            after.run(smarts, after.context("gzip", suite), config);
        EXPECT_GT(result.workUnits, 0.0);
    }
    // The sweep must actually have killed at least one child mid-write
    // (otherwise the offsets are all past the workload's last write
    // and the test is vacuous).
    EXPECT_GE(crashes, 1);
}

/**
 * Fork a child that builds gzip's context on an engine over @p dir with
 * no failpoint armed, then arms @p schedule and runs @p grid as one
 * runAll batch. A child that finishes writes its count of io.write.crash
 * evaluations to @p report_fd (when >= 0) and exits 0; a crash
 * failpoint kills it first. Returns the exit status, or -1, and names
 * the child in @p child when given.
 */
int
runGridInChild(const std::string &dir, const SmallGrid &grid,
               const SuiteConfig &suite, const std::string &schedule,
               int report_fd = -1, pid_t *child = nullptr)
{
    const pid_t pid = ::fork();
    if (child)
        *child = pid;
    if (pid == 0) {
        failpoint::configure("");
        ExperimentEngine engine({.cacheDir = dir});
        const TechniqueContext ctx = engine.context("gzip", suite);
        failpoint::configure(schedule);
        grid.run(engine, ctx);
        if (report_fd >= 0) {
            const uint64_t evaluations =
                failpoint::stats("io.write.crash").evaluations;
            if (::write(report_fd, &evaluations, sizeof(evaluations)) !=
                static_cast<ssize_t>(sizeof(evaluations)))
                ::_exit(1);
        }
        ::_exit(0);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(EngineRobustness, KilledGridWritersNeverPublishTornArtifacts)
{
    // The grid analogue of the torture test above. A runAll stages its
    // writes and publishes them after one barrier, so a child killed
    // anywhere in the batch — mid-write (io.write.crash, exit 86) or
    // after the barrier and before a rename (io.publish.crash, exit
    // 87) — must leave the directory empty-or-valid, and a fresh engine
    // over it must reproduce every cell bit-identically.
    ScratchDir scratch("yasim_engine_grid_torture");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    const SmallGrid grid;

    // The sweep spans the batch's write-loop evaluations.
    uint64_t writes = 0;
    {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        const std::string dir = scratch.str() + "/count";
        fs::create_directories(dir);
        EXPECT_EQ(runGridInChild(dir, grid, suite,
                                 "io.write.crash=after1000000000", fds[1]),
                  0);
        ::close(fds[1]);
        ASSERT_EQ(::read(fds[0], &writes, sizeof(writes)),
                  static_cast<ssize_t>(sizeof(writes)));
        ::close(fds[0]);
    }
    // At least one 1 KiB chunk per staged file, and a multi-chunk spill.
    ASSERT_GT(writes, 5u);

    struct Kill
    {
        std::string schedule;
        int status;
        /** Files of the batch renamed before the kill. */
        int published;
    };
    std::vector<Kill> kills;
    for (uint64_t k : {uint64_t(0), writes / 4, writes / 2,
                       3 * writes / 4, writes - 1})
        kills.push_back({"io.write.crash=after" + std::to_string(k), 86, 0});
    kills.push_back({"io.publish.crash=after0", 87, 0});
    kills.push_back({"io.publish.crash=after2", 87, 2});

    // Every child runs before this process starts a thread, so each
    // fork copies a single-threaded process.
    std::vector<std::string> dirs;
    std::vector<pid_t> children(kills.size(), 0);
    for (const Kill &kill : kills) {
        const size_t i = dirs.size();
        dirs.push_back(scratch.str() + "/kill" + std::to_string(i));
        fs::create_directories(dirs.back());
        EXPECT_EQ(runGridInChild(dirs.back(), grid, suite, kill.schedule,
                                 -1, &children[i]),
                  kill.status)
            << kill.schedule;
    }

    failpoint::ScopedSchedule off("");
    ExperimentEngine memory;
    const auto expected = grid.run(memory, memory.context("gzip", suite));
    for (size_t i = 0; i < kills.size(); ++i) {
        SCOPED_TRACE(kills[i].schedule);
        expectDirEmptyOrValid(dirs[i]);
        // Nothing of the batch is under its final name unless its
        // rename ran: the one other file is the reference spill that
        // building the context wrote at once.
        EXPECT_EQ(countPublished(dirs[i], ".result") +
                      countPublished(dirs[i], ".trace"),
                  1 + kills[i].published);

        // Opening the directory reclaims the dead child's temps.
        ExperimentEngine after({.cacheDir = dirs[i]});
        EXPECT_GE(after.counters().staleTempsReclaimed, 1u);
        const std::string child_temp =
            ".tmp." + std::to_string(children[i]) + ".";
        for (const fs::directory_entry &entry :
             fs::directory_iterator(dirs[i]))
            EXPECT_EQ(entry.path().filename().string().find(child_temp),
                      std::string::npos)
                << entry.path();
        expectSameRows(grid.run(after, after.context("gzip", suite)),
                       expected);
    }
}

TEST(EngineRobustness, FailedGridBarrierPublishesNothing)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_grid_barrier");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    const SmallGrid grid;
    ExperimentEngine engine({.cacheDir = scratch.str()});
    const TechniqueContext ctx = engine.context("gzip", suite);

    std::vector<std::vector<TechniqueResult>> rows;
    std::string warnings;
    {
        failpoint::ScopedSchedule sched("io.sync.fail=always");
        ::testing::internal::CaptureStderr();
        rows = grid.run(engine, ctx);
        warnings = ::testing::internal::GetCapturedStderr();
    }
    // One warning for the whole batch, and no file of it published or
    // left behind: only the context's reference spill is there.
    size_t warned = 0;
    for (size_t at = warnings.find("warn: "); at != std::string::npos;
         at = warnings.find("warn: ", at + 1))
        ++warned;
    EXPECT_EQ(warned, 1u) << warnings;
    EXPECT_NE(warnings.find("none was published"), std::string::npos)
        << warnings;
    EngineCounters ctr = engine.counters();
    EXPECT_EQ(ctr.diskBarriers, 1u);
    EXPECT_EQ(ctr.diskWrites, 0u);
    EXPECT_EQ(ctr.runsExecuted, grid.cells());
    int files = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1);
    EXPECT_EQ(countPublished(scratch.str(), ".trace"), 1);

    // The results were returned and memoized all the same.
    expectSameRows(grid.run(engine, ctx), rows);
    ctr = engine.counters();
    EXPECT_EQ(ctr.runsExecuted, grid.cells());
    EXPECT_EQ(ctr.memoHits, grid.cells());
    EXPECT_EQ(ctr.diskBarriers, 1u);

    // A fresh engine finds nothing on disk and recomputes every cell.
    ExperimentEngine fresh({.cacheDir = scratch.str()});
    expectSameRows(grid.run(fresh, fresh.context("gzip", suite)), rows);
    EXPECT_EQ(fresh.counters().runsExecuted, grid.cells());
    EXPECT_EQ(fresh.counters().diskWrites, grid.cells());
}

// -------------------------------------------------------------- runAll

TEST(Engine, RunAllGridIsBitIdenticalToSerial)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    std::vector<TechniquePtr> techniques = {
        std::make_shared<FullReference>(),
        std::make_shared<Smarts>(1000, 2000),
        std::make_shared<ReducedInput>(InputSet::Small),
    };
    std::vector<SimConfig> configs = {architecturalConfig(1),
                                      architecturalConfig(2)};

    ExperimentEngine pooled;
    TechniqueContext pctx = pooled.context("gzip", suite);
    const auto rows = runGrid(pooled, techniques, pctx, configs);
    const uint64_t executed = pooled.counters().runsExecuted;
    // techniques x configs, the reference among them.
    EXPECT_EQ(executed, techniques.size() * configs.size());
    ASSERT_EQ(rows.size(), techniques.size());

    ExperimentEngine serial;
    TechniqueContext sctx = serial.context("gzip", suite);
    for (size_t t = 0; t < techniques.size(); ++t)
        for (size_t c = 0; c < configs.size(); ++c)
            expectBitIdentical(rows[t][c],
                               serial.run(*techniques[t], sctx, configs[c]));
    // A second batch of the same grid hits the memo only.
    runGrid(pooled, techniques, pctx, configs);
    EXPECT_EQ(pooled.counters().runsExecuted, executed);
}

TEST(Engine, PrefetchIsIdempotent)
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    std::vector<TechniquePtr> techniques = {
        std::make_shared<Smarts>(1000, 2000)};
    std::vector<SimConfig> configs = {architecturalConfig(1)};

    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    engine.prefetch(ctx, techniques, configs);
    const uint64_t executed = engine.counters().runsExecuted;
    engine.prefetch(ctx, techniques, configs);
    EXPECT_EQ(engine.counters().runsExecuted, executed);
    EXPECT_GT(engine.counters().gridJobs, 0u);
}

TEST(Engine, RunAllRecordsEachStreamBeforeTheGridFansOut)
{
    // Two reduced inputs on eight configurations: sixteen cells over
    // two streams. The grid records each stream once before it fans
    // out, so no cell waits on another's recording and the trace
    // counters are fixed however the pool runs the cells.
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_runall_streams");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    std::vector<TechniquePtr> techniques = {
        std::make_shared<ReducedInput>(InputSet::Small),
        std::make_shared<ReducedInput>(InputSet::Train),
    };
    std::vector<SimConfig> configs = architecturalConfigs();
    const std::vector<SimConfig> pb =
        pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false));
    configs.insert(configs.end(), pb.begin(), pb.begin() + 4);

    {
        ExperimentEngine warm({.cacheDir = scratch.str()});
        TechniqueContext ctx = warm.context("gzip", suite);
        runGrid(warm, techniques, ctx, configs);
        const TraceCounters t = warm.traceStore()->counters();
        // The reference (the context's length) and the two inputs.
        EXPECT_EQ(t.recordings, 3u);
        EXPECT_EQ(t.inflightJoins, 0u);
        EXPECT_EQ(t.hits, techniques.size() * configs.size());
    }

    // Over a warm directory every cell is a disk hit, so the grid
    // reads neither reduced stream: only the context's reference
    // length loads a trace.
    ExperimentEngine cold({.cacheDir = scratch.str()});
    TechniqueContext ctx = cold.context("gzip", suite);
    runGrid(cold, techniques, ctx, configs);
    EXPECT_EQ(cold.counters().runsExecuted, 0u);
    const TraceCounters t = cold.traceStore()->counters();
    EXPECT_EQ(t.recordings, 0u);
    EXPECT_EQ(t.diskLoads, 1u);
    EXPECT_EQ(t.hits, 0u);
}

TEST(Engine, RunAllComputesADuplicateKeyOnce)
{
    // The two SimPoints share a result key: labels are not part of it,
    // and 15 is the default projection. The batch computes the key
    // once and fills the second job afterwards as a memo hit, so no
    // job waits on another however many workers run the batch.
    setParallelWorkers(4);
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context("gzip", suite);
    SimConfig config = architecturalConfig(2);
    SimPoint max_k(10.0, 30, 1.0, "max_k=30");
    SimPoint dim(10.0, 30, 1.0, "dim=15", 15);

    const std::vector<TechniqueResult> results =
        engine.runAll({{&max_k, &ctx, &config}, {&dim, &ctx, &config}});
    ASSERT_EQ(results.size(), 2u);
    const EngineCounters ctr = engine.counters();
    EXPECT_EQ(ctr.runsExecuted, 1u);
    EXPECT_EQ(ctr.inflightJoins, 0u);
    EXPECT_EQ(ctr.memoHits, 1u);
    EXPECT_EQ(results[0].permutation, "max_k=30");
    EXPECT_EQ(results[1].permutation, "dim=15");
    EXPECT_TRUE(bitEq(results[0].cpi, results[1].cpi));
    EXPECT_TRUE(bitEq(ctr.workUnitsSaved, results[1].workUnits));
}

TEST(Engine, RunAllPublishesBeforeReturning)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_runall_publish");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    const SmallGrid grid;

    ExperimentEngine first({.cacheDir = scratch.str()});
    const auto rows = grid.run(first, first.context("gzip", suite));
    EngineCounters ctr = first.counters();
    EXPECT_EQ(ctr.runsExecuted, grid.cells());
    EXPECT_EQ(ctr.diskWrites, grid.cells());
    EXPECT_EQ(ctr.diskBarriers, 1u);
    EXPECT_EQ(first.traceStore()->counters().diskWrites, 2u);

    // While the first engine is still alive, a second one over the same
    // directory is served the whole grid from disk.
    ExperimentEngine second({.cacheDir = scratch.str()});
    expectSameRows(grid.run(second, second.context("gzip", suite)), rows);
    ctr = second.counters();
    EXPECT_EQ(ctr.runsExecuted, 0u);
    EXPECT_EQ(ctr.diskHits, grid.cells());
    EXPECT_EQ(ctr.diskBarriers, 0u);
}

TEST(Engine, ThrowingRunAllPublishesWhatItFinished)
{
    // A job that throws fails the batch, but what the other jobs
    // finished is published before the exception leaves runAll.
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_runall_throw");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    Smarts smarts(500, 1000);
    ProbeTechnique failing(false, true);
    const SimConfig config = architecturalConfig(1);
    {
        ExperimentEngine engine({.cacheDir = scratch.str()});
        const TechniqueContext ctx = engine.context("gzip", suite);
        EXPECT_THROW(engine.runAll({{&smarts, &ctx, &config},
                                    {&failing, &ctx, &config}}),
                     std::runtime_error);
        EXPECT_EQ(engine.counters().diskWrites, 1u);
        EXPECT_EQ(engine.counters().diskBarriers, 1u);
    }
    ExperimentEngine fresh({.cacheDir = scratch.str()});
    fresh.run(smarts, fresh.context("gzip", suite), config);
    EXPECT_EQ(fresh.counters().diskHits, 1u);
    EXPECT_EQ(fresh.counters().runsExecuted, 0u);
}

TEST(Engine, CachedRunAllIssuesNoBarrier)
{
    // A batch whose every key is memoized or on disk stages nothing, so
    // it issues no barrier: the analyses re-read their grids this way.
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_engine_runall_cached");
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    SmallGrid grid;
    grid.techniques.insert(grid.techniques.begin(),
                           std::make_shared<FullReference>());

    {
        ExperimentEngine engine({.cacheDir = scratch.str()});
        const TechniqueContext ctx = engine.context("gzip", suite);
        grid.run(engine, ctx);
        EXPECT_EQ(engine.counters().diskBarriers, 1u);
        grid.run(engine, ctx);
        // svatAnalysis runs the reference and the techniques as one grid.
        svatAnalysis(engine, ctx,
                     {grid.techniques.begin() + 1, grid.techniques.end()},
                     grid.configs);
        const EngineCounters ctr = engine.counters();
        EXPECT_EQ(ctr.runsExecuted, grid.cells());
        EXPECT_EQ(ctr.diskWrites, grid.cells());
        EXPECT_EQ(ctr.diskBarriers, 1u);
    }

    ExperimentEngine cold({.cacheDir = scratch.str()});
    grid.run(cold, cold.context("gzip", suite));
    const EngineCounters ctr = cold.counters();
    EXPECT_EQ(ctr.diskHits, grid.cells());
    EXPECT_EQ(ctr.diskWrites, 0u);
    EXPECT_EQ(ctr.diskBarriers, 0u);
}

TEST(Service, RunAllMatchesRunInJobOrder)
{
    // One grid over techniques, configurations and two benchmarks:
    // DirectService's runAll, the engine's pooled runAll and one run()
    // per cell on a second engine agree bit for bit, job by job.
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    const std::vector<TechniquePtr> techniques = {
        std::make_shared<FullReference>(),
        std::make_shared<Smarts>(1000, 2000),
        std::make_shared<ReducedInput>(InputSet::Small),
    };
    const std::vector<SimConfig> configs = {architecturalConfig(1),
                                            architecturalConfig(3)};

    DirectService direct;
    ExperimentEngine pooled, serial;
    std::vector<TechniqueContext> dctx, pctx, sctx;
    for (const char *bench : {"gzip", "mcf"}) {
        dctx.push_back(TechniqueContext::make(bench, suite, direct));
        pctx.push_back(pooled.context(bench, suite));
        sctx.push_back(serial.context(bench, suite));
    }
    auto grid = [&](const std::vector<TechniqueContext> &contexts) {
        std::vector<GridJob> jobs;
        for (const SimConfig &config : configs)
            for (const TechniquePtr &technique : techniques)
                for (const TechniqueContext &ctx : contexts)
                    jobs.push_back({technique.get(), &ctx, &config});
        return jobs;
    };

    const std::vector<TechniqueResult> from_direct =
        direct.runAll(grid(dctx));
    const std::vector<TechniqueResult> from_pool =
        pooled.runAll(grid(pctx));
    const std::vector<GridJob> jobs = grid(sctx);
    ASSERT_EQ(from_direct.size(), jobs.size());
    ASSERT_EQ(from_pool.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const TechniqueResult one =
            serial.run(*jobs[i].technique, *jobs[i].ctx, *jobs[i].config);
        expectBitIdentical(from_direct[i], one);
        expectBitIdentical(from_pool[i], one);
    }
}

} // namespace
} // namespace yasim
