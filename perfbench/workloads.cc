/**
 * @file
 * The benchmark workloads (README.md explains why each exists):
 *
 *   svat_cold     the Figure-3/4 SvAT grids for gcc and mcf on an
 *                 empty cache dir with 4 reference shards
 *   service_warm  an in-process yasimd on a cache dir populated by
 *                 set-up, driven by a closed loop of 2 clients
 *
 * The grids run through ExperimentEngine::prefetch, as the bench
 * drivers do, with every technique wrapped in TimedTechnique so each
 * simulated cell's run time is visible. The figure tables are then
 * assembled as the bench drivers do.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "core/pb_characterization.hh"
#include "core/svat_analysis.hh"
#include "engine/options.hh"
#include "perfbench.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"

namespace fs = std::filesystem;
using namespace yasim;

namespace perfbench {

namespace {

// Reference lengths (dynamic instructions per reference input). Each
// is sized so a round takes a few seconds on a 4-core host and several
// rounds fit one run; svat_cold runs a longer reference, so warming and
// live-point work dominate it.
constexpr uint64_t kSvatRefInsts = 120'000;
constexpr uint64_t kServiceRefInsts = 300'000;

SuiteConfig
suiteAt(uint64_t ref_insts, uint64_t seed)
{
    SuiteConfig suite;
    suite.referenceInstructions = ref_insts;
    suite.seed = seed;
    return suite;
}

/** Run times TimedTechnique records, from any pool thread. */
struct RunTimes
{
    std::mutex mutex;
    std::vector<double> ms;
    /** Span the runs nest under (the prefetch call). */
    uint64_t parent = 0;
};

/**
 * Forwards to a technique, identity included, and records how long
 * each run() takes. The engine calls run() only for a cell it has to
 * simulate, so the records are the grid's technique-run times.
 */
class TimedTechnique final : public Technique
{
  public:
    TimedTechnique(TechniquePtr inner, RunTimes &times)
        : inner(std::move(inner)), times(times)
    {
    }

    std::string name() const override { return inner->name(); }
    std::string permutation() const override { return inner->permutation(); }
    std::string cacheKey() const override { return inner->cacheKey(); }

    TechniqueResult
    run(const TechniqueContext &ctx, const SimConfig &config) const override
    {
        ScopedSpan span("Technique::run", 0, times.parent);
        const auto t0 = Clock::now();
        TechniqueResult result = inner->run(ctx, config);
        const double ms = 1e3 * secondsSince(t0);
        std::lock_guard<std::mutex> lock(times.mutex);
        times.ms.push_back(ms);
        return result;
    }

  private:
    TechniquePtr inner;
    RunTimes &times;
};

/**
 * One benchmark's grid through ExperimentEngine::prefetch: the
 * reference and every technique on every configuration, each
 * technique timed. The reference leads the technique list instead of
 * coming from include_reference, so it is timed too; the jobs are the
 * same, in the same order.
 */
void
runGrid(ExperimentEngine &engine, const TechniqueContext &ctx,
        const std::vector<TechniquePtr> &techniques,
        const std::vector<SimConfig> &configs, Round &round)
{
    RunTimes times;
    std::vector<TechniquePtr> timed = {std::make_shared<TimedTechnique>(
        std::make_shared<FullReference>(), times)};
    for (const TechniquePtr &technique : techniques)
        timed.push_back(std::make_shared<TimedTechnique>(technique, times));
    ScopedSpan span("engine.prefetch");
    times.parent = span.id();
    engine.prefetch(ctx, timed, configs, false);
    round.attempted += timed.size() * configs.size();
    round.reqMs.insert(round.reqMs.end(), times.ms.begin(), times.ms.end());
    round.busyS +=
        1e-3 * std::accumulate(times.ms.begin(), times.ms.end(), 0.0);
}

/**
 * Re-request every cell of one benchmark's grid on the pool (cache
 * hits, timed as the hit class) and mix each result into @p hasher in
 * grid order.
 */
void
verifyGrid(ExperimentEngine &engine, const TechniqueContext &ctx,
           const std::vector<TechniquePtr> &techniques,
           const std::vector<SimConfig> &configs, Hasher &hasher,
           Round &round)
{
    static const FullReference reference;
    std::vector<std::pair<const Technique *, const SimConfig *>> cells;
    for (const SimConfig &config : configs) {
        cells.emplace_back(&reference, &config);
        for (const TechniquePtr &technique : techniques)
            cells.emplace_back(technique.get(), &config);
    }
    std::vector<TechniqueResult> results(cells.size());
    std::vector<double> ms(cells.size());
    globalPool().parallelFor(cells.size(), [&](size_t i) {
        const auto t0 = Clock::now();
        results[i] = engine.run(*cells[i].first, ctx, *cells[i].second);
        ms[i] = 1e3 * secondsSince(t0);
    });
    round.hitMs.insert(round.hitMs.end(), ms.begin(), ms.end());
    for (const TechniqueResult &result : results)
        hashResult(hasher, result);
}

// ----------------------------------------------------------- svat_cold

class SvatCold final : public Workload
{
  public:
    SvatCold(uint64_t suite_seed, std::string dir)
        : roundDir(std::move(dir)), tableConfigs(architecturalConfigs())
    {
        benches = {"gcc", "mcf"};
        suiteCfg = suiteAt(kSvatRefInsts, suite_seed);
    }

    uint64_t
    setUp() override
    {
        buildInputs(benches, suiteCfg);
        return 0;
    }

    std::vector<TechniquePtr>
    techniques(const std::string &bench) const override
    {
        // The Figure-3 and Figure-4 legends (bench/fig3_svat_gcc.cc,
        // bench/fig4_svat_mcf.cc).
        return bench == "gcc" ? svatPermutations("gcc", 1000.0, 999.0, 1.0)
                              : svatPermutations("mcf", 4000.0, 3990.0,
                                                 10.0);
    }

    const std::vector<SimConfig> &configs() const override
    {
        return tableConfigs;
    }

    std::string cacheDir() const override { return roundDir; }

    Round
    runRound() override
    {
        Round round;
        round.workers = parallelWorkers();
        std::vector<std::vector<TechniquePtr>> perms;
        for (const std::string &bench : benches)
            perms.push_back(techniques(bench));
        freshDir(roundDir);

        EngineCliOptions cli;
        cli.cacheDir = roundDir;
        cli.shards = 4;
        ScopedSpan span("round");
        const auto t0 = Clock::now();
        auto engine =
            std::make_unique<ExperimentEngine>(engineOptionsFrom(cli));
        std::vector<TechniqueContext> ctxs;
        std::string tables;
        for (size_t b = 0; b < benches.size(); ++b) {
            {
                ScopedSpan ctx_span("engine.context");
                ctxs.push_back(engine->context(benches[b], suiteCfg));
            }
            runGrid(*engine, ctxs[b], perms[b], tableConfigs, round);
            tables += figureTable(*engine, ctxs[b], perms[b]);
        }
        round.wallS = secondsSince(t0);

        round.noteCounters(*engine);
        engine.reset();
        round.usage = cacheUsage(roundDir);
        round.cacheBytes = static_cast<double>(round.usage.bytes());
        round.filesWritten = round.usage.files();
        round.bytesWritten = round.usage.bytes();

        // A second regeneration from the now-warm cache dir: every cell
        // must be a disk hit (timed as the hit class), and the digest
        // is taken over the results as read back.
        ExperimentEngine warm(engineOptionsFrom(cli));
        Hasher hasher;
        for (size_t b = 0; b < benches.size(); ++b) {
            TechniqueContext ctx = warm.context(benches[b], suiteCfg);
            verifyGrid(warm, ctx, perms[b], tableConfigs, hasher, round);
        }
        hasher.str(tables);
        round.digest = hasher.hex();
        const uint64_t hits = warm.counters().diskHits;
        if (hits != round.attempted) {
            std::fprintf(stderr,
                         "perfbench: %llu of %llu cells were not served "
                         "from the cache dir\n",
                         static_cast<unsigned long long>(round.attempted -
                                                         hits),
                         static_cast<unsigned long long>(round.attempted));
            round.failed += round.attempted - std::min(hits, round.attempted);
        }
        return round;
    }

  private:
    /** The SvAT table BenchDriver::runSvat prints. */
    std::string
    figureTable(ExperimentEngine &engine, const TechniqueContext &ctx,
                const std::vector<TechniquePtr> &perms)
    {
        ScopedSpan span("core.svatAnalysis");
        auto points = svatAnalysis(engine, ctx, perms, tableConfigs);
        std::sort(points.begin(), points.end(),
                  [](const SvatPoint &a, const SvatPoint &b) {
                      return a.speedPct < b.speedPct;
                  });
        Table table("speed vs accuracy trade-off for " + ctx.benchmark);
        table.setHeader(
            {"technique", "permutation", "speed %", "CPI distance"});
        for (const SvatPoint &p : points) {
            table.addRow({p.technique, p.permutation,
                          Table::num(p.speedPct, 2),
                          Table::num(p.cpiDistance, 3)});
        }
        std::ostringstream text;
        table.print(text);
        return text.str();
    }

    std::string roundDir;
    std::vector<SimConfig> tableConfigs;
};

// -------------------------------------------------------- service_warm

class ServiceWarm final : public Workload
{
  public:
    ServiceWarm(uint64_t seed, uint64_t suite_seed, const std::string &dir)
        : templateDir(dir + "/template"), roundDir(dir + "/round"),
          designConfigs(
              pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false)))
    {
        benches = {"gzip", "mcf"};
        suiteCfg = suiteAt(kServiceRefInsts, suite_seed);

        // The universe: both techniques below on every PB design row,
        // per benchmark, in canonical (digest) order. Every fourth entry
        // is a disk hit on a result set-up persisted; the rest are
        // misses that replay the spilled reference traces. Both
        // techniques are detailed-simulation bound at similar cost, so
        // the misses form one latency mode and p90 does not sit on the
        // edge between two.
        for (const std::string &bench : benches) {
            for (const TechniquePtr &t : techniques(bench)) {
                for (size_t row = 0; row < designConfigs.size(); ++row) {
                    ExperimentRequest req;
                    req.benchmark = bench;
                    req.technique = t->name() == "reference"
                                        ? "reference"
                                        : t->name() + "/" + t->permutation();
                    req.config = "pb:" + std::to_string(row);
                    req.suite = suiteCfg;
                    isHit.push_back(universe.size() % 4 == 3);
                    universe.push_back(req);
                }
            }
        }
        // The seed only orders the stream.
        stream.resize(universe.size());
        std::iota(stream.begin(), stream.end(), size_t(0));
        std::mt19937_64 rng(seed);
        std::shuffle(stream.begin(), stream.end(), rng);
    }

    std::vector<TechniquePtr>
    techniques(const std::string &bench) const override
    {
        std::vector<TechniquePtr> out = {std::make_shared<FullReference>()};
        for (const TechniquePtr &t : representativePermutations(bench)) {
            if (t->name() == "SimPoint" && t->permutation() == "multiple 10M")
                out.push_back(t);
        }
        return out;
    }

    const std::vector<SimConfig> &configs() const override
    {
        return designConfigs;
    }

    std::string cacheDir() const override { return roundDir; }

    /** Populate the template cache dir with the hit-class results. */
    uint64_t
    setUp() override
    {
        freshDir(templateDir);
        EngineCliOptions cli;
        cli.cacheDir = templateDir;
        ExperimentEngine engine(engineOptionsFrom(cli));
        std::vector<size_t> hits;
        for (size_t i = 0; i < universe.size(); ++i) {
            if (isHit[i])
                hits.push_back(i);
        }
        std::atomic<uint64_t> failures{0};
        globalPool().parallelFor(hits.size(), [&](size_t k) {
            ScopedSpan span("service.executeRequest");
            ExperimentResponse rsp = executeRequest(engine, universe[hits[k]]);
            if (rsp.status != ResponseStatus::Ok && failures++ == 0)
                std::fprintf(stderr, "perfbench: set-up request failed: %s\n",
                             rsp.error.c_str());
        });
        return failures.load();
    }

    Round
    runRound() override
    {
        Round round;
        round.workers = kDaemonWorkers;
        freshDir(roundDir);
        fs::copy(templateDir, roundDir, fs::copy_options::recursive);
        // The copy is durable before timing starts, as a daemon's warm
        // cache dir is; otherwise the first result the daemon fsyncs
        // would also write back the copy.
        sync();
        const CacheUsage before = cacheUsage(roundDir);

        EngineCliOptions cli;
        cli.cacheDir = roundDir;
        ExperimentEngine engine(engineOptionsFrom(cli));
        DaemonOptions dopts;
        dopts.tcpPort = 0;
        dopts.workers = kDaemonWorkers;
        ServiceDaemon daemon(dopts, engine);
        std::string error;
        if (!daemon.start(error)) {
            std::fprintf(stderr, "perfbench: daemon start failed: %s\n",
                         error.c_str());
            round.attempted = round.failed = universe.size();
            return round;
        }
        ClientOptions copts;
        copts.tcpPort = daemon.tcpPort();
        std::vector<std::unique_ptr<ServiceClient>> clients;
        for (unsigned c = 0; c < kClients; ++c)
            clients.push_back(std::make_unique<ServiceClient>(copts));

        std::vector<ExperimentResponse> responses(universe.size());
        std::vector<double> ms(universe.size(), 0.0);
        std::vector<char> answered(universe.size(), 0);
        std::atomic<size_t> next{0};
        ScopedSpan span("round");
        const uint64_t parent = span.id();
        auto client_loop = [&](ServiceClient &client) {
            for (;;) {
                const size_t p = next.fetch_add(1);
                if (p >= stream.size())
                    return;
                const size_t i = stream[p];
                ExperimentRequest req = universe[i];
                req.id = p + 1;
                ScopedSpan call("service.call", req.id, parent);
                const auto t0 = Clock::now();
                std::string err;
                answered[i] = client.call(req, responses[i], err);
                ms[i] = 1e3 * secondsSince(t0);
            }
        };
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (auto &client : clients)
            threads.emplace_back(client_loop, std::ref(*client));
        for (std::thread &t : threads)
            t.join();
        round.wallS = secondsSince(t0);
        clients.clear();
        daemon.stop();

        round.queueDepthMax = daemon.counters().maxQueueDepth;
        round.noteCounters(engine);
        const uint64_t disk_hits = engine.counters().diskHits;
        Hasher hasher;
        for (size_t i = 0; i < universe.size(); ++i) {
            ++round.attempted;
            if (!answered[i] || responses[i].status != ResponseStatus::Ok) {
                if (round.failed++ == 0)
                    std::fprintf(stderr, "perfbench: request %s %s %s: %s\n",
                                 universe[i].benchmark.c_str(),
                                 universe[i].technique.c_str(),
                                 universe[i].config.c_str(),
                                 responses[i].error.c_str());
            }
            hashResult(hasher, responses[i].result);
            round.reqMs.push_back(ms[i]);
            if (isHit[i])
                round.hitMs.push_back(ms[i]);
            round.busyS += 1e-3 * ms[i];
        }
        round.digest = hasher.hex();
        if (disk_hits != round.hitMs.size()) {
            std::fprintf(stderr,
                         "perfbench: %llu disk hits for %zu persisted "
                         "results\n",
                         static_cast<unsigned long long>(disk_hits),
                         round.hitMs.size());
            ++round.failed;
        }
        round.usage = cacheUsage(roundDir);
        round.cacheBytes = static_cast<double>(round.usage.bytes());
        round.filesWritten = round.usage.files() - before.files();
        round.bytesWritten = round.usage.bytes() - before.bytes();
        return round;
    }

  private:
    static constexpr unsigned kDaemonWorkers = 2;
    static constexpr unsigned kClients = 2;

    std::string templateDir;
    std::string roundDir;
    std::vector<SimConfig> designConfigs;
    std::vector<ExperimentRequest> universe;
    /** Universe indices in send order. */
    std::vector<size_t> stream;
    std::vector<bool> isHit;
};

} // namespace

void
buildInputs(const std::vector<std::string> &benches,
            const SuiteConfig &suite)
{
    for (const std::string &bench : benches) {
        for (InputSet input : availableInputs(bench)) {
            ScopedSpan span("workloads.buildWorkload");
            yasim::Workload built = buildWorkload(bench, input, suite);
            (void)built;
        }
    }
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, uint64_t suite_seed,
             const std::string &work_dir)
{
    if (name == "svat_cold")
        return std::make_unique<SvatCold>(suite_seed, work_dir + "/round");
    if (name == "service_warm")
        return std::make_unique<ServiceWarm>(seed, suite_seed, work_dir);
    return nullptr;
}

} // namespace perfbench
