#include "engine/engine.hh"

#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <variant>

#include "engine/cache_key.hh"
#include "engine/result_io.hh"
#include "support/check.hh"
#include "support/failpoint.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "techniques/full_reference.hh"

namespace yasim {

namespace {

/** Inner frame magic for the engine's result artifacts. */
constexpr char kResultMagic[] = "yasim-result";
/** Memo-table bound; least-recently-used entries evict beyond it. */
constexpr size_t kMaxMemoEntries = size_t(1) << 16;

/**
 * @p result under @p technique's display labels. The cache key
 * deliberately ignores them (a SimPoint labelled "max_k=30" and one
 * labelled "dim=15" with identical parameters share a key), so every
 * result is restamped with the requesting technique's labels before
 * it is handed back.
 */
TechniqueResult
relabel(TechniqueResult result, const Technique &technique)
{
    result.technique = technique.name();
    result.permutation = technique.permutation();
    return result;
}

} // namespace

ExperimentEngine::ExperimentEngine(EngineOptions options)
    : opts(std::move(options)),
      traces(TraceStoreOptions{.cacheDir = opts.cacheDir,
                               .cacheBudgetBytes = opts.cacheBudgetBytes}),
      resultFiles(opts.cacheDir, kResultMagic, kCacheFormatVersion,
                  ".result", opts.cacheBudgetBytes)
{
    ctr.staleTempsReclaimed = resultFiles.reclaimStaleTemps();
}

ExperimentEngine::~ExperimentEngine() = default;

void
ExperimentEngine::memoInsert(const std::string &key_text,
                             const TechniqueResult &result)
{
    auto it = memo.find(key_text);
    if (it != memo.end())
        return;
    lru.push_front(key_text);
    memo.emplace(key_text, MemoEntry{result, lru.begin()});
    while (memo.size() > kMaxMemoEntries) {
        YASIM_CHECK(!lru.empty(),
                    "memo table and LRU list out of sync "
                    "(%zu entries over a bound of %zu)",
                    memo.size(), kMaxMemoEntries);
        memo.erase(lru.back());
        lru.pop_back();
        ++ctr.evictions;
    }
    YASIM_DCHECK_EQ(memo.size(), lru.size());
}

TechniqueResult
ExperimentEngine::run(const Technique &technique,
                      const TechniqueContext &ctx,
                      const SimConfig &config)
{
    return relabel(fetch(technique, ctx, config, nullptr), technique);
}

TechniqueResult
ExperimentEngine::fetch(const Technique &technique,
                        const TechniqueContext &ctx,
                        const SimConfig &config, ArtifactBatch *batch)
{
    const std::string key = resultCacheKey(technique, ctx, config);

    std::unique_lock<std::mutex> lock(mutex);
    auto it = memo.find(key);
    if (it != memo.end()) {
        ++ctr.memoHits;
        ctr.workUnitsSaved += it->second.result.workUnits;
        lru.splice(lru.begin(), lru, it->second.lruPos);
        return it->second.result;
    }
    // A request that finds its key in flight waits for it; any other
    // computes it.
    const bool waits = inflight.running(key);
    if (waits)
        ++ctr.inflightJoins;
    else
        ++ctr.memoMisses;

    bool from_disk = false;
    auto [result, joined] = inflight.run(lock, key, ctx.cancel, [&] {
        if (waits) {
            // The computation it waited for was cancelled or failed.
            std::lock_guard<std::mutex> guard(mutex);
            ++ctr.memoMisses;
        }
        TechniqueResult computed;
        from_disk = resultFiles.load(key, [&](const std::string &payload) {
            return readResult(payload, key, computed);
        });
        if (!from_disk)
            computed = simulate(technique, ctx, config);
        return computed;
    });
    if (joined) {
        ctr.workUnitsSaved += result.workUnits;
        return std::move(result);
    }
    if (from_disk) {
        ctr.workUnitsSaved += result.workUnits;
    } else {
        ++ctr.runsExecuted;
        ctr.workUnitsComputed += result.workUnits;
    }
    memoInsert(key, result);
    lock.unlock();

    if (!from_disk && resultFiles.enabled()) {
        if (ctx.cancel.cancelled() ||
            failpoint::fire("engine.cancel.write")) {
            // Cancelled between completion and publish: abort the
            // write outright, before anything is staged, so no file
            // exists either way; the next process recomputes.
            lock.lock();
            ++ctr.cacheWritesAborted;
        } else {
            std::ostringstream payload;
            writeResult(payload, key, result);
            resultFiles.store(key, payload.str(), batch);
        }
    }
    return std::move(result);
}

TechniqueResult
ExperimentEngine::simulate(const Technique &technique,
                           const TechniqueContext &ctx,
                           const SimConfig &config)
{
    try {
        if (ctx.cancel.cancelled()) {
            // Cancelled before the run started: nothing to charge.
            CancelledError err;
            err.cause = ctx.cancel.cause();
            throw err;
        }
        return technique.run(ctx, config);
    } catch (const CancelledError &err) {
        // Partial work was really performed: charge it. The partial
        // result is never memoized.
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.runsCancelled;
        ctr.workUnitsComputed += err.partialWorkUnits;
        throw;
    }
}

TechniqueContext
ExperimentEngine::context(const std::string &benchmark,
                          const SuiteConfig &suite)
{
    TechniqueContext ctx = TechniqueContext::make(benchmark, suite, *this);
    ctx.shards = opts.shards;
    return ctx;
}

std::vector<TechniqueResult>
ExperimentEngine::runAll(const std::vector<GridJob> &jobs)
{
    // Only the first job of each result key runs in the fan-out: two
    // jobs of one key running at once would make one wait on the other,
    // and the split between memo hits and in-flight joins would depend
    // on scheduling. Record each stream the uncached keys replay before
    // the grid fans out, one request per stream, so no job waits on
    // another job's recording either. A key counts as cached when its
    // result is memoized or has a file on disk.
    std::set<std::string> keys, seen;
    std::vector<size_t> computed, repeated;
    std::vector<const GridJob *> streams;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const GridJob &job = jobs[i];
        YASIM_CHECK(job.technique && job.ctx && job.config,
                    "runAll job %zu has null pointees", i);
        const std::string key =
            resultCacheKey(*job.technique, *job.ctx, *job.config);
        if (!keys.insert(key).second) {
            repeated.push_back(i);
            continue;
        }
        computed.push_back(i);
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (memo.count(key))
                continue;
        }
        if (resultFiles.contains(key))
            continue;
        if (seen.insert(traces.keyText(job.ctx->benchmark,
                                       job.technique->input(),
                                       job.ctx->suite))
                .second)
            streams.push_back(&job);
    }

    // The batch's cache writes are staged and published together: one
    // barrier instead of an fsync per file.
    std::optional<ArtifactBatch> batch;
    if (resultFiles.enabled())
        batch.emplace(opts.cacheDir);
    ArtifactBatch *staging = batch ? &*batch : nullptr;

    std::vector<TechniqueResult> results(jobs.size());
    try {
        globalPool().parallelFor(streams.size(), [&](size_t i) {
            const GridJob &job = *streams[i];
            traces.get(job.ctx->benchmark, job.technique->input(),
                       job.ctx->suite, staging);
        });

        {
            std::lock_guard<std::mutex> lock(mutex);
            ctr.gridJobs += jobs.size();
        }
        globalPool().parallelFor(computed.size(), [&](size_t d) {
            const GridJob &job = jobs[computed[d]];
            results[computed[d]] = relabel(
                fetch(*job.technique, *job.ctx, *job.config, staging),
                *job.technique);
        });
    } catch (...) {
        // What the finished jobs staged is published all the same, as
        // their own writes would have been.
        if (staging)
            resultFiles.publish(*staging);
        throw;
    }
    if (staging)
        resultFiles.publish(*staging);
    // A later job of a computed key reads it back as a memo hit under
    // its own labels, as it would if the jobs ran one by one.
    for (size_t i : repeated)
        results[i] = run(*jobs[i].technique, *jobs[i].ctx, *jobs[i].config);
    return results;
}

void
ExperimentEngine::prefetch(const TechniqueContext &ctx,
                           const std::vector<TechniquePtr> &techniques,
                           const std::vector<SimConfig> &configs,
                           bool include_reference)
{
    static const FullReference reference;
    std::vector<GridJob> jobs;
    jobs.reserve((techniques.size() + 1) * configs.size());
    for (const SimConfig &config : configs) {
        if (include_reference)
            jobs.push_back({&reference, &ctx, &config});
        for (const TechniquePtr &technique : techniques)
            jobs.push_back({technique.get(), &ctx, &config});
    }
    runAll(jobs);
}

EngineCounters
ExperimentEngine::counters() const
{
    EngineCounters c;
    {
        std::lock_guard<std::mutex> lock(mutex);
        c = ctr;
    }
    const ArtifactDirCounters disk = resultFiles.counters();
    c.diskHits = disk.loads;
    c.diskWrites = disk.writes;
    c.diskBarriers = disk.barriers;
    c.cacheCorrupt = disk.corrupt;
    c.cacheVersionMiss = disk.versionMisses;
    c.cacheUnreadable = disk.unreadable;
    c.ioRetries = disk.ioRetries;
    c.budgetEvictions = disk.budgetEvictions;
    return c;
}

namespace {

/**
 * One engine statistic: its table label, its JSON name and its value.
 * A row with no label is a section rule, which only the table draws.
 */
struct StatRow
{
    const char *label = nullptr;
    const char *json = nullptr;
    /** A count, a real number, or a percentage that may be undefined. */
    std::variant<uint64_t, double, std::optional<double>> value;
};

/** Every engine statistic, in the order both renderings list them. */
std::vector<StatRow>
statRows(const EngineCounters &c, const TraceCounters &t)
{
    const ThreadPool::Stats pool = globalPool().stats();
    const double total = c.workUnitsComputed + c.workUnitsSaved;
    std::optional<double> saved_pct;
    if (total > 0.0)
        saved_pct = 100.0 * c.workUnitsSaved / total;
    return {
        {"memo hits", "memo_hits", c.memoHits},
        {"memo misses", "memo_misses", c.memoMisses},
        {"in-flight joins", "inflight_joins", c.inflightJoins},
        {"disk hits", "disk_hits", c.diskHits},
        {"disk writes", "disk_writes", c.diskWrites},
        {"disk barriers", "disk_barriers", c.diskBarriers},
        {"evictions", "evictions", c.evictions},
        {"technique runs executed", "runs_executed", c.runsExecuted},
        {"work units computed", "work_units_computed",
         c.workUnitsComputed},
        {"work units saved by caches", "work_units_saved",
         c.workUnitsSaved},
        {"work saved", "work_saved_pct", saved_pct},
        {"grid jobs scheduled", "grid_jobs", c.gridJobs},
        {"cache corrupt (quarantined)", "cache_corrupt", c.cacheCorrupt},
        {"cache version misses", "cache_version_misses",
         c.cacheVersionMiss},
        {"cache unreadable", "cache_unreadable", c.cacheUnreadable},
        {"artifact io retries", "io_retries", c.ioRetries},
        {"cache budget evictions", "budget_evictions", c.budgetEvictions},
        {"runs cancelled", "runs_cancelled", c.runsCancelled},
        {"cache writes aborted", "cache_writes_aborted",
         c.cacheWritesAborted},
        {"stale temps reclaimed", "stale_temps_reclaimed",
         c.staleTempsReclaimed},
        {},
        {"trace recordings", "trace_recordings", t.recordings},
        {"trace hits", "trace_hits", t.hits},
        {"trace in-flight joins", "trace_inflight_joins", t.inflightJoins},
        {"trace disk loads", "trace_disk_loads", t.diskLoads},
        {"trace disk writes", "trace_disk_writes", t.diskWrites},
        {"trace evictions", "trace_evictions", t.evictions},
        {"trace insts recorded", "trace_insts_recorded", t.instsRecorded},
        {"trace bytes in memory", "trace_bytes_in_memory",
         t.bytesInMemory},
        {"trace quarantined", "trace_quarantined", t.quarantined},
        {"trace version misses", "trace_version_misses", t.versionMisses},
        {"trace unreadable", "trace_unreadable", t.unreadable},
        {"trace io retries", "trace_io_retries", t.ioRetries},
        {"trace budget evictions", "trace_budget_evictions",
         t.budgetEvictions},
        {},
        {"pool workers", "pool_workers",
         uint64_t(globalPool().workerThreads()) + 1},
        {"pool batches", "pool_batches", pool.batches},
        {"pool tasks", "pool_tasks", pool.tasks},
        {"pool caller tasks", "pool_caller_tasks", pool.callerTasks},
        {"pool steals", "pool_steals", pool.steals},
    };
}

} // namespace

void
ExperimentEngine::printStats(std::ostream &os) const
{
    Table table("ExperimentEngine statistics");
    table.setHeader({"counter", "value"});
    for (const StatRow &row : statRows(counters(), traces.counters())) {
        if (!row.label) {
            table.addRule();
            continue;
        }
        std::string cell = "-";
        if (const uint64_t *n = std::get_if<uint64_t>(&row.value))
            cell = Table::count(*n);
        else if (const double *x = std::get_if<double>(&row.value))
            cell = Table::num(*x, 0);
        else if (const auto &pct = std::get<std::optional<double>>(row.value))
            cell = Table::pct(*pct, 1);
        table.addRow({row.label, cell});
    }
    table.print(os);
}

JsonReport
ExperimentEngine::statsReport() const
{
    JsonReport report("engine-stats");
    appendCounters(report);
    return report;
}

void
ExperimentEngine::appendCounters(JsonReport &report) const
{
    for (const StatRow &row : statRows(counters(), traces.counters())) {
        if (!row.label)
            continue;
        if (const uint64_t *n = std::get_if<uint64_t>(&row.value))
            report.setCount(row.json, *n);
        else if (const double *x = std::get_if<double>(&row.value))
            report.setNumber(row.json, *x);
        else
            report.setNumber(
                row.json,
                std::get<std::optional<double>>(row.value).value_or(0.0));
    }
}

} // namespace yasim
