/**
 * @file
 * The ExperimentEngine: a memoized, pooled simulation service.
 *
 * The engine is the single entry point for running techniques and
 * technique grids. Every result is memoized in memory under its full
 * content key (see cache_key.hh), deduplicating the detailed reference
 * runs that the characterizations and drivers would otherwise repeat
 * per figure; with a cache directory configured, results also persist
 * across processes in a versioned on-disk cache, so a repeated bench
 * invocation performs zero simulations. Concurrent requests for the
 * same key collapse onto one computation (the others wait), and
 * runAll() schedules a whole technique x configuration grid onto the
 * process-wide work-stealing pool. It returns the results in job
 * order, so the analysis that consumes them assembles the same table
 * whatever the schedule — byte-identical to a serial run.
 *
 * The engine implements SimulationService, so every core analysis can
 * take it as a handle; counters (printStats) account for hits, misses,
 * disk traffic, evictions, and the work units the caches saved.
 */

#ifndef YASIM_ENGINE_ENGINE_HH
#define YASIM_ENGINE_ENGINE_HH

#include <iosfwd>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/result_io.hh"
#include "support/artifact_io.hh"
#include "support/single_flight.hh"
#include "techniques/service.hh"
#include "techniques/trace_store.hh"

namespace yasim {

/** Engine construction knobs. */
struct EngineOptions
{
    /** Result-cache directory; empty = in-memory memoization only. */
    std::string cacheDir;
    /**
     * On-disk cache-directory budget in bytes (0 = unbounded;
     * --cache-budget-mb on every bench). After each artifact write,
     * and after each runAll() batch publishes, the oldest files are
     * evicted, by modification time, until the directory fits — so
     * long-lived shared cache dirs stay bounded.
     */
    uint64_t cacheBudgetBytes = 0;
    /**
     * Sharded parallel reference simulation (sim/sharded.hh),
     * stamped into every TechniqueContext the engine builds.
     */
    ShardOptions shards = {};
};

/** Monotonic engine counters (work units: see CostModel). */
struct EngineCounters
{
    uint64_t memoHits = 0;
    /**
     * Computations this engine started: each loads its result from
     * disk, runs the technique, or stops cancelled or failed.
     */
    uint64_t memoMisses = 0;
    /**
     * Requests that found their key being computed by another request
     * and waited for it: for its result, until their own cancellation,
     * or until that computation was cancelled or failed, after which
     * they compute the result themselves and count as a miss too.
     */
    uint64_t inflightJoins = 0;
    uint64_t diskHits = 0;
    /**
     * Result files published under their final name; a runAll()
     * batch's count once its barrier has returned and its renames
     * are done.
     */
    uint64_t diskWrites = 0;
    /**
     * Durability barriers issued: one syncfs per runAll() batch that
     * staged a cache write. A single run() fsyncs its own file and
     * issues none.
     */
    uint64_t diskBarriers = 0;
    uint64_t evictions = 0;
    /** Technique::run invocations that actually simulated. */
    uint64_t runsExecuted = 0;
    /** Jobs scheduled through runAll(). */
    uint64_t gridJobs = 0;
    /**
     * Result cache entries that failed verification (bad checksum,
     * truncation, unparseable payload) and were quarantined to
     * "<file>.corrupt", then recomputed.
     */
    uint64_t cacheCorrupt = 0;
    /**
     * Result cache entries written by another format generation:
     * cleanly framed, deleted as stale (no quarantine), recomputed.
     * Counted apart from cacheCorrupt so a version bump never reads as
     * data rot.
     */
    uint64_t cacheVersionMiss = 0;
    /** Cache reads that stayed unreadable after bounded retries. */
    uint64_t cacheUnreadable = 0;
    /** Transient-I/O retries performed by artifact reads and writes. */
    uint64_t ioRetries = 0;
    /** Files evicted enforcing EngineOptions::cacheBudgetBytes. */
    uint64_t budgetEvictions = 0;
    /**
     * Technique runs that stopped at a cancellation poll (explicit
     * cancel or deadline). Their partial work units are still charged
     * to workUnitsComputed; their results are never memoized, cached,
     * or returned.
     */
    uint64_t runsCancelled = 0;
    /**
     * Disk-cache writes skipped because the request was cancelled by
     * the time the result would have been published (or the
     * "engine.cancel.write" failpoint fired). The write is never
     * staged, so an abort leaves no file at all — never a torn one.
     */
    uint64_t cacheWritesAborted = 0;
    /**
     * Temps of writers that were no longer running, removed when this
     * engine opened its cache directory.
     */
    uint64_t staleTempsReclaimed = 0;
    double workUnitsComputed = 0.0;
    double workUnitsSaved = 0.0;
};

/** Memoized, pooled simulation service. See file comment. */
class ExperimentEngine : public SimulationService
{
  public:
    explicit ExperimentEngine(EngineOptions options = {});
    ~ExperimentEngine() override;

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /** Memoized (and disk-cached) technique result. */
    TechniqueResult run(const Technique &technique,
                        const TechniqueContext &ctx,
                        const SimConfig &config) override;

    /** TechniqueContext::make through this engine. */
    TechniqueContext context(const std::string &benchmark,
                             const SuiteConfig &suite);

    /**
     * Every job's result, in job order, computed on the work-stealing
     * pool. The streams that uncached jobs replay are recorded first,
     * one request each, so no job waits on another's recording. Jobs
     * that share a result key are computed once: the first runs in the
     * fan-out, and the later ones are filled afterwards as memo hits,
     * each with its own technique's labels.
     *
     * With a cache directory, the batch's writes — each computed
     * result and each stream the pre-pass records — are staged, and
     * one syncfs barrier on the directory makes them durable before
     * they are renamed into place. That happens before runAll returns
     * (or throws); a batch that staged nothing issues no barrier.
     */
    std::vector<TechniqueResult>
    runAll(const std::vector<GridJob> &jobs) override;

    /**
     * runAll() over every technique on every configuration, plus —
     * when @p include_reference — the full reference run per
     * configuration, discarding the results. Only perfbench's grid
     * workload calls it.
     */
    void prefetch(const TechniqueContext &ctx,
                  const std::vector<TechniquePtr> &techniques,
                  const std::vector<SimConfig> &configs,
                  bool include_reference = true);

    const EngineOptions &options() const { return opts; }

    /** The shared trace store (never null). */
    TraceStore *traceStore() override { return &traces; }

    /** Snapshot of the counters. */
    EngineCounters counters() const;

    /** Render the counters and pool statistics as a Table. */
    void printStats(std::ostream &os) const;

    /**
     * The counters and pool statistics as a versioned JsonReport of
     * kind "engine-stats" (--engine-stats-json, yasimd `stats`).
     */
    JsonReport statsReport() const;

    /**
     * Stamp the counter fields of statsReport() into @p report —
     * emitters that wrap the engine (the service daemon) merge them
     * into their own reports this way.
     */
    void appendCounters(JsonReport &report) const;

  private:
    struct MemoEntry
    {
        TechniqueResult result;
        std::list<std::string>::iterator lruPos;
    };

    /**
     * Memoized lookup-or-compute; labels not yet normalized. A
     * computed result's cache write is staged into @p batch when one
     * is given, else written at once.
     */
    TechniqueResult fetch(const Technique &technique,
                          const TechniqueContext &ctx,
                          const SimConfig &config, ArtifactBatch *batch);
    /**
     * technique.run(), charging a cancelled run's partial work before
     * its CancelledError propagates.
     */
    TechniqueResult simulate(const Technique &technique,
                             const TechniqueContext &ctx,
                             const SimConfig &config);

    /** Insert into the memo table and evict past the bound. Locked. */
    void memoInsert(const std::string &key_text,
                    const TechniqueResult &result);

    EngineOptions opts;
    /** Shared execution-trace store. */
    TraceStore traces;
    /** The ".result" files in opts.cacheDir. */
    ArtifactDir resultFiles;

    mutable std::mutex mutex;
    std::unordered_map<std::string, MemoEntry> memo;
    /** LRU order, most recent first; values are memo keys. */
    std::list<std::string> lru;
    /**
     * Results being computed. A joiner of a cancelled computation
     * computes in its place: the cancellation was not its own.
     */
    SingleFlight<TechniqueResult> inflight{mutex};
    /** Every field but those resultFiles counts. */
    EngineCounters ctr;
};

} // namespace yasim

#endif // YASIM_ENGINE_ENGINE_HH
