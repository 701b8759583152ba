/**
 * @file
 * TraceStore: the shared execution-trace artifact class.
 *
 * One ExecTrace per (benchmark, input, suite) is recorded at most once
 * per process and shared — read-only, thread-safe — by every pooled
 * worker sweeping machine configurations over the same stream.
 * Concurrent requests for the same key collapse onto one recording
 * (the others wait), the in-memory set is bounded in bytes with LRU
 * eviction, and with a cache directory configured traces also spill to
 * disk under versioned, key-verified headers (see docs/trace.md), so a
 * repeated bench invocation performs zero functional interpretations.
 *
 * openStream() is the one call sites use: it returns a TraceReplayer
 * over the shared trace, which the replayer keeps alive. The recording
 * is the only source of architectural state for timing runs; the
 * functional interpreter runs only inside ExecTrace::record.
 */

#ifndef YASIM_TECHNIQUES_TRACE_STORE_HH
#define YASIM_TECHNIQUES_TRACE_STORE_HH

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/trace.hh"
#include "support/artifact_io.hh"
#include "support/single_flight.hh"
#include "techniques/technique.hh"
#include "workloads/suite.hh"

namespace yasim {

/** TraceStore construction knobs. */
struct TraceStoreOptions
{
    /** Spill directory; empty = in-memory only. */
    std::string cacheDir;
    /** In-memory trace budget in bytes; LRU eviction beyond it. */
    size_t maxBytes = size_t(1) << 30;
    /** Spill-directory budget in bytes (0 = unbounded); the oldest
     *  artifacts are evicted after each spill written at once to stay
     *  under it. */
    uint64_t cacheBudgetBytes = 0;
};

/** Monotonic trace-store counters (bytesInMemory is a gauge). */
struct TraceCounters
{
    /** Functional interpretations actually performed. */
    uint64_t recordings = 0;
    /**
     * Requests served by another request's recording or disk load of
     * their key: every request but those. Scheduling cannot move it.
     */
    uint64_t hits = 0;
    /**
     * The hits that waited for that recording to finish. Which
     * request gets there first is scheduling, so concurrent callers
     * see this vary between identical runs. ExperimentEngine::runAll
     * records a grid's streams before fanning it out, so a grid's
     * cells never join.
     */
    uint64_t inflightJoins = 0;
    uint64_t diskLoads = 0;
    /** Spills published under their final name. */
    uint64_t diskWrites = 0;
    uint64_t evictions = 0;
    /** Dynamic instructions captured by recordings. */
    uint64_t instsRecorded = 0;
    /** Current footprint of the in-memory set. */
    uint64_t bytesInMemory = 0;
    /** Spills that failed verification, were quarantined to
     *  "<file>.corrupt", and re-recorded. */
    uint64_t quarantined = 0;
    /** Spills written by another trace-format generation: deleted as
     *  stale (no quarantine) and re-recorded. Counted separately from
     *  quarantined so version churn never reads as corruption. */
    uint64_t versionMisses = 0;
    /** Spill reads that stayed unreadable after bounded retries. */
    uint64_t unreadable = 0;
    /** Transient-I/O retries performed by spill reads and writes. */
    uint64_t ioRetries = 0;
    /** Spill files evicted enforcing cacheBudgetBytes. */
    uint64_t budgetEvictions = 0;
};

/** Thread-safe record-once/replay-many trace cache. See file comment. */
class TraceStore
{
  public:
    explicit TraceStore(TraceStoreOptions options = {});

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /**
     * The trace for (@p benchmark, @p input, @p suite): from memory,
     * from disk, or recorded now (once, however many threads ask). A
     * new recording's spill is staged into @p batch when one is given
     * (its owner publishes it and enforces the budget), else written
     * at once.
     */
    std::shared_ptr<const ExecTrace> get(const std::string &benchmark,
                                         InputSet input,
                                         const SuiteConfig &suite,
                                         ArtifactBatch *batch = nullptr);

    /** The stream's identity: requests with equal texts share one
     *  recording. */
    std::string keyText(const std::string &benchmark, InputSet input,
                        const SuiteConfig &suite) const;

    const TraceStoreOptions &options() const { return opts; }

    /** Snapshot of the counters. */
    TraceCounters counters() const;

  private:
    struct Entry
    {
        std::shared_ptr<const ExecTrace> trace;
        size_t bytes = 0;
        std::list<std::string>::iterator lruPos;
    };

    /** Insert and LRU-evict past the byte budget. Caller holds mutex. */
    void insertLocked(const std::string &key_text,
                      std::shared_ptr<const ExecTrace> trace);

    TraceStoreOptions opts;
    /** The ".trace" spills in opts.cacheDir. */
    ArtifactDir spills;

    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
    /** LRU order, most recent first; values are entry keys. */
    std::list<std::string> lru;
    /** Streams being recorded or loaded from disk. */
    SingleFlight<std::shared_ptr<const ExecTrace>> inflight{mutex};
    /** Every field but those spills counts. */
    TraceCounters ctr;
};

/**
 * Open the instruction stream for (@p benchmark, @p input, @p suite):
 * a TraceReplayer over @p traces' recording.
 */
TraceReplayer openStream(const std::string &benchmark, InputSet input,
                         const SuiteConfig &suite, TraceStore &traces);

/**
 * Convenience overload drawing benchmark/suite/store from @p ctx;
 * a context without a trace store is a programming error.
 */
TraceReplayer openStream(const TechniqueContext &ctx, InputSet input);

} // namespace yasim

#endif // YASIM_TECHNIQUES_TRACE_STORE_HH
