/**
 * @file
 * Shared declarations of the yasim regeneration benchmark (see
 * README.md in this directory): timing helpers, the in-memory span
 * tracer, result digests, cache-directory accounting, the workload
 * interface, and the per-layer probes.
 *
 * Everything here lives outside src/: spans are recorded around the
 * calls this benchmark makes into each layer's public functions, never
 * inside the library.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "sim/config.hh"
#include "support/hash.hh"
#include "techniques/technique.hh"
#include "workloads/suite.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** The @p q quantile (0..1) of @p values, nearest rank (0 when empty). */
double quantile(std::vector<double> values, double q);

/**
 * Milliseconds a fixed chain of dependent multiply-adds takes (median
 * of three). It follows the core clock of the host, which on a shared
 * host drifts with the host's load, and nothing of yasim.
 */
double clockProbeMs();

/**
 * The probe's time on a 4-vCPU x86-64 VM at its top clock. End-to-end
 * timings are reported at this clock: each is multiplied by
 * (kReferenceProbeMs / the probe time of its own process) raised to
 * kClockExponent.
 */
constexpr double kReferenceProbeMs = 20.0;

/**
 * How much faster than the probe yasim slows as a shared host gets
 * busier: a busy host lowers the core clock and also contends for the
 * caches and memory. On that VM the least-squares slope of log round
 * time on log probe time was 1.0 to 1.4 on both workloads, and an
 * exponent of 1.5 gave the smallest run-to-run spread of the round time
 * on both.
 */
constexpr double kClockExponent = 1.5;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------- spans

/** One closed span: a timed call into a layer's public function. */
struct Span
{
    uint64_t id = 0;
    /** Enclosing span (0 = root). */
    uint64_t parent = 0;
    std::string name;
    /** Seconds since the tracer's epoch. */
    double start = 0.0;
    double end = 0.0;
    /** Request id on service_warm (0 elsewhere). */
    uint64_t request = 0;
};

/**
 * Records a span from construction to destruction while tracing is
 * enabled, and costs one branch otherwise. The parent is the
 * innermost open span on this thread, or @p parent when given (pool
 * tasks pass the span that spawned them).
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name, uint64_t request = 0,
                        uint64_t parent = ~uint64_t(0));
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 when tracing is off). */
    uint64_t id() const { return span.id; }

  private:
    Span span;
};

/** Turn span recording on or off (off by default). */
void setTracing(bool enabled);

/** Every span closed so far, in closing order. */
std::vector<Span> collectSpans();

/**
 * Per-name self time: each span's duration minus the part of it that
 * its child spans cover, summed by name. Printed to @p out, and the
 * spans themselves written as JSON lines to @p path.
 */
void reportSelfTime(const std::vector<Span> &spans, std::FILE *out,
                    const std::string &path);

// -------------------------------------------------------------- digests

/**
 * Mix every simulated field of @p result into @p hasher: the
 * technique labels, CPI, the metric vector, the named SimStats
 * counters, BBEF/BBV and the modeled cost. Timing never enters.
 */
void hashResult(yasim::Hasher &hasher, const yasim::TechniqueResult &r);

// ----------------------------------------------------- cache directories

/** Bytes and files of one artifact kind in a cache directory. */
struct KindUsage
{
    uint64_t bytes = 0;
    uint64_t files = 0;
};

/** A cache directory split by artifact kind. */
struct CacheUsage
{
    KindUsage results; ///< *.result and *.reflen at the top level
    KindUsage traces;  ///< *.trace spills
    KindUsage livepoints; ///< livepoints/
    KindUsage warm;    ///< warm/ (checkpoint warm summaries)
    KindUsage other;

    uint64_t bytes() const;
    uint64_t files() const;
};

/** Walk @p dir ("" or missing = empty usage). */
CacheUsage cacheUsage(const std::string &dir);

/**
 * Read and verify every artifact under @p dir with readArtifact(),
 * choosing the frame magic by file kind. Returns the files read;
 * @p failures counts those that did not verify.
 */
uint64_t readAllArtifacts(const std::string &dir, uint64_t &failures);

/** Remove @p dir recursively (if present) and create it empty. */
void freshDir(const std::string &dir);

// ------------------------------------------------------------ workloads

/** What one timed round produced. */
struct Round
{
    double wallS = 0.0;
    /** Digest over every result of the round (plus the table text). */
    std::string digest;
    /** Grid cells or requests attempted, and those that failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Send-to-response latency of each request of the timed phase. */
    std::vector<double> reqMs;
    /**
     * Latency of each cache-served request: the disk hits on
     * service_warm and in svat_cold's warm re-run.
     */
    std::vector<double> hitMs;
    /** Bytes the round's caches hold at its end. */
    double cacheBytes = 0.0;
    CacheUsage usage;
    /** Files and bytes the round itself added to its cache dir. */
    uint64_t filesWritten = 0;
    uint64_t bytesWritten = 0;
    /** The round's engine memo lookups and trace-store activity. */
    uint64_t memoHits = 0;
    uint64_t memoMisses = 0;
    uint64_t traceRecordings = 0;
    uint64_t traceDiskLoads = 0;
    /** Executors that ran the round's technique runs. */
    unsigned workers = 1;
    /** Sum of request time (the executors' busy time). */
    double busyS = 0.0;
    /** Daemon queue high-water mark (service_warm only). */
    uint64_t queueDepthMax = 0;
    /** Peak resident set of the process that ran the round. */
    double peakRssMb = 0.0;
    /**
     * Seconds the process that ran the round spent before reporting
     * it: set-up (when it set up), the round and the round's checks.
     */
    double processS = 0.0;
    /**
     * Mean clockProbeMs() of the process that ran the round, taken
     * before and after its work.
     */
    double probeMs = kReferenceProbeMs;

    /** Factor that scales this process's timings to the reference clock. */
    double
    clockScale() const
    {
        return std::pow(kReferenceProbeMs / probeMs, kClockExponent);
    }

    /** Take the memo and trace-store counts from @p engine. */
    void noteCounters(yasim::ExperimentEngine &engine);
};

/**
 * A round and the per-layer metrics measured with it, as one line of
 * text: how the child process that ran them hands them back.
 */
std::string encodeReport(const Round &round, const Metrics &layers);

/** The inverse of encodeReport(); false on malformed text. */
bool decodeReport(const std::string &text, Round &round, Metrics &layers);

/** One benchmark workload. See README.md for why each exists. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Prepare inputs; timed by the caller as setup_s. Returns the
     * operations that failed.
     */
    virtual uint64_t setUp() = 0;

    /**
     * One timed round. With tracing on, the same calls run under
     * spans. The round's cache dir stays until the next round.
     */
    virtual Round runRound() = 0;

    /** The round's cache dir ("" for a memory-only engine). */
    virtual std::string cacheDir() const { return ""; }

    /** The benchmarks the workload regenerates. */
    const std::vector<std::string> &benchmarks() const { return benches; }

    /** The suite scaling the workload runs at. */
    const yasim::SuiteConfig &suite() const { return suiteCfg; }

    /** The techniques the workload runs on @p bench. */
    virtual std::vector<yasim::TechniquePtr>
    techniques(const std::string &bench) const = 0;

    /** The workload's configurations. */
    virtual const std::vector<yasim::SimConfig> &configs() const = 0;

  protected:
    std::vector<std::string> benches;
    yasim::SuiteConfig suiteCfg;
};

/**
 * Build the named workload with its scratch space under @p work_dir.
 * Returns nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, uint64_t suite_seed,
                                       const std::string &work_dir);

/**
 * Build every input set of @p benches under @p suite (the set-up the
 * workloads share), one span per build.
 */
void buildInputs(const std::vector<std::string> &benches,
                 const yasim::SuiteConfig &suite);

// --------------------------------------------------------------- probes

/** Sanity checks the probes made, and how many failed. */
struct ProbeOutcome
{
    uint64_t checks = 0;
    uint64_t failures = 0;
};

/**
 * Time each layer's public calls directly (traced runs only) and
 * append the per-layer metrics to @p out. Probe artifacts go under
 * @p probe_dir.
 */
ProbeOutcome runProbes(const Workload &workload, const Round &traced_round,
                       const std::string &probe_dir, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
