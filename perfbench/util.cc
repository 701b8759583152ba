/**
 * @file
 * Timing, spans, digests and cache-directory accounting for the
 * benchmark (declarations in perfbench.hh).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>

#include "engine/cache_key.hh"
#include "perfbench.hh"
#include "sim/checkpoint.hh"
#include "sim/livepoint.hh"
#include "sim/trace.hh"
#include "support/artifact_io.hh"
#include "techniques/trace_store.hh"

namespace fs = std::filesystem;

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (q == 0.5 && values.size() % 2 == 0) {
        size_t hi = values.size() / 2;
        return 0.5 * (values[hi - 1] + values[hi]);
    }
    auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// ---------------------------------------------------------------- spans

namespace {

const Clock::time_point kEpoch = Clock::now();
std::atomic<bool> tracing{false};
std::atomic<uint64_t> nextSpanId{1};
std::mutex spansMutex;
std::vector<Span> closedSpans; // guarded by spansMutex
thread_local std::vector<uint64_t> openSpans;

double
sinceEpoch()
{
    return secondsSince(kEpoch);
}

} // namespace

void
setTracing(bool enabled)
{
    tracing.store(enabled);
}

ScopedSpan::ScopedSpan(std::string name, uint64_t request,
                       uint64_t parent)
{
    if (!tracing.load(std::memory_order_relaxed))
        return;
    span.id = nextSpanId.fetch_add(1);
    span.parent = parent != ~uint64_t(0)
                      ? parent
                      : (openSpans.empty() ? 0 : openSpans.back());
    span.name = std::move(name);
    span.request = request;
    openSpans.push_back(span.id);
    span.start = sinceEpoch();
}

ScopedSpan::~ScopedSpan()
{
    if (span.id == 0)
        return;
    span.end = sinceEpoch();
    openSpans.pop_back();
    std::lock_guard<std::mutex> lock(spansMutex);
    closedSpans.push_back(std::move(span));
}

std::vector<Span>
collectSpans()
{
    std::lock_guard<std::mutex> lock(spansMutex);
    return closedSpans;
}

void
reportSelfTime(const std::vector<Span> &spans, std::FILE *out,
               const std::string &path)
{
    std::map<uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    }

    struct Agg
    {
        uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Agg> by_name;
    for (const Span &s : spans) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Children may run in parallel: cover their union, clipped
            // to the parent's interval.
            auto ivs = it->second;
            std::sort(ivs.begin(), ivs.end());
            double cur_lo = 0.0, cur_hi = -1.0;
            for (auto [lo, hi] : ivs) {
                lo = std::max(lo, s.start);
                hi = std::min(hi, s.end);
                if (hi <= lo)
                    continue;
                if (lo > cur_hi) {
                    if (cur_hi > cur_lo)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                } else {
                    cur_hi = std::max(cur_hi, hi);
                }
            }
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
        }
        Agg &agg = by_name[s.name];
        ++agg.count;
        agg.total += s.end - s.start;
        agg.self += std::max(0.0, s.end - s.start - covered);
    }

    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                  by_name.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.self > b.second.self;
    });
    std::fprintf(out, "%-28s %8s %12s %12s\n", "span (layer call)", "count",
                 "total ms", "self ms");
    for (const auto &[name, agg] : rows) {
        std::fprintf(out, "%-28s %8llu %12.1f %12.1f\n", name.c_str(),
                     static_cast<unsigned long long>(agg.count),
                     1e3 * agg.total, 1e3 * agg.self);
    }

    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        for (const Span &s : spans) {
            std::fprintf(f,
                         "{\"id\": %llu, \"parent\": %llu, \"name\": "
                         "\"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"request\": %llu}\n",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         s.name.c_str(), s.start, s.end,
                         static_cast<unsigned long long>(s.request));
        }
        std::fclose(f);
    }
}

// -------------------------------------------------------------- digests

void
hashResult(yasim::Hasher &h, const yasim::TechniqueResult &r)
{
    h.str(r.technique).str(r.permutation).d(r.cpi);
    h.u64(r.metrics.size());
    for (double v : r.metrics)
        h.d(v);
    const yasim::SimStats &s = r.detailed;
    for (uint64_t v :
         {s.instructions, s.cycles, s.condBranches, s.condMispredicts,
          s.l1iAccesses, s.l1iMisses, s.l1dAccesses, s.l1dMisses,
          s.l2Accesses, s.l2Misses, s.trivialOps, s.prefetchesIssued,
          s.memStallCycles})
        h.u64(v);
    for (const auto *profile : {&r.bbef, &r.bbv}) {
        h.u64(profile->size());
        for (double v : *profile)
            h.d(v);
    }
    h.d(r.workUnits).u64(r.detailedInsts);
}

// ----------------------------------------------------- cache directories

uint64_t
CacheUsage::bytes() const
{
    return results.bytes + traces.bytes + livepoints.bytes + warm.bytes +
           other.bytes;
}

uint64_t
CacheUsage::files() const
{
    return results.files + traces.files + livepoints.files + warm.files +
           other.files;
}

CacheUsage
cacheUsage(const std::string &dir)
{
    CacheUsage usage;
    std::error_code ec;
    if (dir.empty() || !fs::is_directory(dir, ec))
        return usage;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec || !it->is_regular_file(ec))
            continue;
        const fs::path rel = fs::relative(it->path(), dir, ec);
        const std::string top = rel.begin()->string();
        const std::string ext = it->path().extension().string();
        KindUsage *kind = &usage.other;
        if (top == "livepoints")
            kind = &usage.livepoints;
        else if (top == "warm")
            kind = &usage.warm;
        else if (ext == ".trace")
            kind = &usage.traces;
        else if (ext == ".result" || ext == ".reflen")
            kind = &usage.results;
        kind->bytes += it->file_size(ec);
        ++kind->files;
    }
    return usage;
}

uint64_t
readAllArtifacts(const std::string &dir, uint64_t &failures)
{
    uint64_t files = 0;
    std::error_code ec;
    if (dir.empty() || !fs::is_directory(dir, ec))
        return 0;
    std::vector<fs::path> paths;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (!ec && it->is_regular_file(ec))
            paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path &p : paths) {
        // The frame magics are the ones engine.cc, trace_store.cc,
        // livepoint.cc and checkpoint.cc write under.
        const std::string ext = p.extension().string();
        const char *magic = nullptr;
        uint32_t version = 0;
        if (ext == ".result") {
            magic = "yasim-result";
            version = yasim::kCacheFormatVersion;
        } else if (ext == ".reflen") {
            magic = "yasim-reflen";
            version = yasim::kCacheFormatVersion;
        } else if (ext == ".trace") {
            magic = "yasim-trace";
            version = yasim::kTraceFormatVersion;
        } else if (ext == ".lvpt") {
            magic = "yasim-lvpt";
            version = yasim::kLivePointFormatVersion;
        } else if (ext == ".ckpt") {
            magic = "yasim-ckpt";
            version = yasim::kCheckpointFormatVersion;
        } else {
            continue;
        }
        ++files;
        if (yasim::readArtifact(p.string(), magic, version).status !=
            yasim::ArtifactStatus::Ok)
            ++failures;
    }
    return files;
}

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

// --------------------------------------------------------------- rounds

void
Round::noteCounters(yasim::ExperimentEngine &engine)
{
    const yasim::EngineCounters c = engine.counters();
    memoHits = c.memoHits;
    memoMisses = c.memoMisses;
    if (const yasim::TraceStore *store = engine.traceStore()) {
        const yasim::TraceCounters t = store->counters();
        traceRecordings = t.recordings;
        traceDiskLoads = t.diskLoads;
    }
}

namespace {

/** Writes fields as space-separated tokens, doubles exactly. */
struct Writer
{
    std::ostringstream os;

    Writer() { os.precision(17); }

    template <typename T>
    void operator()(const T &value) { os << value << ' '; }
    void operator()(const std::string &s) { os << (s.empty() ? "-" : s) << ' '; }
    void
    operator()(const std::vector<double> &values)
    {
        os << values.size() << ' ';
        for (double v : values)
            os << v << ' ';
    }
};

/** Reads what Writer wrote, in the same field order. */
struct Reader
{
    std::istringstream is;

    template <typename T>
    void operator()(T &value) { is >> value; }
    void
    operator()(std::string &s)
    {
        is >> s;
        if (s == "-")
            s.clear();
    }
    void
    operator()(std::vector<double> &values)
    {
        size_t n = 0;
        is >> n;
        values.resize(is ? n : 0);
        for (double &v : values)
            is >> v;
    }
};

/** Visit every field of @p r (Round or const Round) with @p io. */
template <typename IO, typename R>
void
roundFields(IO &io, R &r)
{
    io(r.wallS);
    io(r.digest);
    io(r.attempted);
    io(r.failed);
    io(r.reqMs);
    io(r.hitMs);
    io(r.cacheBytes);
    for (auto *kind : {&r.usage.results, &r.usage.traces, &r.usage.livepoints,
                       &r.usage.warm, &r.usage.other}) {
        io(kind->bytes);
        io(kind->files);
    }
    io(r.filesWritten);
    io(r.bytesWritten);
    io(r.memoHits);
    io(r.memoMisses);
    io(r.traceRecordings);
    io(r.traceDiskLoads);
    io(r.workers);
    io(r.busyS);
    io(r.queueDepthMax);
    io(r.peakRssMb);
    io(r.processS);
    io(r.probeMs);
}

} // namespace

std::string
encodeReport(const Round &round, const Metrics &layers)
{
    Writer w;
    roundFields(w, round);
    w(layers.size());
    for (const Metric &m : layers) {
        w(m.name);
        w(m.value);
        w(m.unit);
    }
    return w.os.str();
}

bool
decodeReport(const std::string &text, Round &round, Metrics &layers)
{
    Reader r;
    r.is.str(text);
    roundFields(r, round);
    size_t n = 0;
    r(n);
    layers.assign(r.is ? n : 0, Metric());
    for (Metric &m : layers) {
        r(m.name);
        r(m.value);
        r(m.unit);
    }
    return !r.is.fail();
}

} // namespace perfbench
