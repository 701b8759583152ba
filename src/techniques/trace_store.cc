#include "techniques/trace_store.hh"

#include <filesystem>
#include <sstream>

#include "support/artifact_io.hh"
#include "support/check.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace yasim {

namespace fs = std::filesystem;

namespace {

/** Inner frame magic for trace spills (see support/artifact_io.hh). */
constexpr const char *kTraceMagic = "yasim-trace";

} // namespace

TraceStore::TraceStore(TraceStoreOptions options)
    : opts(std::move(options))
{
    YASIM_CHECK_GE(opts.maxBytes, size_t(1));
    if (!opts.cacheDir.empty()) {
        std::error_code ec;
        fs::create_directories(opts.cacheDir, ec);
        if (ec)
            fatal("cannot create cache directory '%s': %s",
                  opts.cacheDir.c_str(), ec.message().c_str());
    }
}

std::string
TraceStore::keyText(const std::string &benchmark, InputSet input,
                    const SuiteConfig &suite) const
{
    return csprintf("yasim-trace|v%d|bench=%s|input=%s|"
                    "ref=%llu,seed=%llu",
                    kTraceFormatVersion, benchmark.c_str(),
                    inputSetName(input),
                    (unsigned long long)suite.referenceInstructions,
                    (unsigned long long)suite.seed);
}

std::string
TraceStore::diskPath(const std::string &key_text) const
{
    Hasher h;
    h.str(key_text);
    return (fs::path(opts.cacheDir) / (h.hex() + ".trace")).string();
}

std::shared_ptr<const ExecTrace>
TraceStore::loadFromDisk(const std::string &key_text,
                         const Program &program)
{
    const std::string path = diskPath(key_text);
    ArtifactReadResult read =
        readArtifact(path, kTraceMagic, kTraceFormatVersion);
    if (read.retries) {
        std::lock_guard<std::mutex> lock(mutex);
        ctr.ioRetries += read.retries;
    }
    if (read.status == ArtifactStatus::Missing)
        return nullptr;
    if (read.status == ArtifactStatus::VersionMismatch) {
        // Stale spill from another trace-format generation: the frame
        // verified (no rot), readArtifact already deleted the file.
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.versionMisses;
        warn("trace cache entry '%s' is from another format generation "
             "(%s); removed and re-recording",
             path.c_str(), read.error.c_str());
        return nullptr;
    }
    if (read.status != ArtifactStatus::Ok) {
        std::lock_guard<std::mutex> lock(mutex);
        if (read.status == ArtifactStatus::Corrupt)
            ++ctr.quarantined;
        warn("trace cache entry '%s' unusable (%s); re-recording",
             path.c_str(), read.error.c_str());
        return nullptr;
    }

    std::istringstream payload(read.payload);
    std::shared_ptr<const ExecTrace> trace =
        ExecTrace::read(payload, key_text, program);
    if (!trace) {
        // The frame verified, so the payload we wrote is intact — this
        // is a key/version mismatch or payload-level rot. Either way it
        // can never satisfy a future lookup: quarantine and re-record.
        quarantineArtifact(path);
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.quarantined;
        warn("trace cache entry '%s' failed payload verification; "
             "quarantined and re-recording",
             path.c_str());
    }
    return trace;
}

void
TraceStore::spillToDisk(const std::string &key_text, const ExecTrace &trace,
                        ArtifactBatch *batch)
{
    const std::string path = diskPath(key_text);
    std::ostringstream payload;
    trace.write(payload, key_text);
    // A staged spill counts once its batch publishes it; the batch's
    // owner enforces the budget then.
    auto published = [this] {
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.diskWrites;
    };
    const ArtifactWriteResult wrote =
        batch ? batch->stage(path, kTraceMagic, kTraceFormatVersion,
                             payload.str(), published)
              : writeArtifact(path, kTraceMagic, kTraceFormatVersion,
                              payload.str());
    uint64_t evicted = 0;
    if (wrote.ok && !batch && opts.cacheBudgetBytes)
        evicted = evictToBudget(opts.cacheDir, opts.cacheBudgetBytes);
    {
        std::lock_guard<std::mutex> lock(mutex);
        ctr.ioRetries += wrote.retries;
        ctr.budgetEvictions += evicted;
    }
    if (!wrote.ok) {
        warn("cannot publish trace cache file '%s': %s", path.c_str(),
             wrote.error.c_str());
        return;
    }
    if (!batch)
        published();
}

void
TraceStore::insertLocked(const std::string &key_text,
                         std::shared_ptr<const ExecTrace> trace)
{
    if (entries.count(key_text))
        return;
    const size_t bytes = trace->footprintBytes();
    lru.push_front(key_text);
    entries.emplace(key_text,
                    Entry{std::move(trace), bytes, lru.begin()});
    ctr.bytesInMemory += bytes;

    // Evict least-recently-used traces past the byte budget — but only
    // traces nobody is replaying right now (the map's reference is the
    // last one), and never the entry just inserted.
    auto it = lru.end();
    while (ctr.bytesInMemory > opts.maxBytes && it != lru.begin()) {
        --it;
        if (*it == key_text)
            continue;
        auto eit = entries.find(*it);
        YASIM_CHECK(eit != entries.end(),
                    "LRU key '%s' missing from the trace map",
                    it->c_str());
        if (eit->second.trace.use_count() > 1)
            continue;
        ctr.bytesInMemory -= eit->second.bytes;
        ++ctr.evictions;
        entries.erase(eit);
        it = lru.erase(it);
    }
}

std::shared_ptr<const ExecTrace>
TraceStore::get(const std::string &benchmark, InputSet input,
                const SuiteConfig &suite, ArtifactBatch *batch)
{
    const std::string key = keyText(benchmark, input, suite);

    std::unique_lock<std::mutex> lock(mutex);
    auto it = entries.find(key);
    if (it != entries.end()) {
        ++ctr.hits;
        lru.splice(lru.begin(), lru, it->second.lruPos);
        return it->second.trace;
    }

    bool from_disk = false;
    auto [trace, joined] = inflight.run(lock, key, CancelToken(), [&] {
        Workload workload = buildWorkload(benchmark, input, suite);
        std::shared_ptr<const ExecTrace> loaded;
        if (!opts.cacheDir.empty())
            loaded = loadFromDisk(key, workload.program);
        from_disk = loaded != nullptr;
        return from_disk ? loaded : ExecTrace::record(workload.program);
    });
    if (joined) {
        // Another request recorded (or loaded) this stream meanwhile.
        ++ctr.hits;
        ++ctr.inflightJoins;
        return trace;
    }
    if (from_disk) {
        ++ctr.diskLoads;
    } else {
        ++ctr.recordings;
        ctr.instsRecorded += trace->length();
    }
    insertLocked(key, trace);
    lock.unlock();

    if (!from_disk && !opts.cacheDir.empty())
        spillToDisk(key, *trace, batch);
    return trace;
}

TraceCounters
TraceStore::counters() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return ctr;
}

TraceReplayer
openStream(const std::string &benchmark, InputSet input,
           const SuiteConfig &suite, TraceStore &traces)
{
    return TraceReplayer(traces.get(benchmark, input, suite));
}

TraceReplayer
openStream(const TechniqueContext &ctx, InputSet input)
{
    YASIM_CHECK(ctx.traces != nullptr,
                "technique context for '%s' has no trace store "
                "(build it with TechniqueContext::make)",
                ctx.benchmark.c_str());
    return openStream(ctx.benchmark, input, ctx.suite, *ctx.traces);
}

} // namespace yasim
