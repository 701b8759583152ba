#include "techniques/trace_store.hh"

#include <sstream>

#include "support/check.hh"
#include "support/logging.hh"

namespace yasim {

namespace {

/** Inner frame magic for trace spills (see support/artifact_io.hh). */
constexpr const char *kTraceMagic = "yasim-trace";

} // namespace

TraceStore::TraceStore(TraceStoreOptions options)
    : opts(std::move(options)),
      spills(opts.cacheDir, kTraceMagic, kTraceFormatVersion, ".trace",
             opts.cacheBudgetBytes)
{
    YASIM_CHECK_GE(opts.maxBytes, size_t(1));
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
        from_disk = spills.load(key, [&](const std::string &payload) {
            std::istringstream in(payload);
            loaded = ExecTrace::read(in, key, workload.program);
            return loaded != nullptr;
        });
        return from_disk ? loaded : ExecTrace::record(workload.program);
    });
    if (joined) {
        // Another request recorded (or loaded) this stream meanwhile.
        ++ctr.hits;
        ++ctr.inflightJoins;
        return trace;
    }
    if (!from_disk) {
        ++ctr.recordings;
        ctr.instsRecorded += trace->length();
    }
    insertLocked(key, trace);
    lock.unlock();

    if (!from_disk && spills.enabled()) {
        std::ostringstream payload;
        trace->write(payload, key);
        spills.store(key, payload.str(), batch);
    }
    return trace;
}

TraceCounters
TraceStore::counters() const
{
    TraceCounters c;
    {
        std::lock_guard<std::mutex> lock(mutex);
        c = ctr;
    }
    const ArtifactDirCounters disk = spills.counters();
    c.diskLoads = disk.loads;
    c.diskWrites = disk.writes;
    c.quarantined = disk.corrupt;
    c.versionMisses = disk.versionMisses;
    c.unreadable = disk.unreadable;
    c.ioRetries = disk.ioRetries;
    c.budgetEvictions = disk.budgetEvictions;
    return c;
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
