#include "sim/livepoint.hh"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "support/check.hh"
#include "support/codec.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"
#include "uarch/warm_state.hh"

namespace yasim {

namespace {

/** Inner frame magic for standalone live-point files. */
constexpr const char *kLivePointMagic = "yasim-lvpt";

/** Mix @p program's full content — the stream identity. */
void
hashProgram(Hasher &h, const Program &program)
{
    h.u64(program.size());
    const Instruction *code = program.code();
    for (uint64_t i = 0; i < program.size(); ++i) {
        const Instruction &inst = code[i];
        h.u32(static_cast<uint32_t>(inst.op));
        h.u32(static_cast<uint32_t>(inst.rd));
        h.u32(static_cast<uint32_t>(inst.rs1));
        h.u32(static_cast<uint32_t>(inst.rs2));
        h.u64(static_cast<uint64_t>(inst.imm));
    }
}

/**
 * Digest of everything a point's warm state depends on besides its
 * position: the live-point and warm-state format versions, the
 * program's full content, and the warm-relevant (table-shaping)
 * configuration. Timing-only parameters are excluded, so a latency
 * sweep shares one set of warm states.
 */
// yasim-lint: key(warm) covers CacheConfig(uarch/cache.hh)
// yasim-lint: key(warm) covers BranchPredictorConfig(uarch/branch_predictor.hh)
// yasim-lint: key(warm) covers MemoryConfig(uarch/memory_hierarchy.hh)
// yasim-lint: key(warm) covers SimConfig(sim/config.hh)
std::string
warmIdentityDigest(const Program &program, const SimConfig &config)
{
    Hasher h;
    h.u32(kLivePointFormatVersion);
    h.u32(kWarmStateFormatVersion);
    hashProgram(h, program);

    auto cache = [&h](const CacheConfig &c) {
        h.u32(c.sizeKb).u32(c.assoc).u32(c.blockBytes);
        h.u32(static_cast<uint32_t>(c.replacement));
    };
    cache(config.mem.l1i);
    cache(config.mem.l1d);
    cache(config.mem.l2);
    h.u32(config.mem.itlbEntries).u32(config.mem.dtlbEntries);
    h.b(config.mem.nextLinePrefetch);

    h.u32(static_cast<uint32_t>(config.bp.kind));
    h.u32(config.bp.bhtEntries).u32(config.bp.globalHistoryBits);
    h.u32(config.bp.btbEntries).u32(config.bp.btbAssoc);
    h.b(config.bp.speculativeUpdate);

    return h.hex();
}

/**
 * Identity of one live-point library: the "livepoints{...}" cache-key
 * segment. Everything that shapes a point's bytes is in here — the
 * sampling grid plus warmIdentityDigest's format versions, program
 * content, and warm-relevant configuration.
 */
// yasim-lint: key(livepoint) covers SamplingPlan(sim/sampling.hh)
std::string
livePointLibraryKey(const Program &program, const SamplingPlan &plan,
                    const SimConfig &config)
{
    return csprintf(
        "livepoints{v=%u|u=%llu|w=%llu|len=%llu|p=%llu|n=%llu|id=%s}",
        kLivePointFormatVersion,
        static_cast<unsigned long long>(plan.unitInsts),
        static_cast<unsigned long long>(plan.warmupInsts),
        static_cast<unsigned long long>(plan.length),
        static_cast<unsigned long long>(plan.period),
        static_cast<unsigned long long>(plan.maxUnits),
        warmIdentityDigest(program, config).c_str());
}

} // namespace

LivePoint
LivePoint::atPosition(uint64_t position)
{
    LivePoint p;
    p.icount = position;
    return p;
}

void
LivePoint::attachUarch(const MemoryHierarchy &mem,
                       const CombinedPredictor &bp, const std::string &key)
{
    std::ostringstream os;
    mem.serializeWarmState(os);
    bp.serializeWarmState(os);
    warmBlob = os.str();
    warmKey = key;
}

bool
LivePoint::restoreUarch(MemoryHierarchy &mem, CombinedPredictor &bp,
                        const std::string &key) const
{
    if (warmBlob.empty() || key != warmKey)
        return false;
    std::istringstream is(warmBlob);
    if (!mem.deserializeWarmState(is) || !bp.deserializeWarmState(is))
        return false;
    // Trailing bytes mean the blob was produced by a different layout
    // that happened to parse; refuse it.
    return is.peek() == std::istringstream::traits_type::eof();
}

size_t
LivePoint::footprintBytes() const
{
    return sizeof(*this) + warmKey.size() + warmBlob.size();
}

// yasim-lint: serialized(livepoint)
std::string
LivePoint::encode() const
{
    std::string out;
    putVarint(out, icount);
    out.push_back(hasUarch() ? 1 : 0);
    if (hasUarch()) {
        putVarint(out, warmKey.size());
        out.append(warmKey);
        // The warm blob is table-shaped (long zero and LRU runs) and
        // compresses well under the self-delimiting byte RLE.
        putVarint(out, warmBlob.size());
        std::string rle;
        rleEncode(warmBlob, rle);
        putVarint(out, rle.size());
        out.append(rle);
    }
    return out;
}

// yasim-lint: serialized(livepoint)
bool
LivePoint::decode(std::string_view payload, LivePoint &out)
{
    out = LivePoint();
    size_t at = 0;
    if (!getVarint(payload, at, out.icount) || at >= payload.size())
        return false;
    const bool has_warm = payload[at++] != 0;
    if (has_warm) {
        uint64_t key_len = 0, raw_len = 0, rle_len = 0;
        if (!getVarint(payload, at, key_len) || key_len > 4096 ||
            payload.size() - at < key_len) {
            return false;
        }
        out.warmKey.assign(payload.substr(at, key_len));
        at += key_len;
        // Bounded at orders of magnitude above any real table
        // geometry.
        if (!getVarint(payload, at, raw_len) ||
            raw_len > (256ULL << 20)) {
            return false;
        }
        if (!getVarint(payload, at, rle_len) ||
            payload.size() - at < rle_len) {
            return false;
        }
        out.warmBlob.reserve(raw_len);
        if (!rleDecode(payload.substr(at, rle_len), out.warmBlob,
                       raw_len) ||
            out.warmBlob.size() != raw_len) {
            return false;
        }
        at += rle_len;
        if (out.warmBlob.empty())
            return false;
    }
    return at == payload.size();
}

LivePointLibrary::LivePointLibrary(std::shared_ptr<const ExecTrace> trace_,
                                   const SamplingPlan &plan,
                                   const SimConfig &config,
                                   const LivePointOptions &options)
    : trace(std::move(trace_)), gridPlan(plan), cfg(config),
      files(options.dir, kLivePointMagic, kLivePointFormatVersion, ".lvpt",
            0)
{
    YASIM_CHECK(trace != nullptr, "live-point library needs a trace");
    key = livePointLibraryKey(trace->program(), gridPlan, cfg);
}

std::string
LivePointLibrary::pointKey(uint64_t index) const
{
    return key + "#" + std::to_string(gridPlan.warmStart(index));
}

std::string
LivePointLibrary::pointPath(uint64_t index) const
{
    return files.enabled() ? files.path(pointKey(index)) : "";
}

LivePointCounters
LivePointLibrary::counters() const
{
    LivePointCounters c = ctr;
    const ArtifactDirCounters disk = files.counters();
    c.diskLoads = disk.loads;
    c.diskWrites = disk.writes;
    c.quarantined = disk.corrupt;
    c.versionMisses = disk.versionMisses;
    c.unreadable = disk.unreadable;
    c.ioRetries = disk.ioRetries;
    return c;
}

const LivePoint *
LivePointLibrary::at(uint64_t index) const
{
    auto it = points.find(index);
    return it == points.end() ? nullptr : &it->second;
}

bool
LivePointLibrary::decodePoint(uint64_t index, std::string_view payload,
                              LivePoint &out) const
{
    if (!LivePoint::decode(payload, out))
        return false;
    // Identity and shape: the file name's digest pins program/plan/
    // config, so a point that disagrees with its own position or warm
    // identity is damaged in a way the frame checksum could not see.
    if (out.position() > gridPlan.warmStart(index) || !out.hasUarch() ||
        out.uarchKey() != pointKey(index)) {
        return false;
    }
    // Trial-restore the warm blob into scratch tables: a structurally
    // bad blob must surface here (heal by rebuild), never as a failed
    // CHECK inside a measurement worker.
    MemoryHierarchy scratch_mem(cfg.mem);
    CombinedPredictor scratch_bp(cfg.bp);
    return out.restoreUarch(scratch_mem, scratch_bp, pointKey(index));
}

void
LivePointLibrary::buildPoints(const std::vector<uint64_t> &missing,
                              const CancelToken &cancel)
{
    MemoryHierarchy warm_mem(cfg.mem);
    CombinedPredictor warm_bp(cfg.bp);
    uint64_t warmed = 0;

    // Architectural state lives in the trace, so the pass is pure
    // functional warming. Resume from the latest resident point before
    // the first missing position — warm blobs round-trip losslessly, so
    // the continued pass is bit-identical to one long pass from zero.
    TraceReplayer cursor(trace);
    const LivePoint *resume = nullptr;
    for (const auto &[idx, p] : points) {
        if (p.position() <= gridPlan.warmStart(missing.front()) &&
            (!resume || p.position() > resume->position())) {
            resume = &p;
        }
    }
    if (resume) {
        YASIM_CHECK(resume->restoreUarch(warm_mem, warm_bp,
                                         resume->uarchKey()),
                    "resident live-point warm state failed to restore");
        cursor.seek(resume->position());
    }

    for (uint64_t index : missing) {
        // A cancelled build throws with the honest partial warming
        // count and leaves no partial artifacts (writes are atomic,
        // and only completed points are written at all).
        if (!warmTo(cursor, gridPlan.warmStart(index), warm_mem, warm_bp,
                    cancel, warmed)) {
            CancelledError err;
            err.cause = cancel.cause();
            err.warmedInsts = warmed;
            throw err;
        }
        LivePoint p = LivePoint::atPosition(cursor.instsExecuted());
        p.attachUarch(warm_mem, warm_bp, pointKey(index));
        ++ctr.built;
        if (files.enabled())
            files.store(pointKey(index), p.encode(), nullptr);
        points.emplace(index, std::move(p));
    }
}

uint64_t
LivePointLibrary::ensure(const std::vector<uint64_t> &indices,
                         const CancelToken &cancel)
{
    if (indices.empty())
        return 0;
    std::vector<uint64_t> absent;
    for (size_t i = 0; i < indices.size(); ++i) {
        YASIM_CHECK_LT(indices[i], gridPlan.maxUnits);
        if (i > 0)
            YASIM_CHECK_GT(indices[i], indices[i - 1]);
        if (points.count(indices[i]))
            ++ctr.hits;
        else
            absent.push_back(indices[i]);
    }

    std::vector<uint64_t> missing;
    if (!files.enabled()) {
        missing = std::move(absent);
    } else {
        // Each point is its own file: read, verify and trial-restore
        // them across the pool, then admit them in index order.
        std::vector<LivePoint> loaded(absent.size());
        std::vector<char> ok(absent.size(), 0);
        globalPool().parallelFor(absent.size(), [&](size_t i) {
            ok[i] = files.load(pointKey(absent[i]),
                               [&](const std::string &payload) {
                                   return decodePoint(absent[i], payload,
                                                      loaded[i]);
                               });
        });
        for (size_t i = 0; i < absent.size(); ++i) {
            if (ok[i])
                points.emplace(absent[i], std::move(loaded[i]));
            else
                missing.push_back(absent[i]);
        }
    }
    if (!missing.empty())
        buildPoints(missing, cancel);

    // Modeled warming cost: the conceptual single pass extends through
    // the last ensured unit's span. Deliberately independent of how
    // many points memory or disk served — results and modeled cost
    // never depend on cache state.
    uint64_t target = std::min(
        gridPlan.length, gridPlan.warmStart(indices.back()) +
                             gridPlan.span());
    uint64_t charge = target > chargedTo ? target - chargedTo : 0;
    chargedTo = std::max(chargedTo, target);
    return charge;
}

std::vector<UnitResult>
LivePointLibrary::measureUnits(const std::vector<uint64_t> &indices,
                               bool parallel,
                               const CancelToken &cancel) const
{
    std::vector<UnitResult> results(indices.size());
    std::atomic<uint64_t> detailed_done{0};

    auto measure_one = [&](size_t slot) {
        const uint64_t index = indices[slot];
        results[slot].index = index;
        if (cancel.cancelled())
            return;
        const LivePoint *point = at(index);
        YASIM_CHECK(point != nullptr,
                    "measuring grid unit %llu without a resident "
                    "live-point (ensure() first)",
                    static_cast<unsigned long long>(index));
        OooCore core(cfg);
        // Points are validated on load and lossless when built, so a
        // restore failure here is a programming error, not rot.
        YASIM_CHECK(point->restoreUarch(core.memHierarchy(),
                                        core.predictor(),
                                        pointKey(index)),
                    "resident live-point warm state failed to restore");

        // Position a private stream at the warm-up start: an O(1)
        // replayer seek.
        TraceReplayer stream(trace);
        stream.seek(point->position());
        results[slot] = measureUnit(core, stream, gridPlan, index, cancel);
        detailed_done.fetch_add(
            results[slot].warmupDone + results[slot].unitDone,
            std::memory_order_relaxed);
    };

    if (parallel) {
        globalPool().parallelFor(indices.size(), measure_one, cancel);
    } else {
        for (size_t slot = 0; slot < indices.size(); ++slot) {
            if (cancel.cancelled())
                break;
            measure_one(slot);
        }
    }

    // A cancelled fan-out throws instead of returning: partially
    // measured units must never feed a CPI estimate.
    if (cancel.cancelled()) {
        CancelledError err;
        err.cause = cancel.cause();
        err.detailedInsts =
            detailed_done.load(std::memory_order_relaxed);
        throw err;
    }
    return results;
}

} // namespace yasim
