/**
 * @file
 * Live-points: random-access entry states for sampled simulation.
 *
 * A live-point is the self-contained state one measurement unit of a
 * sampling technique needs — nothing more, following TurboSMARTSim's
 * liblvpt: the unit's dynamic position at its warm-up start, plus the
 * warmed-microarchitecture summary (cache tags, TLBs, predictor
 * tables) produced by functional warming of the whole prefix, as one
 * composite warm blob (uarch/warm_state.hh). Architectural state lives
 * in the recorded trace (sim/trace.hh), whose replayer seeks to any
 * position in O(1), so a point carries none of it.
 *
 * Seeking a fresh TraceReplayer to a live-point's position and
 * restoring its warm blob into a fresh OooCore reproduces the unit's
 * instruction stream and warm state bit-exactly, so units become
 * independent, embarrassingly-parallel jobs: the CPIs, counters, and
 * profiles a fanned-out measurement computes are byte-identical to a
 * serial loop over the same units.
 *
 * A LivePointLibrary owns every point of one (program, sampling plan,
 * warm-geometry configuration): it builds missing points in a single
 * resumable functional-warming pass, persists each one as a
 * varint/RLE-compressed payload (support/codec) through the one
 * cache-directory policy (support/artifact_io's ArtifactDir) in a
 * caller-chosen directory, and serves random-access loads.
 * On-disk points affect wall-clock only — never results and never
 * modeled cost. SMARTS does not use the library: it measures its
 * units along the warming walk (sim/sampling.hh), for which the
 * library's measureUnits is the test oracle. Nothing else persists
 * warm state: the sharded reference (sim/sharded.hh) warms every
 * shard's lead-in in process.
 */

#ifndef YASIM_SIM_LIVEPOINT_HH
#define YASIM_SIM_LIVEPOINT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hh"
#include "sim/sampling.hh"
#include "support/artifact_io.hh"
#include "support/cancel.hh"

namespace yasim {

class ExecTrace;
class MemoryHierarchy;
class CombinedPredictor;
class Program;

/**
 * Binary layout version of LivePoint::encode. Bumped whenever the
 * serialized field set, ordering, or compression changes; decode
 * rejects mismatches and readers treat stale files as misses.
 */
// yasim-lint: version(livepoint)
constexpr uint32_t kLivePointFormatVersion = 2;

/** Live-point library knobs. */
struct LivePointOptions
{
    /**
     * Directory for persisted live-points; "" keeps the library
     * in-memory only. Points are themselves keyed (libraryKey), so
     * where they live cannot change any measured statistic.
     */
    // yasim-lint: key-exempt(result: changes wall-clock only)
    std::string dir;
};

/**
 * Monotonic live-point library counters. The disk fields are the
 * library's ArtifactDir counters (support/artifact_io.hh).
 */
struct LivePointCounters
{
    /** Points captured by a warming/execution pass. */
    uint64_t built = 0;
    /** Requests served from the in-memory set. */
    uint64_t hits = 0;
    uint64_t diskLoads = 0;
    uint64_t diskWrites = 0;
    /** Files that failed frame/payload/warm-blob verification and
     *  were quarantined to "<file>.corrupt", then rebuilt. */
    uint64_t quarantined = 0;
    /** Files written by another live-point format generation: deleted
     *  as stale (no quarantine) and rebuilt. Counted separately from
     *  quarantined so version churn never reads as corruption. */
    uint64_t versionMisses = 0;
    /** Files whose open kept failing after bounded retries: left in
     *  place, and the point rebuilt. */
    uint64_t unreadable = 0;
    /** Transient-I/O retries performed by reads and writes. */
    uint64_t ioRetries = 0;
};

/** One unit's entry state. See the file comment for what's inside. */
class LivePoint
{
  public:
    LivePoint() = default;

    /** A point at dynamic position @p position, no warm state yet. */
    static LivePoint atPosition(uint64_t position);

    /**
     * Attach the warmed-uarch summary of @p mem and @p bp under
     * identity @p key. The key must encode everything the warm state
     * depends on (the library key plus the point's warm start);
     * restoreUarch refuses a key mismatch.
     */
    void attachUarch(const MemoryHierarchy &mem,
                     const CombinedPredictor &bp, const std::string &key);

    /** True when a warmed-uarch summary is attached. */
    bool hasUarch() const { return !warmBlob.empty(); }

    /** Identity key of the attached summary ("" when none). */
    const std::string &uarchKey() const { return warmKey; }

    /**
     * Restore the attached warm summary into @p mem and @p bp.
     * @return false when none is attached, @p key mismatches, or the
     * blob fails structural validation — the tables are then partially
     * mutated and must be discarded (rebuild the core).
     */
    bool restoreUarch(MemoryHierarchy &mem, CombinedPredictor &bp,
                      const std::string &key) const;

    /** Dynamic instruction position of this point. */
    uint64_t position() const { return icount; }

    /** Approximate in-memory footprint in bytes. */
    size_t footprintBytes() const;

    /**
     * Serialize to the compressed binary payload a point's file
     * frames: the varint position plus the RLE-compressed warm blob
     * (support/codec).
     */
    std::string encode() const;

    /** Inverse of encode(). @return false on any structural defect. */
    static bool decode(std::string_view payload, LivePoint &out);

  private:
    uint64_t icount = 0;

    /** Identity key of the optional warm summary ("" = none). */
    std::string warmKey;
    /** Composite warm-state blob (uarch/warm_state.hh layout). */
    std::string warmBlob;
};

/**
 * Every live-point of one (program, sampling plan, warm-geometry
 * configuration), built on demand and measured in parallel.
 *
 * Thread-compatible, not thread-safe: ensure() runs on the caller;
 * measureUnits() fans read-only work across the global pool.
 */
class LivePointLibrary
{
  public:
    /**
     * Library over a recorded trace: workers seek private replayer
     * cursors to each point's position. @p config contributes only its
     * warm-relevant geometry to the identity key.
     */
    LivePointLibrary(std::shared_ptr<const ExecTrace> trace,
                     const SamplingPlan &plan, const SimConfig &config,
                     const LivePointOptions &options);

    LivePointLibrary(const LivePointLibrary &) = delete;
    LivePointLibrary &operator=(const LivePointLibrary &) = delete;

    /**
     * Make every point in @p indices (ascending grid indices) resident
     * in memory: from the in-memory set, from disk (any failed read
     * is counted and falls through to a rebuild), or by
     * extending one resumable functional-warming pass from the nearest
     * preceding resident point. Newly built points persist to
     * options.dir when set.
     *
     * @return the *modeled* functional-warming instructions this call
     * charges: the pass-extension the plan implies, deliberately
     * independent of how many points disk served (wall-clock may be
     * far cheaper; modeled cost and results never depend on cache
     * state).
     *
     * A valid cancelled @p cancel token aborts between bounded warming
     * chunks by throwing CancelledError carrying the instructions
     * actually warmed; completed points persist (atomically), partial
     * ones never do.
     */
    uint64_t ensure(const std::vector<uint64_t> &indices,
                    const CancelToken &cancel = CancelToken());

    /** The resident point for grid index @p j (nullptr when absent). */
    const LivePoint *at(uint64_t index) const;

    /**
     * Measure the units in @p indices independently — each worker gets
     * a fresh core, restores the unit's warm summary, seeks a private
     * replayer to the unit, runs the detailed warm-up, and measures
     * the unit as a snapshot delta. Results come back in @p indices
     * order regardless of scheduling, and every per-unit value is
     * bit-identical between @p parallel true and false (the fan-out is
     * the only difference) and to walkUnits over the same indices,
     * whose detailed units train the tables over their own spans where
     * this library's pass warms every span functionally.
     *
     * All requested points must be resident (ensure() first). On
     * cancellation the call throws CancelledError instead of
     * returning partially-measured units.
     */
    std::vector<UnitResult>
    measureUnits(const std::vector<uint64_t> &indices, bool parallel,
                 const CancelToken &cancel = CancelToken()) const;

    const SamplingPlan &plan() const { return gridPlan; }

    /**
     * Human-readable identity of this library — the "livepoints{...}"
     * cache-key segment naming the format version, plan geometry, and
     * warm-relevant configuration digest. Point file names and
     * warm-blob keys both derive from it.
     */
    const std::string &keyText() const { return key; }

    /**
     * On-disk path of point @p index: the digest of its key plus
     * ".lvpt" in options.dir ("" when dir is unset).
     */
    std::string pointPath(uint64_t index) const;

    /** Snapshot of the counters. */
    LivePointCounters counters() const;

  private:
    std::string pointKey(uint64_t index) const;
    /**
     * Decode @p payload as point @p index into @p out and verify what
     * the frame checksum cannot see: its identity, its shape, and a
     * trial restore of its warm blob.
     */
    bool decodePoint(uint64_t index, std::string_view payload,
                     LivePoint &out) const;
    /** Extend the warming pass to build @p missing (ascending). */
    void buildPoints(const std::vector<uint64_t> &missing,
                     const CancelToken &cancel);

    std::shared_ptr<const ExecTrace> trace;
    SamplingPlan gridPlan;
    SimConfig cfg;
    std::string key;
    /** The point files; disabled when options.dir is "". */
    ArtifactDir files;
    std::map<uint64_t, LivePoint> points;
    /** Grid position the modeled warming charge has reached. */
    uint64_t chargedTo = 0;
    /** built and hits; counters() adds the disk fields. */
    LivePointCounters ctr;
};

} // namespace yasim

#endif // YASIM_SIM_LIVEPOINT_HH
