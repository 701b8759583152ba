/**
 * @file
 * Self-healing framed artifact I/O for every on-disk cache.
 *
 * Every artifact the library persists — result-cache entries,
 * reference lengths, trace spills, live-points — goes through one
 * reader/writer pair instead of three copy-pasted temp+rename blocks.
 * The wire format frames an opaque payload:
 *
 *     container magic  "yasimART"                 (8 bytes)
 *     container ver    kArtifactFormatVersion      (u32)
 *     inner magic      length-prefixed string      (u64 + bytes)
 *     inner version    caller's format version     (u32)
 *     payload length                                (u64)
 *     payload bytes
 *     checksum         two Hasher lanes over magic/version/payload
 *                                                   (2 x u64)
 *     end mark                                      (u64)
 *
 * and the file must end there: trailing garbage is corruption. Writes
 * build the frame in memory and stage it to a private temp file; a
 * durability barrier then makes it durable and an atomic rename
 * publishes it, so concurrent processes sharing a cache directory can
 * never observe a torn artifact. writeArtifact() is a batch of one,
 * whose barrier is an fsync of its file; an ArtifactBatch publishes
 * many staged files behind one syncfs(2). Reads verify
 * every field; any mismatch — bad magic, short file, checksum
 * failure, trailing bytes — quarantines the file to "<path>.corrupt"
 * and reports Corrupt, which callers treat as a miss and recompute.
 * A frame that verifies cleanly but carries a stale inner format
 * version is not rot: it is deleted (no quarantine) and reported as
 * VersionMismatch so callers can count it separately. Opens that fail
 * transiently are retried a bounded number of times with linear
 * backoff.
 *
 * ArtifactDir applies one cache-directory policy on top of these calls:
 * file names, counters, warnings and the byte budget. The result cache,
 * the trace spills and the live-point library each hold one, and no
 * other library code makes these calls itself (yasim-analyze rule S2).
 *
 * All the failure paths are testable deterministically through the
 * failpoint sites documented in support/failpoint.hh.
 */

#ifndef YASIM_SUPPORT_ARTIFACT_IO_HH
#define YASIM_SUPPORT_ARTIFACT_IO_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace yasim {

/** Container-framing layout version (independent of inner formats). */
// yasim-lint: version(artifact)
constexpr uint32_t kArtifactFormatVersion = 1;

/** Outcome of a framed read. */
enum class ArtifactStatus {
    Ok,        ///< payload verified and returned
    Missing,   ///< no such file — a plain cache miss
    Corrupt,   ///< frame verification failed; file quarantined
    Transient, ///< open kept failing after bounded retries
    /**
     * The frame verified cleanly but carries a different inner format
     * version — a stale spill from an older (or newer) build, not rot.
     * The file is deleted, not quarantined: there is nothing to debug
     * in a well-formed artifact that simply aged out.
     */
    VersionMismatch,
};

/** Everything readArtifact() learned. */
struct ArtifactReadResult
{
    ArtifactStatus status = ArtifactStatus::Missing;
    /** The verified payload (valid only when status == Ok). */
    std::string payload;
    /** Human-readable cause when status != Ok. */
    std::string error;
    /** Transient-open retries that were needed. */
    uint32_t retries = 0;
    /** True when a corrupt file was moved to "<path>.corrupt". */
    bool quarantined = false;
};

/** Outcome of a framed write. */
struct ArtifactWriteResult
{
    bool ok = false;
    std::string error;
    /** Transient-open retries that were needed. */
    uint32_t retries = 0;
};

/**
 * Serialize one frame (layout in the file comment) around @p payload.
 * This is the byte sequence writeArtifact() publishes — exposed so the
 * experiment-service wire protocol (src/service/) frames its messages
 * identically to the on-disk artifacts.
 */
std::string encodeFrame(std::string_view magic, uint32_t version,
                        std::string_view payload);

/**
 * Parse and verify a complete frame against (@p magic, @p version).
 * Returns true and fills @p payload; false with a human-readable
 * cause in @p error otherwise. Trailing bytes are an error.
 *
 * The checksum is verified against the version the frame itself
 * carries, so a frame whose every check passes except the inner
 * version is distinguishable from corruption: that case sets
 * @p version_mismatch (when non-null) before returning false. A
 * corrupted version field fails the checksum and stays plain-false.
 */
bool decodeFrame(std::string_view frame, std::string_view magic,
                 uint32_t version, std::string &payload,
                 std::string &error, bool *version_mismatch = nullptr);

/** What frameSize() could learn from a frame prefix. */
enum class FrameSizeStatus {
    NeedMore,  ///< the prefix does not yet cover the header fields
    Known,     ///< total frame size determined
    Malformed, ///< bad container magic or an insane length field
};

/**
 * Incremental stream framing: inspect a prefix of a frame and, once
 * the header fields are available, report the total frame size in
 * @p size. Payloads longer than @p max_payload (or inner magics past
 * the layout bound) classify as Malformed, so a stream reader can drop
 * a hostile or corrupt peer without buffering gigabytes.
 */
FrameSizeStatus frameSize(std::string_view prefix, uint64_t max_payload,
                          uint64_t &size);

/**
 * Read and verify the framed artifact at @p path. The frame must
 * carry @p magic and @p version; any verification failure quarantines
 * the file and reports Corrupt, except a cleanly-framed stale version,
 * which deletes the file and reports VersionMismatch. Never throws,
 * never aborts.
 */
ArtifactReadResult readArtifact(const std::string &path,
                                std::string_view magic,
                                uint32_t version);

/**
 * Frame @p payload under (@p magic, @p version) and publish it at
 * @p path as a batch of one: stage it to a temp file, fsync that file
 * and rename it into place. Best-effort: failures are reported, never
 * thrown.
 */
ArtifactWriteResult writeArtifact(const std::string &path,
                                  std::string_view magic,
                                  uint32_t version,
                                  std::string_view payload);

/** What ArtifactBatch::publish() did. */
struct ArtifactPublishResult
{
    /** Files the batch held; a barrier was issued when non-zero. */
    uint64_t staged = 0;
    /** Why the barrier failed, when it did; nothing was published. */
    std::string barrierError;
    /** Files renamed into place. */
    uint64_t published = 0;
    /** One message per durable file whose rename failed. */
    std::vector<std::string> errors;
};

/**
 * Framed artifacts published together behind one durability barrier.
 *
 * stage() frames a payload and writes it to a unique "<path>.tmp.*"
 * with no fsync; every io.* write failpoint fires there, as in
 * writeArtifact(). publish() makes every staged file durable with one
 * syncfs(2) on the filesystem that holds the batch's directory, and
 * only then renames each into place, so no file appears under its
 * final name before its bytes are durable. A failed barrier publishes
 * nothing and removes the temps. A process killed before publish()
 * returns leaves temps and the files already renamed, never a torn
 * artifact; a batch destroyed unpublished removes its temps. Every
 * staged path must live on the directory's filesystem.
 */
class ArtifactBatch
{
  public:
    /** Runs once the staged file is under its final name. */
    using OnPublished = std::function<void()>;

    explicit ArtifactBatch(std::string dir);
    ~ArtifactBatch();

    ArtifactBatch(const ArtifactBatch &) = delete;
    ArtifactBatch &operator=(const ArtifactBatch &) = delete;

    /**
     * Frame @p payload under (@p magic, @p version) and write it to a
     * temp beside @p path, to be published by publish(). Thread-safe.
     * On failure nothing is staged and no temp is left.
     */
    ArtifactWriteResult stage(const std::string &path,
                              std::string_view magic, uint32_t version,
                              std::string_view payload,
                              OnPublished on_published = {});

    /**
     * One barrier over everything staged, then the renames, calling
     * each published file's OnPublished. An empty batch issues no
     * barrier. The batch is empty afterwards.
     */
    ArtifactPublishResult publish();

  private:
    struct Staged
    {
        std::string path;
        std::string temp;
        OnPublished onPublished;
    };

    const std::string dir;
    std::mutex mutex;
    std::vector<Staged> staged; // guarded by mutex
};

/**
 * Move @p path aside to "<path>.corrupt" (replacing any previous
 * quarantine) so the next lookup misses instead of re-parsing a bad
 * file; used by callers whose payload-level parse fails after the
 * frame verified. Returns false when the file could not be moved (it
 * is removed instead, so the bad bytes never survive either way).
 */
bool quarantineArtifact(const std::string &path);

/**
 * Delete the oldest regular files (by modification time, then path)
 * in @p dir and every directory below it until the tree's total size
 * is at most @p max_bytes. The newest file always survives, whatever
 * its size; in-flight ".tmp." files are skipped. Returns the number
 * of files removed.
 */
uint64_t evictToBudget(const std::string &dir, uint64_t max_bytes);

/** What one ArtifactDir did; every field only grows. */
struct ArtifactDirCounters
{
    /** Payloads read back and accepted by their decoder. */
    uint64_t loads = 0;
    /** Files published under their final name. */
    uint64_t writes = 0;
    /** Barriers issued: one per publish() of a batch that staged. */
    uint64_t barriers = 0;
    /**
     * Reads whose frame failed verification, or whose payload the
     * decoder rejected; each file was quarantined to "<file>.corrupt".
     */
    uint64_t corrupt = 0;
    /** Clean frames of another format generation; each was deleted. */
    uint64_t versionMisses = 0;
    /** Reads whose open kept failing after bounded retries. */
    uint64_t unreadable = 0;
    /** Transient-open retries of reads and writes. */
    uint64_t ioRetries = 0;
    /** Files removed by budget passes. */
    uint64_t budgetEvictions = 0;
};

/**
 * The cache-directory policy for one artifact kind in one directory:
 * files named by a key's digest plus a suffix, framed under one inner
 * magic and format version, in a tree bounded by a byte budget.
 *
 * load() reads a key's file and sorts every outcome one way: a missing
 * file is a plain miss; a stale format generation is counted and
 * deleted without a warning; a corrupt frame, a payload the decoder
 * rejects, or an open that kept failing is counted, and only the first
 * of those per instance warns. store() stages a file into a batch, or
 * writes it at once (fsync, then rename) and runs one budget pass;
 * publish() publishes a batch and runs one budget pass. An instance
 * with an empty directory is disabled: every load misses. Thread-safe.
 */
class ArtifactDir
{
  public:
    /** Accepts a verified payload, keeping what it decoded, or not. */
    using Decode = std::function<bool(const std::string &payload)>;

    /**
     * Files "<digest of key><@p suffix>" under (@p magic, @p version)
     * in @p dir, which is created if missing (fatal if it cannot be).
     * @p budget_bytes bounds the whole tree under @p dir (0 = no
     * bound).
     */
    ArtifactDir(std::string dir, std::string magic, uint32_t version,
                std::string suffix, uint64_t budget_bytes);

    ArtifactDir(const ArtifactDir &) = delete;
    ArtifactDir &operator=(const ArtifactDir &) = delete;

    bool enabled() const { return !dir.empty(); }

    /** @p key's file: its 32-hex-char content digest plus the suffix. */
    std::string path(const std::string &key) const;

    /** True when @p key's file exists (it may still fail to load). */
    bool contains(const std::string &key) const;

    /**
     * Read @p key's file and hand its payload to @p decode. True only
     * when @p decode accepted it; a rejected payload is quarantined.
     */
    bool load(const std::string &key, const Decode &decode);

    /**
     * Publish @p payload as @p key's file: staged into @p batch, where
     * it counts as written once published, or, with no batch, written
     * at once and followed by a budget pass. A failure warns and is
     * dropped. Requires enabled().
     */
    void store(const std::string &key, std::string_view payload,
               ArtifactBatch *batch);

    /**
     * @p batch's publish(): count its barrier, warn about each file it
     * could not publish, then run one budget pass if any file was
     * published.
     */
    void publish(ArtifactBatch &batch);

    /**
     * Remove every temp in the directory whose writing process is no
     * longer running (kill(pid, 0) fails with ESRCH), such as those a
     * killed batch leaves; returns how many. Temps of live processes,
     * this one included, stay. Pids are only comparable within one pid
     * namespace, so processes that share a directory must share one.
     */
    uint64_t reclaimStaleTemps();

    /** Snapshot of the counters. */
    ArtifactDirCounters counters() const;

  private:
    /** evictToBudget() over the tree, when there is a budget. */
    void budgetPass();

    const std::string dir;
    const std::string magic;
    const uint32_t version;
    const std::string suffix;
    const uint64_t budgetBytes;

    mutable std::mutex mutex;
    ArtifactDirCounters ctr;  // guarded by mutex
    bool warned = false;      // guarded by mutex
};

} // namespace yasim

#endif // YASIM_SUPPORT_ARTIFACT_IO_HH
