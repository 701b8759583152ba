#include "support/artifact_io.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <signal.h>
#include <sstream>
#include <unistd.h>
#include <utility>
#include <vector>

#include "support/backoff.hh"
#include "support/check.hh"
#include "support/failpoint.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace yasim {

namespace fs = std::filesystem;

namespace {

constexpr char kContainerMagic[8] = {'y', 'a', 's', 'i',
                                     'm', 'A', 'R', 'T'};
/** Trailing sentinel: a file must end exactly after this. */
constexpr uint64_t kArtifactEndMark = 0x59415349'4d415254ULL;
/** Sanity bound on the length-prefixed inner magic. */
constexpr uint64_t kMaxMagicBytes = 1024;
/** Total open attempts before a transient failure becomes a miss. */
constexpr uint32_t kMaxOpenAttempts = 5;
/** Write syscall granularity (also the crash-failpoint granularity). */
constexpr size_t kWriteChunk = 1024;

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
getU32(std::string_view in, size_t &at, uint32_t &v)
{
    if (at + 4 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    at += 4;
    return true;
}

bool
getU64(std::string_view in, size_t &at, uint64_t &v)
{
    if (at + 8 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    at += 8;
    return true;
}

/** 32-hex-char content checksum binding magic, version, and payload. */
std::string
frameChecksum(std::string_view magic, uint32_t version,
              std::string_view payload)
{
    Hasher h;
    h.str(magic);
    h.u32(version);
    h.str(payload);
    return h.hex();
}

} // namespace

// yasim-lint: serialized(artifact)
std::string
encodeFrame(std::string_view magic, uint32_t version,
            std::string_view payload)
{
    std::string frame;
    frame.reserve(payload.size() + magic.size() + 80);
    frame.append(kContainerMagic, sizeof(kContainerMagic));
    putU32(frame, kArtifactFormatVersion);
    putU64(frame, magic.size());
    frame.append(magic);
    putU32(frame, version);
    putU64(frame, payload.size());
    frame.append(payload);
    frame.append(frameChecksum(magic, version, payload));
    putU64(frame, kArtifactEndMark);
    return frame;
}

// yasim-lint: serialized(artifact)
bool
decodeFrame(std::string_view frame, std::string_view magic,
            uint32_t version, std::string &payload, std::string &error,
            bool *version_mismatch)
{
    size_t at = 0;
    if (frame.size() < sizeof(kContainerMagic) ||
        frame.compare(0, sizeof(kContainerMagic),
                      std::string_view(kContainerMagic,
                                       sizeof(kContainerMagic))) != 0) {
        error = "bad container magic";
        return false;
    }
    at = sizeof(kContainerMagic);

    uint32_t container_version = 0;
    if (!getU32(frame, at, container_version)) {
        error = "truncated before container version";
        return false;
    }
    if (container_version != kArtifactFormatVersion) {
        error = csprintf("container version %u, want %u",
                         container_version, kArtifactFormatVersion);
        return false;
    }

    uint64_t magic_len = 0;
    if (!getU64(frame, at, magic_len) || magic_len > kMaxMagicBytes ||
        at + magic_len > frame.size()) {
        error = "truncated or oversized inner magic";
        return false;
    }
    if (frame.substr(at, magic_len) != magic) {
        error = "inner magic mismatch (different artifact kind)";
        return false;
    }
    at += magic_len;

    uint32_t inner_version = 0;
    if (!getU32(frame, at, inner_version)) {
        error = "truncated before inner version";
        return false;
    }

    uint64_t payload_len = 0;
    if (!getU64(frame, at, payload_len) ||
        payload_len > frame.size() - at) {
        error = "truncated payload";
        return false;
    }
    std::string_view body = frame.substr(at, payload_len);
    at += payload_len;

    // Verified against the version the frame carries, not the one the
    // caller expects: that separates "clean frame from another format
    // generation" (reported below as a version mismatch) from actual
    // rot. A flipped version byte fails here and stays Corrupt.
    if (at + 32 > frame.size()) {
        error = "truncated before checksum";
        return false;
    }
    if (frame.substr(at, 32) !=
        frameChecksum(magic, inner_version, body)) {
        error = "checksum mismatch";
        return false;
    }
    at += 32;

    uint64_t end_mark = 0;
    if (!getU64(frame, at, end_mark) || end_mark != kArtifactEndMark) {
        error = "missing end mark";
        return false;
    }
    if (at != frame.size()) {
        error = csprintf("%zu trailing bytes after the frame",
                         frame.size() - at);
        return false;
    }
    if (inner_version != version) {
        error = csprintf("format version %u, want %u", inner_version,
                         version);
        if (version_mismatch)
            *version_mismatch = true;
        return false;
    }
    payload.assign(body);
    return true;
}

FrameSizeStatus
frameSize(std::string_view prefix, uint64_t max_payload, uint64_t &size)
{
    // Fixed prologue: container magic, container version, magic length.
    constexpr size_t kPrologue = sizeof(kContainerMagic) + 4 + 8;
    if (prefix.size() >= sizeof(kContainerMagic) &&
        prefix.compare(0, sizeof(kContainerMagic),
                       std::string_view(kContainerMagic,
                                        sizeof(kContainerMagic))) != 0) {
        return FrameSizeStatus::Malformed;
    }
    if (prefix.size() < kPrologue)
        return FrameSizeStatus::NeedMore;

    size_t at = sizeof(kContainerMagic) + 4;
    uint64_t magic_len = 0;
    getU64(prefix, at, magic_len);
    if (magic_len > kMaxMagicBytes)
        return FrameSizeStatus::Malformed;

    // Inner magic, inner version, payload length.
    if (prefix.size() < kPrologue + magic_len + 4 + 8)
        return FrameSizeStatus::NeedMore;
    at = kPrologue + magic_len + 4;
    uint64_t payload_len = 0;
    getU64(prefix, at, payload_len);
    if (payload_len > max_payload)
        return FrameSizeStatus::Malformed;

    // ... payload, 32-hex-char checksum, end mark.
    size = kPrologue + magic_len + 4 + 8 + payload_len + 32 + 8;
    return FrameSizeStatus::Known;
}

namespace {

/** Seed of the transient-open retry backoff (support/backoff.hh). */
constexpr uint64_t kOpenBackoffSeed = 0x10a271fac7edULL;
/** Exit status of a process killed by io.write.crash / io.publish.crash. */
constexpr int kWriteCrashStatus = 86;
constexpr int kPublishCrashStatus = 87;

/** A temp name no other write, in this process or another, uses. */
std::string
tempName(const std::string &path)
{
    static std::atomic<uint64_t> next{0};
    std::ostringstream name;
    name << path << ".tmp." << ::getpid() << "."
         << next.fetch_add(1, std::memory_order_relaxed);
    return name.str();
}

/**
 * The writer's pid in a tempName() file name "<path>.tmp.<pid>.<n>",
 * or 0 when @p name is not one.
 */
pid_t
tempWriter(std::string_view name)
{
    const size_t at = name.rfind(".tmp.");
    if (at == std::string_view::npos)
        return 0;
    const std::string_view rest = name.substr(at + 5);
    const size_t dot = rest.find('.');
    if (dot == std::string_view::npos)
        return 0;
    pid_t pid = 0;
    uint64_t counter = 0;
    const char *pid_end = rest.data() + dot;
    const char *end = rest.data() + rest.size();
    const auto [pid_at, pid_err] = std::from_chars(rest.data(), pid_end, pid);
    const auto [n_at, n_err] = std::from_chars(pid_end + 1, end, counter);
    if (pid_err != std::errc() || pid_at != pid_end ||
        n_err != std::errc() || n_at != end)
        return 0;
    return pid > 0 ? pid : 0;
}

/**
 * The stage step: write @p frame to a fresh temp beside @p path and
 * name it in @p temp. Every io.* write failpoint fires here. With
 * @p durable the temp is fsynced before it closes: the barrier of a
 * batch of one. On failure no temp is left.
 */
ArtifactWriteResult
stageFrame(const std::string &path, std::string_view frame, bool durable,
           std::string &temp)
{
    ArtifactWriteResult result;
    temp = tempName(path);

    int fd = -1;
    Backoff retry_backoff(kOpenBackoffSeed);
    for (uint32_t attempt = 1; attempt <= kMaxOpenAttempts; ++attempt) {
        if (failpoint::fire("io.open.transient")) {
            errno = EIO;
            fd = -1;
        } else {
            fd = ::open(temp.c_str(), O_CREAT | O_TRUNC | O_WRONLY,
                        0644);
        }
        if (fd >= 0)
            break;
        if (attempt == kMaxOpenAttempts) {
            result.error =
                csprintf("cannot open '%s' (%u attempts)", temp.c_str(),
                         kMaxOpenAttempts);
            return result;
        }
        ++result.retries;
        retry_backoff.sleep();
    }

    // An injected short write publishes a deliberately torn frame: the
    // reader's checksum must catch it (fsync is skipped too, like a
    // power cut would).
    bool torn = failpoint::fire("io.write.short");
    size_t to_write = torn ? frame.size() / 2 : frame.size();

    size_t written = 0;
    bool write_failed = false;
    while (written < to_write) {
        if (failpoint::fire("io.write.crash"))
            ::_exit(kWriteCrashStatus); // simulated hard kill mid-write
        size_t n = std::min(kWriteChunk, to_write - written);
        ssize_t got = ::write(fd, frame.data() + written, n);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            write_failed = true;
            break;
        }
        written += static_cast<size_t>(got);
    }
    if (!write_failed && !torn && durable && ::fsync(fd) != 0)
        write_failed = true;
    ::close(fd);

    if (write_failed) {
        std::error_code ec;
        fs::remove(temp, ec);
        result.error = "write failed mid-frame";
        return result;
    }
    result.ok = true;
    return result;
}

/**
 * The publish step for one durable temp: rename @p temp over @p path.
 * On failure the temp is removed and @p error says why.
 */
bool
renameIntoPlace(const std::string &temp, const std::string &path,
                std::string &error)
{
    if (failpoint::fire("io.publish.crash"))
        ::_exit(kPublishCrashStatus); // simulated hard kill before a rename
    std::error_code ec;
    if (failpoint::fire("io.rename.fail")) {
        fs::remove(temp, ec);
        error = "injected rename failure";
        return false;
    }
    fs::rename(temp, path, ec);
    if (ec) {
        error = "rename failed: " + ec.message();
        fs::remove(temp, ec);
        return false;
    }
    return true;
}

/** A batch's barrier: syncfs(2) on the filesystem holding @p dir. */
bool
syncFilesystem(const std::string &dir, std::string &error)
{
    if (failpoint::fire("io.sync.fail")) {
        error = "injected barrier failure";
        return false;
    }
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        error = csprintf("cannot open '%s': %s", dir.c_str(),
                         std::strerror(errno));
        return false;
    }
    const bool synced = ::syncfs(fd) == 0;
    if (!synced)
        error = csprintf("syncfs on '%s' failed: %s", dir.c_str(),
                         std::strerror(errno));
    ::close(fd);
    return synced;
}

} // namespace

// yasim-lint: serialized(artifact)
ArtifactReadResult
readArtifact(const std::string &path, std::string_view magic,
             uint32_t version)
{
    ArtifactReadResult result;

    int fd = -1;
    Backoff retry_backoff(kOpenBackoffSeed);
    for (uint32_t attempt = 1; attempt <= kMaxOpenAttempts; ++attempt) {
        if (failpoint::fire("io.open.transient")) {
            errno = EIO;
            fd = -1;
        } else {
            fd = ::open(path.c_str(), O_RDONLY);
        }
        if (fd >= 0)
            break;
        if (errno == ENOENT) {
            result.status = ArtifactStatus::Missing;
            return result;
        }
        if (attempt == kMaxOpenAttempts) {
            result.status = ArtifactStatus::Transient;
            result.error = csprintf("open kept failing (%u attempts)",
                                    kMaxOpenAttempts);
            return result;
        }
        ++result.retries;
        retry_backoff.sleep();
    }

    std::string frame;
    char buffer[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buffer, sizeof(buffer));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            result.status = ArtifactStatus::Transient;
            result.error = "read failed mid-file";
            return result;
        }
        if (n == 0)
            break;
        frame.append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);

    if (!frame.empty() && failpoint::fire("io.read.corrupt"))
        frame[frame.size() / 2] ^= 0x20; // injected single-bit flip

    std::string error;
    bool version_mismatch = false;
    if (decodeFrame(frame, magic, version, result.payload, error,
                    &version_mismatch)) {
        result.status = ArtifactStatus::Ok;
        return result;
    }
    if (version_mismatch) {
        // A clean frame from another format generation is a stale
        // cache entry, not rot: delete it outright so the next lookup
        // is a plain miss, and leave no ".corrupt" file to debug.
        result.status = ArtifactStatus::VersionMismatch;
        result.error = error;
        std::error_code ec;
        fs::remove(path, ec);
        return result;
    }
    result.status = ArtifactStatus::Corrupt;
    result.error = error;
    result.quarantined = quarantineArtifact(path);
    return result;
}

// yasim-lint: serialized(artifact)
ArtifactWriteResult
writeArtifact(const std::string &path, std::string_view magic,
              uint32_t version, std::string_view payload)
{
    // A batch of one: its barrier is an fsync of its one file.
    std::string temp;
    ArtifactWriteResult result = stageFrame(
        path, encodeFrame(magic, version, payload), true, temp);
    if (result.ok && !renameIntoPlace(temp, path, result.error))
        result.ok = false;
    return result;
}

ArtifactBatch::ArtifactBatch(std::string dir) : dir(std::move(dir)) {}

ArtifactBatch::~ArtifactBatch()
{
    std::error_code ec;
    for (const Staged &file : staged)
        fs::remove(file.temp, ec);
}

ArtifactWriteResult
ArtifactBatch::stage(const std::string &path, std::string_view magic,
                     uint32_t version, std::string_view payload,
                     OnPublished on_published)
{
    std::string temp;
    ArtifactWriteResult result = stageFrame(
        path, encodeFrame(magic, version, payload), false, temp);
    if (result.ok) {
        std::lock_guard<std::mutex> lock(mutex);
        staged.push_back({path, std::move(temp), std::move(on_published)});
    }
    return result;
}

ArtifactPublishResult
ArtifactBatch::publish()
{
    std::vector<Staged> files;
    {
        std::lock_guard<std::mutex> lock(mutex);
        files.swap(staged);
    }
    ArtifactPublishResult result;
    result.staged = files.size();
    if (files.empty())
        return result;

    if (!syncFilesystem(dir, result.barrierError)) {
        std::error_code ec;
        for (const Staged &file : files)
            fs::remove(file.temp, ec);
        return result;
    }
    for (const Staged &file : files) {
        std::string error;
        if (!renameIntoPlace(file.temp, file.path, error)) {
            result.errors.push_back(csprintf(
                "cannot publish '%s': %s", file.path.c_str(),
                error.c_str()));
            continue;
        }
        ++result.published;
        if (file.onPublished)
            file.onPublished();
    }
    return result;
}

bool
quarantineArtifact(const std::string &path)
{
    std::error_code ec;
    fs::rename(path, path + ".corrupt", ec);
    if (!ec)
        return true;
    // Could not move it aside (permissions, cross-process race):
    // remove it so the bad bytes cannot be re-read either way.
    fs::remove(path, ec);
    return false;
}

uint64_t
evictToBudget(const std::string &dir, uint64_t max_bytes)
{
    struct File
    {
        fs::file_time_type mtime;
        std::string path;
        uint64_t size = 0;
    };
    std::vector<File> files;
    uint64_t total = 0;

    // The whole tree: subdirectories of the cache dir, such as those
    // older builds left behind, count against the budget too.
    std::error_code ec;
    for (fs::recursive_directory_iterator
             it(dir, fs::directory_options::skip_permission_denied, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        const std::string name = it->path().filename().string();
        // Skip in-flight temp files: a concurrent writer owns them.
        if (name.find(".tmp.") != std::string::npos)
            continue;
        File f;
        f.path = it->path().string();
        f.size = it->file_size(ec);
        if (ec)
            continue;
        f.mtime = fs::last_write_time(it->path(), ec);
        if (ec)
            continue;
        total += f.size;
        files.push_back(std::move(f));
    }
    if (total <= max_bytes)
        return 0;

    // Oldest first; the path breaks mtime ties deterministically.
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });

    uint64_t evicted = 0;
    for (const File &f : files) {
        if (total <= max_bytes)
            break;
        // The newest artifact always survives: evicting the entry just
        // published would turn every write into a self-defeating miss.
        if (&f == &files.back())
            break;
        if (fs::remove(f.path, ec) && !ec) {
            total -= f.size;
            ++evicted;
        }
    }
    return evicted;
}

ArtifactDir::ArtifactDir(std::string dir, std::string magic,
                         uint32_t version, std::string suffix,
                         uint64_t budget_bytes)
    : dir(std::move(dir)), magic(std::move(magic)), version(version),
      suffix(std::move(suffix)), budgetBytes(budget_bytes)
{
    if (!enabled())
        return;
    std::error_code ec;
    fs::create_directories(this->dir, ec);
    if (ec)
        fatal("cannot create cache directory '%s': %s", this->dir.c_str(),
              ec.message().c_str());
}

std::string
ArtifactDir::path(const std::string &key) const
{
    Hasher h;
    h.str(key);
    return (fs::path(dir) / (h.hex() + suffix)).string();
}

bool
ArtifactDir::contains(const std::string &key) const
{
    std::error_code ec;
    return enabled() && fs::exists(path(key), ec);
}

bool
ArtifactDir::load(const std::string &key, const Decode &decode)
{
    if (!enabled())
        return false;
    const std::string file = path(key);
    ArtifactReadResult read = readArtifact(file, magic, version);
    if (read.status == ArtifactStatus::Ok && !decode(read.payload)) {
        // The frame verified but the payload did not decode: a digest
        // collision or a format bug. It heals as rot does.
        quarantineArtifact(file);
        read.status = ArtifactStatus::Corrupt;
        read.error = "payload rejected by its decoder";
    }

    bool first_failure = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        ctr.ioRetries += read.retries;
        switch (read.status) {
          case ArtifactStatus::Ok:
            ++ctr.loads;
            break;
          case ArtifactStatus::Missing:
            break;
          case ArtifactStatus::VersionMismatch:
            ++ctr.versionMisses;
            break;
          case ArtifactStatus::Corrupt:
            ++ctr.corrupt;
            first_failure = !std::exchange(warned, true);
            break;
          case ArtifactStatus::Transient:
            ++ctr.unreadable;
            first_failure = !std::exchange(warned, true);
            break;
        }
    }
    if (first_failure) {
        const bool corrupt = read.status == ArtifactStatus::Corrupt;
        warn("cache artifact '%s' is %s: %s; %s and recomputing (one "
             "warning per directory; its counters count the rest)",
             file.c_str(), corrupt ? "corrupt" : "unreadable",
             read.error.c_str(),
             corrupt ? "quarantined to .corrupt" : "left in place");
    }
    return read.status == ArtifactStatus::Ok;
}

void
ArtifactDir::store(const std::string &key, std::string_view payload,
                   ArtifactBatch *batch)
{
    YASIM_CHECK(enabled(), "store into a disabled artifact directory");
    const std::string file = path(key);
    auto published = [this] {
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.writes;
    };
    const ArtifactWriteResult wrote =
        batch ? batch->stage(file, magic, version, payload, published)
              : writeArtifact(file, magic, version, payload);
    {
        std::lock_guard<std::mutex> lock(mutex);
        ctr.ioRetries += wrote.retries;
    }
    if (!wrote.ok) {
        warn("cannot write cache file '%s': %s", file.c_str(),
             wrote.error.c_str());
        return;
    }
    if (!batch) {
        published();
        budgetPass();
    }
}

void
ArtifactDir::publish(ArtifactBatch &batch)
{
    const ArtifactPublishResult published = batch.publish();
    if (published.staged == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++ctr.barriers;
    }
    if (!published.barrierError.empty()) {
        warn("cannot make %llu staged cache files durable: %s; none was "
             "published (their results are still returned)",
             static_cast<unsigned long long>(published.staged),
             published.barrierError.c_str());
    }
    for (const std::string &error : published.errors)
        warn("%s", error.c_str());
    if (published.published)
        budgetPass();
}

uint64_t
ArtifactDir::reclaimStaleTemps()
{
    if (!enabled())
        return 0;
    std::vector<fs::path> stale;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const pid_t pid = tempWriter(it->path().filename().string());
        if (pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH)
            stale.push_back(it->path());
    }
    uint64_t removed = 0;
    for (const fs::path &temp : stale)
        removed += fs::remove(temp, ec) ? 1 : 0;
    return removed;
}

ArtifactDirCounters
ArtifactDir::counters() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return ctr;
}

void
ArtifactDir::budgetPass()
{
    if (budgetBytes == 0)
        return;
    const uint64_t evicted = evictToBudget(dir, budgetBytes);
    std::lock_guard<std::mutex> lock(mutex);
    ctr.budgetEvictions += evicted;
}

} // namespace yasim
