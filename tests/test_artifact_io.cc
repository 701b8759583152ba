/**
 * @file
 * Tests for the deterministic failpoint layer and the framed artifact
 * reader/writer behind every on-disk cache: trigger semantics,
 * byte-level frame verification, quarantine, transient-open retries,
 * torn-write detection, batched publication, cache-budget eviction,
 * and the cache-directory policy ArtifactDir applies on top.
 *
 * Every test pins its own failpoint schedule with ScopedSchedule so
 * the assertions hold even when the whole suite runs under a CI
 * YASIM_FAILPOINTS schedule (the RAII guard restores it afterwards).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "support/artifact_io.hh"
#include "support/failpoint.hh"

namespace yasim {
namespace {

namespace fs = std::filesystem;

/** A scratch directory wiped before and after each use. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : dir(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ScratchDir() { fs::remove_all(dir); }
    std::string str() const { return dir.string(); }
    std::string file(const std::string &name) const
    {
        return (dir / name).string();
    }

  private:
    fs::path dir;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string out((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    return out;
}

void
dump(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

// ----------------------------------------------------------- failpoints

TEST(Failpoint, UnarmedSitesNeverFire)
{
    failpoint::ScopedSchedule off("");
    EXPECT_FALSE(failpoint::anyArmed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(failpoint::fire("io.read.corrupt"));
    EXPECT_EQ(failpoint::stats("io.read.corrupt").evaluations, 0u);
}

TEST(Failpoint, AlwaysFiresEveryTime)
{
    failpoint::ScopedSchedule sched("io.read.corrupt=always");
    EXPECT_TRUE(failpoint::anyArmed());
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(failpoint::fire("io.read.corrupt"));
    failpoint::SiteStats s = failpoint::stats("io.read.corrupt");
    EXPECT_EQ(s.evaluations, 5u);
    EXPECT_EQ(s.fires, 5u);
    // Other sites stay unarmed.
    EXPECT_FALSE(failpoint::fire("io.rename.fail"));
}

TEST(Failpoint, AfterKFiresExactlyOnceOnTheKPlusFirstEvaluation)
{
    failpoint::ScopedSchedule sched("io.write.short=after3");
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(failpoint::fire("io.write.short")) << i;
    EXPECT_TRUE(failpoint::fire("io.write.short"));
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(failpoint::fire("io.write.short"));
    EXPECT_EQ(failpoint::stats("io.write.short").fires, 1u);
    // A spent single-shot site no longer counts as armed.
    EXPECT_FALSE(failpoint::anyArmed());
}

TEST(Failpoint, OneInNIsSeededAndReproducible)
{
    auto sequence = [] {
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(failpoint::fire("io.read.corrupt"));
        return fires;
    };

    failpoint::ScopedSchedule first("io.read.corrupt=1in8");
    std::vector<bool> a = sequence();
    failpoint::configure("io.read.corrupt=1in8");
    std::vector<bool> b = sequence();
    EXPECT_EQ(a, b);

    uint64_t fired = failpoint::stats("io.read.corrupt").fires;
    EXPECT_GT(fired, 5u);  // ~25 expected out of 200
    EXPECT_LT(fired, 80u);

    // A different schedule seed draws a different sequence.
    failpoint::configure("seed=99,io.read.corrupt=1in8");
    EXPECT_NE(sequence(), a);
}

TEST(Failpoint, ScopedScheduleRestoresThePreviousSpec)
{
    failpoint::ScopedSchedule outer("io.rename.fail=always");
    {
        failpoint::ScopedSchedule inner("");
        EXPECT_FALSE(failpoint::fire("io.rename.fail"));
    }
    EXPECT_EQ(failpoint::activeSpec(), "io.rename.fail=always");
    EXPECT_TRUE(failpoint::fire("io.rename.fail"));
}

TEST(FailpointDeathTest, MalformedSpecsAreFatal)
{
    EXPECT_DEATH(failpoint::configure("io.read.corrupt"),
                 "not site=trigger");
    EXPECT_DEATH(failpoint::configure("io.read.corrupt=1in0"),
                 "bad 1inN");
    EXPECT_DEATH(failpoint::configure("io.read.corrupt=sometimes"),
                 "unknown trigger");
}

TEST(FailpointDeathTest, UnknownSitesAreFatal)
{
    // A misspelt site would otherwise arm nothing and run clean.
    EXPECT_DEATH(failpoint::configure("io.sync.fial=after0"),
                 "unknown site");
    EXPECT_DEATH(failpoint::configure("io.read.corrupt=1in8,io.torn=always"),
                 "unknown site");
}

// ------------------------------------------------------------- framing

TEST(ArtifactIo, RoundTripsBinaryPayloads)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_roundtrip");
    const std::string path = scratch.file("blob.art");
    std::string payload = "binary\0payload\n\xff with NULs";
    payload.push_back('\0');

    ArtifactWriteResult wrote =
        writeArtifact(path, "yasim-test", 7, payload);
    ASSERT_TRUE(wrote.ok) << wrote.error;
    EXPECT_EQ(wrote.retries, 0u);

    ArtifactReadResult read = readArtifact(path, "yasim-test", 7);
    ASSERT_EQ(read.status, ArtifactStatus::Ok) << read.error;
    EXPECT_EQ(read.payload, payload);
    EXPECT_EQ(read.retries, 0u);

    // No stray temp files left behind.
    int files = 0;
    for (const auto &entry : fs::directory_iterator(scratch.str()))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1);
}

TEST(ArtifactIo, EmptyPayloadIsAValidArtifact)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_empty");
    const std::string path = scratch.file("empty.art");
    ASSERT_TRUE(writeArtifact(path, "yasim-test", 1, "").ok);
    ArtifactReadResult read = readArtifact(path, "yasim-test", 1);
    ASSERT_EQ(read.status, ArtifactStatus::Ok) << read.error;
    EXPECT_TRUE(read.payload.empty());
}

TEST(ArtifactIo, MissingFileIsAMissNotAnError)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_missing");
    ArtifactReadResult read =
        readArtifact(scratch.file("nope.art"), "yasim-test", 1);
    EXPECT_EQ(read.status, ArtifactStatus::Missing);
    EXPECT_FALSE(read.quarantined);
}

TEST(ArtifactIo, WrongKindIsCorruptButStaleVersionIsAMiss)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_kinds");
    const std::string path = scratch.file("a.art");

    ASSERT_TRUE(writeArtifact(path, "yasim-test", 3, "payload").ok);
    ArtifactReadResult kind = readArtifact(path, "yasim-other", 3);
    EXPECT_EQ(kind.status, ArtifactStatus::Corrupt);
    EXPECT_NE(kind.error.find("magic"), std::string::npos);
    EXPECT_TRUE(kind.quarantined);
    fs::remove(path + ".corrupt"); // drop the wrong-kind quarantine

    // A cleanly-framed artifact from another format generation is a
    // version miss, not rot: the stale file is deleted outright, with
    // no ".corrupt" quarantine to debug.
    ASSERT_TRUE(writeArtifact(path, "yasim-test", 3, "payload").ok);
    ArtifactReadResult version = readArtifact(path, "yasim-test", 4);
    EXPECT_EQ(version.status, ArtifactStatus::VersionMismatch);
    EXPECT_NE(version.error.find("version"), std::string::npos);
    EXPECT_FALSE(version.quarantined);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".corrupt"));

    // Once the stale file is gone, the next lookup is a plain miss.
    EXPECT_EQ(readArtifact(path, "yasim-test", 4).status,
              ArtifactStatus::Missing);

    // A corrupted version field is indistinguishable from rot (the
    // checksum is bound to the stored version) and stays Corrupt.
    ASSERT_TRUE(writeArtifact(path, "yasim-test", 3, "payload").ok);
    std::string frame = slurp(path);
    const size_t version_at =
        8 + 4 + 8 + std::string("yasim-test").size();
    frame[version_at] ^= 0x04; // version 3 -> 7, checksum untouched
    dump(path, frame);
    ArtifactReadResult flipped = readArtifact(path, "yasim-test", 3);
    EXPECT_EQ(flipped.status, ArtifactStatus::Corrupt);
    EXPECT_NE(flipped.error.find("checksum"), std::string::npos);
    EXPECT_TRUE(flipped.quarantined);
}

TEST(ArtifactIo, EveryByteIsCoveredByVerification)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_flips");
    const std::string path = scratch.file("flip.art");
    ASSERT_TRUE(
        writeArtifact(path, "yasim-test", 1, "sensitive payload").ok);
    const std::string good = slurp(path);
    ASSERT_FALSE(good.empty());

    // Flip one bit at a sample of offsets: every single one must be
    // caught (and quarantined so the re-dump below starts clean).
    for (size_t at = 0; at < good.size(); at += 7) {
        std::string bad = good;
        bad[at] ^= 0x01;
        dump(path, bad);
        ArtifactReadResult read = readArtifact(path, "yasim-test", 1);
        EXPECT_EQ(read.status, ArtifactStatus::Corrupt)
            << "undetected flip at offset " << at;
        EXPECT_FALSE(fs::exists(path)) << "no quarantine at " << at;
    }
}

TEST(ArtifactIo, TruncationAndTrailingGarbageAreCorrupt)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_tails");
    const std::string path = scratch.file("tail.art");
    ASSERT_TRUE(writeArtifact(path, "yasim-test", 1, "payload").ok);
    const std::string good = slurp(path);

    dump(path, good.substr(0, good.size() - 3));
    EXPECT_EQ(readArtifact(path, "yasim-test", 1).status,
              ArtifactStatus::Corrupt);

    dump(path, good + "junk");
    ArtifactReadResult trailing = readArtifact(path, "yasim-test", 1);
    EXPECT_EQ(trailing.status, ArtifactStatus::Corrupt);
    EXPECT_NE(trailing.error.find("trailing"), std::string::npos);

    dump(path, "");
    EXPECT_EQ(readArtifact(path, "yasim-test", 1).status,
              ArtifactStatus::Corrupt);
}

TEST(ArtifactIo, QuarantineMovesTheBadFileAside)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_quarantine");
    const std::string path = scratch.file("bad.art");
    dump(path, "not an artifact at all");

    ArtifactReadResult read = readArtifact(path, "yasim-test", 1);
    EXPECT_EQ(read.status, ArtifactStatus::Corrupt);
    EXPECT_TRUE(read.quarantined);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    EXPECT_EQ(slurp(path + ".corrupt"), "not an artifact at all");

    // The next lookup is a clean miss, not a repeated parse failure.
    EXPECT_EQ(readArtifact(path, "yasim-test", 1).status,
              ArtifactStatus::Missing);
}

// ---------------------------------------------------- injected faults

TEST(ArtifactIo, InjectedCorruptionQuarantinesAndReports)
{
    ScratchDir scratch("yasim_artifact_injected");
    const std::string path = scratch.file("bits.art");
    {
        failpoint::ScopedSchedule off("");
        ASSERT_TRUE(writeArtifact(path, "yasim-test", 1, "payload").ok);
    }
    failpoint::ScopedSchedule sched("io.read.corrupt=always");
    ArtifactReadResult read = readArtifact(path, "yasim-test", 1);
    EXPECT_EQ(read.status, ArtifactStatus::Corrupt);
    EXPECT_TRUE(read.quarantined);
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
}

TEST(ArtifactIo, TransientOpenRetriesThenSucceeds)
{
    ScratchDir scratch("yasim_artifact_transient");
    const std::string path = scratch.file("retry.art");
    {
        failpoint::ScopedSchedule off("");
        ASSERT_TRUE(writeArtifact(path, "yasim-test", 1, "payload").ok);
    }
    // after0: the very first open fails once, the retry succeeds.
    failpoint::ScopedSchedule sched("io.open.transient=after0");
    ArtifactReadResult read = readArtifact(path, "yasim-test", 1);
    ASSERT_EQ(read.status, ArtifactStatus::Ok) << read.error;
    EXPECT_EQ(read.payload, "payload");
    EXPECT_EQ(read.retries, 1u);
}

TEST(ArtifactIo, PersistentTransientOpenGivesUpGracefully)
{
    ScratchDir scratch("yasim_artifact_transient_hard");
    const std::string path = scratch.file("never.art");
    {
        failpoint::ScopedSchedule off("");
        ASSERT_TRUE(writeArtifact(path, "yasim-test", 1, "payload").ok);
    }
    failpoint::ScopedSchedule sched("io.open.transient=always");
    ArtifactReadResult read = readArtifact(path, "yasim-test", 1);
    EXPECT_EQ(read.status, ArtifactStatus::Transient);
    EXPECT_GE(read.retries, 1u);
    // The file itself is fine: it must NOT have been quarantined.
    EXPECT_TRUE(fs::exists(path));
}

TEST(ArtifactIo, TornWriteIsCaughtByTheNextRead)
{
    ScratchDir scratch("yasim_artifact_torn");
    const std::string path = scratch.file("torn.art");
    {
        // A short write publishes a torn frame (like a power cut after
        // rename but before the data hit the platter).
        failpoint::ScopedSchedule sched("io.write.short=always");
        writeArtifact(path, "yasim-test", 1,
                      std::string(4096, 'x'));
    }
    failpoint::ScopedSchedule off("");
    ArtifactReadResult read = readArtifact(path, "yasim-test", 1);
    EXPECT_EQ(read.status, ArtifactStatus::Corrupt);
    EXPECT_FALSE(fs::exists(path));
}

TEST(ArtifactIo, FailedRenameLeavesNoFileBehind)
{
    ScratchDir scratch("yasim_artifact_rename");
    const std::string path = scratch.file("renamed.art");
    failpoint::ScopedSchedule sched("io.rename.fail=always");
    ArtifactWriteResult wrote =
        writeArtifact(path, "yasim-test", 1, "payload");
    EXPECT_FALSE(wrote.ok);
    // Neither the target nor any temp file survives.
    int files = 0;
    for (const auto &entry : fs::directory_iterator(scratch.str()))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 0);
}

// ------------------------------------------------------------- batches

/** Regular files in @p dir. */
int
fileCount(const std::string &dir)
{
    int files = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        files += entry.is_regular_file() ? 1 : 0;
    return files;
}

TEST(ArtifactIo, BatchPublishesOnlyAfterItsBarrier)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_batch");
    int published = 0;
    {
        ArtifactBatch batch(scratch.str());
        for (int i = 0; i < 3; ++i) {
            ASSERT_TRUE(batch
                            .stage(scratch.file("f" + std::to_string(i)),
                                   "yasim-test", 1,
                                   "payload " + std::to_string(i),
                                   [&] { ++published; })
                            .ok);
        }
        // Staged is not published: three temps, no final name.
        EXPECT_EQ(fileCount(scratch.str()), 3);
        for (int i = 0; i < 3; ++i)
            EXPECT_FALSE(fs::exists(scratch.file("f" + std::to_string(i))));
        EXPECT_EQ(published, 0);

        const ArtifactPublishResult result = batch.publish();
        EXPECT_EQ(result.staged, 3u);
        EXPECT_TRUE(result.barrierError.empty());
        EXPECT_EQ(result.published, 3u);
        EXPECT_TRUE(result.errors.empty());
        EXPECT_EQ(published, 3);
        // Nothing is left staged, so a second publish issues no barrier.
        EXPECT_EQ(batch.publish().staged, 0u);
    }
    EXPECT_EQ(fileCount(scratch.str()), 3);
    for (int i = 0; i < 3; ++i) {
        ArtifactReadResult read = readArtifact(
            scratch.file("f" + std::to_string(i)), "yasim-test", 1);
        ASSERT_EQ(read.status, ArtifactStatus::Ok);
        EXPECT_EQ(read.payload, "payload " + std::to_string(i));
    }

    // A batch destroyed unpublished takes its temps with it.
    {
        ArtifactBatch batch(scratch.str());
        ASSERT_TRUE(
            batch.stage(scratch.file("dropped"), "yasim-test", 1, "x").ok);
        EXPECT_EQ(fileCount(scratch.str()), 4);
    }
    EXPECT_EQ(fileCount(scratch.str()), 3);
}

TEST(ArtifactIo, FailedBarrierPublishesNothing)
{
    ScratchDir scratch("yasim_artifact_barrier");
    failpoint::ScopedSchedule sched("io.sync.fail=always");
    ArtifactBatch batch(scratch.str());
    int published = 0;
    for (const char *name : {"a", "b"})
        ASSERT_TRUE(batch
                        .stage(scratch.file(name), "yasim-test", 1, name,
                               [&] { ++published; })
                        .ok);
    const ArtifactPublishResult result = batch.publish();
    EXPECT_EQ(result.staged, 2u);
    EXPECT_FALSE(result.barrierError.empty());
    EXPECT_EQ(result.published, 0u);
    EXPECT_EQ(published, 0);
    // Neither a final name nor a temp survives.
    EXPECT_EQ(fileCount(scratch.str()), 0);
}

TEST(ArtifactIo, StagedWritesFireTheWriteFailpoints)
{
    ScratchDir scratch("yasim_artifact_staged_faults");
    {
        // A short staged write publishes a torn frame, as writeArtifact
        // does, and the next read catches it.
        failpoint::ScopedSchedule sched("io.write.short=always");
        ArtifactBatch batch(scratch.str());
        ASSERT_TRUE(batch
                        .stage(scratch.file("torn"), "yasim-test", 1,
                               std::string(4096, 'x'))
                        .ok);
        EXPECT_EQ(batch.publish().published, 1u);
    }
    {
        failpoint::ScopedSchedule off("");
        EXPECT_EQ(readArtifact(scratch.file("torn"), "yasim-test", 1).status,
                  ArtifactStatus::Corrupt);
    }
    {
        // A failed rename drops its own file and removes its temp; the
        // rest of the batch is published.
        failpoint::ScopedSchedule sched("io.rename.fail=after1");
        ArtifactBatch batch(scratch.str());
        for (const char *name : {"a", "b", "c"})
            ASSERT_TRUE(
                batch.stage(scratch.file(name), "yasim-test", 1, name).ok);
        const ArtifactPublishResult result = batch.publish();
        EXPECT_EQ(result.published, 2u);
        ASSERT_EQ(result.errors.size(), 1u);
        EXPECT_NE(result.errors[0].find("injected rename failure"),
                  std::string::npos);
    }
    {
        // An open that keeps failing stages nothing.
        failpoint::ScopedSchedule sched("io.open.transient=always");
        ArtifactBatch batch(scratch.str());
        EXPECT_FALSE(
            batch.stage(scratch.file("never"), "yasim-test", 1, "x").ok);
        EXPECT_EQ(batch.publish().staged, 0u);
    }
    // The quarantined torn file and two of a, b and c.
    EXPECT_EQ(fileCount(scratch.str()), 3);
    EXPECT_FALSE(fs::exists(scratch.file("never")));
}

// ------------------------------------------------------------ eviction

TEST(ArtifactIo, EvictsOldestFilesDownToBudget)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_evict");
    // Three 1000-byte artifacts with strictly increasing mtimes,
    // derived from the first file's mtime (no wall-clock reads).
    const std::string payload(900, 'p');
    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
        std::string path = scratch.file("f" + std::to_string(i));
        ASSERT_TRUE(writeArtifact(path, "yasim-test", 1, payload).ok);
        paths.push_back(path);
    }
    fs::file_time_type base = fs::last_write_time(paths[0]);
    for (int i = 0; i < 3; ++i)
        fs::last_write_time(paths[i],
                            base + std::chrono::seconds(i + 1));
    uint64_t each = fs::file_size(paths[0]);

    // Budget fits two files: the oldest one goes.
    EXPECT_EQ(evictToBudget(scratch.str(), 2 * each), 1u);
    EXPECT_FALSE(fs::exists(paths[0]));
    EXPECT_TRUE(fs::exists(paths[1]));
    EXPECT_TRUE(fs::exists(paths[2]));

    // Already under budget: nothing happens.
    EXPECT_EQ(evictToBudget(scratch.str(), 2 * each), 0u);

    // Even an impossible budget never evicts the newest artifact.
    EXPECT_EQ(evictToBudget(scratch.str(), 1), 1u);
    EXPECT_TRUE(fs::exists(paths[2]));
}

TEST(ArtifactIo, EvictionSkipsInFlightTempFiles)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_evict_tmp");
    dump(scratch.file("a.art.tmp.123.456"), std::string(10000, 't'));
    dump(scratch.file("real.art"), std::string(100, 'r'));
    EXPECT_EQ(evictToBudget(scratch.str(), 500), 0u);
    EXPECT_TRUE(fs::exists(scratch.file("a.art.tmp.123.456")));
    EXPECT_TRUE(fs::exists(scratch.file("real.art")));
}

TEST(ArtifactIo, EvictionCountsSubdirectories)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_evict_tree");
    // A cache dir whose bulk sits below the top level, as the warm/
    // and live-point directories of older builds do: two artifacts in
    // subdirectories, one nested, and a newer one at the top.
    fs::create_directories(scratch.file("livepoints"));
    fs::create_directories(scratch.file("warm/deep"));
    const std::string payload(900, 'p');
    const std::vector<std::string> paths = {
        scratch.file("livepoints/lp-1.lvpt"),
        scratch.file("warm/deep/w-1.warm"), scratch.file("top.result")};
    for (const std::string &path : paths)
        ASSERT_TRUE(writeArtifact(path, "yasim-test", 1, payload).ok);
    fs::file_time_type base = fs::last_write_time(paths[0]);
    for (size_t i = 0; i < paths.size(); ++i)
        fs::last_write_time(paths[i],
                            base + std::chrono::seconds(i + 1));
    // An in-flight temp file below the top level stays untouched too.
    dump(scratch.file("warm/w-2.warm.tmp.1.2"), std::string(10000, 't'));
    uint64_t each = fs::file_size(paths[0]);

    // Budget fits one file: both subdirectory artifacts go, oldest
    // first, and the newest survives.
    EXPECT_EQ(evictToBudget(scratch.str(), each), 2u);
    EXPECT_FALSE(fs::exists(paths[0]));
    EXPECT_FALSE(fs::exists(paths[1]));
    EXPECT_TRUE(fs::exists(paths[2]));
    EXPECT_TRUE(fs::exists(scratch.file("warm/w-2.warm.tmp.1.2")));
}

// -------------------------------------------------------- ArtifactDir

TEST(ArtifactDir, SortsEveryReadOutcomeOneWayAndWarnsOnce)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_dir_reads");
    ArtifactDir files(scratch.str(), "yasim-test", 2, ".art", 0);
    for (const char *key : {"ok", "rotten", "rejected"})
        files.store(key, "payload", nullptr);
    std::string rotten = slurp(files.path("rotten"));
    rotten[rotten.size() / 2] ^= 0x01;
    dump(files.path("rotten"), rotten);
    ASSERT_TRUE(
        writeArtifact(files.path("stale"), "yasim-test", 1, "payload").ok);

    const auto accept = [](const std::string &payload) {
        return payload == "payload";
    };
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(files.load("ok", accept));
    EXPECT_FALSE(files.load("missing", accept));
    EXPECT_FALSE(files.load("stale", accept));
    EXPECT_FALSE(files.load("rotten", accept));
    EXPECT_FALSE(
        files.load("rejected", [](const std::string &) { return false; }));
    {
        failpoint::ScopedSchedule sched("io.open.transient=always");
        EXPECT_FALSE(files.load("ok", accept));
    }
    const std::string warnings = ::testing::internal::GetCapturedStderr();

    // Two corrupt reads and an unreadable one: one warning, no more.
    size_t warned = 0;
    for (size_t at = warnings.find("warn: "); at != std::string::npos;
         at = warnings.find("warn: ", at + 1))
        ++warned;
    EXPECT_EQ(warned, 1u) << warnings;
    const ArtifactDirCounters c = files.counters();
    EXPECT_EQ(c.loads, 1u);
    EXPECT_EQ(c.writes, 3u);
    EXPECT_EQ(c.barriers, 0u);
    EXPECT_EQ(c.corrupt, 2u);
    EXPECT_EQ(c.versionMisses, 1u);
    EXPECT_EQ(c.unreadable, 1u);
    EXPECT_GE(c.ioRetries, 1u);
    // Rot is quarantined; a stale generation is deleted.
    EXPECT_TRUE(fs::exists(files.path("rotten") + ".corrupt"));
    EXPECT_TRUE(fs::exists(files.path("rejected") + ".corrupt"));
    EXPECT_FALSE(fs::exists(files.path("stale")));
    EXPECT_TRUE(fs::exists(files.path("ok")));
}

TEST(ArtifactDir, ReclaimsOnlyTheTempsOfDeadWriters)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_artifact_dir_temps");
    // A writer that has exited: its pid names no running process.
    const pid_t dead = ::fork();
    ASSERT_NE(dead, -1);
    if (dead == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);

    const std::string mine = std::to_string(::getpid());
    const std::string gone = std::to_string(dead);
    const std::vector<std::string> kept = {
        "a.result.tmp." + mine + ".0", "b.result",
        "c.result.tmp.x.1", "d.result.tmp." + gone,
        "e.result.tmp." + gone + ".1.corrupt"};
    for (const std::string &name : kept)
        dump(scratch.file(name), "x");
    dump(scratch.file("f.result.tmp." + gone + ".7"), "x");
    dump(scratch.file("g.trace.tmp." + gone + ".8"), "x");

    ArtifactDir files(scratch.str(), "yasim-test", 1, ".result", 0);
    EXPECT_EQ(files.reclaimStaleTemps(), 2u);
    EXPECT_EQ(fileCount(scratch.str()), static_cast<int>(kept.size()));
    for (const std::string &name : kept)
        EXPECT_TRUE(fs::exists(scratch.file(name))) << name;
}

} // namespace
} // namespace yasim
