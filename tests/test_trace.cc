/**
 * @file
 * Tests for the execution-trace record/replay subsystem: bit-identity
 * of the replayed stream and warming against the functional
 * interpreter, and of a profiled detailed pass against the
 * interpreter's run; serialization round trips and rejection; the
 * shared TraceStore (dedup, concurrency, disk spill, LRU eviction);
 * every technique family against results pinned from live
 * interpretation; and the engine wiring that makes a whole
 * configuration sweep cost exactly one functional interpretation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hh"
#include "sim/bb_profiler.hh"
#include "sim/config.hh"
#include "sim/functional.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "support/artifact_io.hh"
#include "support/failpoint.hh"
#include "support/rng.hh"
#include "techniques/full_reference.hh"
#include "techniques/random_sampling.hh"
#include "techniques/reduced_input.hh"
#include "techniques/service.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/trace_store.hh"
#include "techniques/truncated.hh"

#include "result_digest.hh"

namespace yasim {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kRefInsts = 150'000;

SuiteConfig
tinySuite()
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    return suite;
}

/** Bitwise double equality — replay promises bit-identical results. */
bool
bitEq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
bitEq(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!bitEq(a[i], b[i]))
            return false;
    return true;
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.l1iAccesses, b.l1iAccesses);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.trivialOps, b.trivialOps);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.memStallCycles, b.memStallCycles);
}

/** A scratch cache directory wiped before and after each use. */
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

  private:
    fs::path dir;
};

std::shared_ptr<const ExecTrace>
recordGzip()
{
    Workload w = buildWorkload("gzip", InputSet::Reference, tinySuite());
    return ExecTrace::record(w.program);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
dump(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

void
expectSameRecord(const ExecRecord &a, const ExecRecord &b, uint64_t at)
{
    ASSERT_NE(a.inst, nullptr) << "at instruction " << at;
    ASSERT_NE(b.inst, nullptr) << "at instruction " << at;
    ASSERT_EQ(a.inst->op, b.inst->op) << "at instruction " << at;
    ASSERT_EQ(a.pc, b.pc) << "at instruction " << at;
    ASSERT_EQ(a.nextPc, b.nextPc) << "at instruction " << at;
    ASSERT_EQ(a.memAddr, b.memAddr) << "at instruction " << at;
    ASSERT_EQ(a.taken, b.taken) << "at instruction " << at;
    ASSERT_EQ(a.trivial, b.trivial) << "at instruction " << at;
}

// ------------------------------------------------- stream bit-identity

TEST(Trace, RecordCapturesFullRunAndProfile)
{
    Workload w = buildWorkload("gzip", InputSet::Reference, tinySuite());
    auto trace = ExecTrace::record(w.program);

    FunctionalSim fsim(w.program);
    BbProfiler profiler(w.program);
    ExecRecord rec;
    while (fsim.step(rec))
        profiler.record(rec.pc);

    EXPECT_EQ(trace->length(), fsim.instsExecuted());
    EXPECT_TRUE(bitEq(trace->bbef(), profiler.bbef()));
    EXPECT_TRUE(bitEq(trace->bbv(), profiler.bbv()));
    EXPECT_GT(trace->footprintBytes(), 0u);
}

TEST(Trace, ReplayedStepStreamIsBitIdentical)
{
    Workload w = buildWorkload("gzip", InputSet::Reference, tinySuite());
    auto trace = ExecTrace::record(w.program);

    FunctionalSim live(w.program);
    TraceReplayer replay(trace);
    ExecRecord lrec, rrec;
    uint64_t n = 0;
    while (true) {
        bool lmore = live.step(lrec);
        bool rmore = replay.step(rrec);
        ASSERT_EQ(lmore, rmore) << "stream lengths diverge at " << n;
        if (!lmore)
            break;
        ASSERT_EQ(lrec.pc, rrec.pc) << "at instruction " << n;
        ASSERT_EQ(lrec.nextPc, rrec.nextPc) << "at instruction " << n;
        ASSERT_EQ(lrec.memAddr, rrec.memAddr) << "at instruction " << n;
        ASSERT_EQ(lrec.taken, rrec.taken) << "at instruction " << n;
        ASSERT_EQ(lrec.trivial, rrec.trivial) << "at instruction " << n;
        ++n;
    }
    EXPECT_EQ(n, trace->length());
    EXPECT_TRUE(replay.halted());
    EXPECT_EQ(replay.instsExecuted(), trace->length());
}

TEST(Trace, FastForwardThenStepMatchesLive)
{
    Workload w = buildWorkload("gzip", InputSet::Reference, tinySuite());
    auto trace = ExecTrace::record(w.program);
    const uint64_t skip = trace->length() / 3;

    FunctionalSim live(w.program);
    TraceReplayer replay(trace);
    EXPECT_EQ(live.fastForward(skip), replay.fastForward(skip));
    EXPECT_EQ(live.instsExecuted(), replay.instsExecuted());

    ExecRecord lrec, rrec;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(live.step(lrec), replay.step(rrec));
        ASSERT_EQ(lrec.pc, rrec.pc);
        ASSERT_EQ(lrec.nextPc, rrec.nextPc);
        ASSERT_EQ(lrec.memAddr, rrec.memAddr);
    }

    // Fast-forwarding past the end clamps identically.
    EXPECT_EQ(live.fastForward(~0ULL), replay.fastForward(~0ULL));
    EXPECT_TRUE(replay.halted());
}

TEST(Trace, WarmingSequenceIsBitIdentical)
{
    // The replayer warms the I side once per L1-I block run, the
    // interpreter once per instruction; the tables may differ only in
    // LRU stamp values, so a detailed tail sees the same hits, misses
    // and victims. Cases: both benchmarks, a PB row with a 16-byte
    // direct-mapped L1-I (the shortest block runs, every fill a
    // victim), and FIFO and random L1-I replacement.
    const std::vector<SimConfig> envelope = envelopeConfigs();
    const auto tiny_l1i = std::find_if(
        envelope.begin(), envelope.end(), [](const SimConfig &c) {
            return c.mem.l1i.blockBytes == 16 && c.mem.l1i.assoc == 1;
        });
    ASSERT_NE(tiny_l1i, envelope.end());
    SimConfig fifo = architecturalConfig(2);
    fifo.mem.l1i.replacement = ReplacementPolicy::Fifo;
    SimConfig random = architecturalConfig(2);
    random.mem.l1i.replacement = ReplacementPolicy::Random;
    const std::vector<std::pair<const char *, SimConfig>> cases = {
        {"gzip", architecturalConfig(2)},
        {"mcf", architecturalConfig(2)},
        {"gzip", *tiny_l1i},
        {"gzip", fifo},
        {"gzip", random},
    };

    for (const auto &[bench, config] : cases) {
        SCOPED_TRACE(std::string(bench) + " " + config.name + " L1-I " +
                     replacementPolicyName(config.mem.l1i.replacement));
        Workload w = buildWorkload(bench, InputSet::Reference, tinySuite());
        auto trace = ExecTrace::record(w.program);
        const uint64_t warm = trace->length() / 2;

        // The interpreter warms the reference core; both detailed
        // tails then replay the recording from the warm point.
        FunctionalSim live(w.program);
        OooCore live_core(config);
        live.fastForwardWarm(warm, &live_core.memHierarchy(),
                             &live_core.predictor());
        TraceReplayer live_tail(trace);
        live_tail.seek(warm);
        live_core.run(live_tail, 20'000);

        TraceReplayer replay(trace);
        OooCore replay_core(config);
        replay.fastForwardWarm(warm, &replay_core.memHierarchy(),
                               &replay_core.predictor());
        replay_core.run(replay, 20'000);

        expectSameStats(live_core.snapshot(), replay_core.snapshot());
    }
}

TEST(Trace, DetailedSimIsBitIdenticalAcrossConfigs)
{
    // The core reads nothing but the replayed records, which the
    // StepBatch tests hold to the interpreter. What is left to check
    // per configuration: a profiled detailed pass commits the
    // interpreter's whole run and attributes it exactly as the
    // interpreter's own profile does.
    Workload w = buildWorkload("gzip", InputSet::Reference, tinySuite());
    auto trace = ExecTrace::record(w.program);

    FunctionalSim live(w.program);
    BbProfiler live_prof(w.program);
    ExecRecord rec;
    while (live.step(rec))
        live_prof.record(rec.pc);

    for (int idx : {1, 2, 4}) {
        TraceReplayer replay(trace);
        OooCore replay_core(architecturalConfig(idx));
        BbProfiler replay_prof(trace->program());
        uint64_t replay_done =
            replay_core.run(replay, ~0ULL, &replay_prof);

        EXPECT_EQ(live.instsExecuted(), replay_done) << "config " << idx;
        EXPECT_EQ(replay_core.snapshot().instructions, replay_done);
        EXPECT_TRUE(bitEq(live_prof.bbef(), replay_prof.bbef()));
        EXPECT_TRUE(bitEq(live_prof.bbv(), replay_prof.bbv()));
    }
}

// --------------------------------------------------- batched stepping

TEST(Trace, StepBatchMatchesStepForBothSources)
{
    Workload w = buildWorkload("gzip", InputSet::Reference, tinySuite());
    auto trace = ExecTrace::record(w.program);

    // Per-step reference stream from the live interpreter.
    std::vector<ExecRecord> ref;
    {
        FunctionalSim sim(w.program);
        ExecRecord rec;
        while (sim.step(rec))
            ref.push_back(rec);
    }
    ASSERT_EQ(ref.size(), trace->length());

    // Both sources, several span shapes: single-record, odd, around
    // the 64Ki chunk size, and larger than a whole chunk.
    for (uint64_t batch : {uint64_t(1), uint64_t(7), uint64_t(256),
                           uint64_t(65535), uint64_t(65536),
                           uint64_t(65537), uint64_t(100000)}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        FunctionalSim live(w.program);
        TraceReplayer replay(trace);
        std::vector<ExecRecord> lbuf(batch), rbuf(batch);

        EXPECT_EQ(live.stepBatch(lbuf.data(), 0), 0u);
        EXPECT_EQ(replay.stepBatch(rbuf.data(), 0), 0u);

        uint64_t at = 0;
        for (;;) {
            uint64_t ln = live.stepBatch(lbuf.data(), batch);
            uint64_t rn = replay.stepBatch(rbuf.data(), batch);
            ASSERT_EQ(ln, rn) << "at instruction " << at;
            if (ln == 0)
                break;
            ASSERT_LE(at + ln, ref.size());
            for (uint64_t i = 0; i < ln; ++i) {
                expectSameRecord(lbuf[i], ref[at + i], at + i);
                expectSameRecord(rbuf[i], ref[at + i], at + i);
            }
            at += ln;
        }
        EXPECT_EQ(at, ref.size());
        EXPECT_TRUE(live.halted());
        EXPECT_TRUE(replay.halted());
        // An exhausted source keeps returning 0.
        EXPECT_EQ(live.stepBatch(lbuf.data(), batch), 0u);
        EXPECT_EQ(replay.stepBatch(rbuf.data(), batch), 0u);
    }
}

TEST(Trace, StepBatchBoundaryFuzz)
{
    // Randomized span shapes biased onto the 64Ki chunk edges, plus
    // interleaved step() calls, n = 0 requests, and a final ask past
    // Halt. Live and replayed sources must stay in lockstep through
    // all of it.
    Workload w = buildWorkload("gzip", InputSet::Reference, tinySuite());
    auto trace = ExecTrace::record(w.program);
    ASSERT_GT(trace->length(), uint64_t(2) * 65536) <<
        "fuzz needs a multi-chunk trace";

    Rng rng(11);
    constexpr uint64_t kMaxSpan = 70000;
    std::vector<ExecRecord> lbuf(kMaxSpan), rbuf(kMaxSpan);
    FunctionalSim live(w.program);
    TraceReplayer replay(trace);

    uint64_t pos = 0;
    for (;;) {
        uint64_t want;
        switch (rng.nextBelow(5)) {
          case 0: // land exactly on / just past the next chunk edge
            want = (65536 - (pos & 65535)) + rng.nextBelow(3);
            break;
          case 1:
            want = rng.nextBelow(2); // 0 or 1
            break;
          default:
            want = rng.nextBelow(9000);
            break;
        }
        want = std::min(want, kMaxSpan);

        if (rng.nextBelow(4) == 0) {
            // Mid-stream per-step calls must interleave cleanly.
            ExecRecord lrec, rrec;
            bool lmore = live.step(lrec);
            ASSERT_EQ(lmore, replay.step(rrec));
            if (lmore) {
                expectSameRecord(lrec, rrec, pos);
                ++pos;
            }
        }

        uint64_t ln = live.stepBatch(lbuf.data(), want);
        uint64_t rn = replay.stepBatch(rbuf.data(), want);
        ASSERT_EQ(ln, rn) << "at instruction " << pos;
        ASSERT_LE(ln, want);
        for (uint64_t i = 0; i < ln; ++i)
            expectSameRecord(lbuf[i], rbuf[i], pos + i);
        pos += ln;
        if (want > 0 && ln == 0)
            break;
    }
    EXPECT_TRUE(live.halted());
    EXPECT_TRUE(replay.halted());
    EXPECT_EQ(pos, trace->length());
    EXPECT_EQ(replay.instsExecuted(), trace->length());

    // Asking for far more than remains must clamp, not overrun: rerun
    // to just short of Halt, then drain with one oversized request.
    TraceReplayer tail(trace);
    ASSERT_EQ(tail.fastForward(trace->length() - 5),
              trace->length() - 5);
    EXPECT_EQ(tail.stepBatch(rbuf.data(), kMaxSpan), 5u);
    EXPECT_TRUE(tail.halted());
}

// ------------------------------------------------------- serialization

TEST(Trace, SerializationRoundTripsBitIdentically)
{
    auto trace = recordGzip();
    const std::string key = "test-key|gzip";

    std::stringstream buffer;
    trace->write(buffer, key);
    auto loaded = ExecTrace::read(buffer, key, trace->program());
    ASSERT_NE(loaded, nullptr);

    EXPECT_EQ(loaded->length(), trace->length());
    EXPECT_TRUE(bitEq(loaded->bbef(), trace->bbef()));
    EXPECT_TRUE(bitEq(loaded->bbv(), trace->bbv()));

    TraceReplayer a(trace), b(loaded);
    ExecRecord ra, rb;
    while (true) {
        bool amore = a.step(ra);
        ASSERT_EQ(amore, b.step(rb));
        if (!amore)
            break;
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.nextPc, rb.nextPc);
        ASSERT_EQ(ra.memAddr, rb.memAddr);
        ASSERT_EQ(ra.taken, rb.taken);
        ASSERT_EQ(ra.trivial, rb.trivial);
    }
}

TEST(Trace, ReadRejectsMismatchedKeyVersionAndTruncation)
{
    auto trace = recordGzip();
    std::stringstream buffer;
    trace->write(buffer, "the-right-key");
    const std::string payload = buffer.str();

    {
        std::stringstream in(payload);
        EXPECT_EQ(ExecTrace::read(in, "the-wrong-key",
                                  trace->program()),
                  nullptr);
    }
    {
        // A bumped format version must read as a miss.
        std::string tampered = payload;
        tampered.replace(tampered.find('\n') - 1, 1, "9");
        std::stringstream in(tampered);
        EXPECT_EQ(
            ExecTrace::read(in, "the-right-key", trace->program()),
            nullptr);
    }
    {
        std::stringstream in(
            payload.substr(0, payload.size() - 16));
        EXPECT_EQ(
            ExecTrace::read(in, "the-right-key", trace->program()),
            nullptr);
    }
    {
        // A structurally different program must read as a miss.
        Workload other =
            buildWorkload("mcf", InputSet::Reference, tinySuite());
        std::stringstream in(payload);
        EXPECT_EQ(ExecTrace::read(in, "the-right-key", other.program),
                  nullptr);
    }
}

TEST(Trace, CompressedSpillStaysUnderTheByteBudget)
{
    // The delta/byte-plane encoding's reason to exist: the on-disk
    // footprint must stay at or under 6 bytes per dynamic instruction
    // (the raw SoA rows were 13), header and profiles included. Checked
    // on the test scale and on the default 2M-instruction reference
    // run; the same bound is gated on an 8M-instruction trace by
    // `microbench --json`.
    SuiteConfig default_scale;
    for (const SuiteConfig &suite : {tinySuite(), default_scale}) {
        Workload w = buildWorkload("gzip", InputSet::Reference, suite);
        auto trace = ExecTrace::record(w.program);
        std::ostringstream os;
        trace->write(os, "budget-key");
        const double bytes_per_inst =
            static_cast<double>(os.str().size()) /
            static_cast<double>(trace->length());
        EXPECT_LE(bytes_per_inst, 6.0)
            << trace->length() << "-instruction trace";
    }
}

// ---------------------------------------------------------- the store

TEST(TraceStore, DedupsRepeatedRequests)
{
    TraceStore store;
    auto a = store.get("gzip", InputSet::Reference, tinySuite());
    auto b = store.get("gzip", InputSet::Reference, tinySuite());
    EXPECT_EQ(a.get(), b.get());

    TraceCounters ctr = store.counters();
    EXPECT_EQ(ctr.recordings, 1u);
    EXPECT_EQ(ctr.hits, 1u);
    EXPECT_EQ(ctr.instsRecorded, a->length());
    EXPECT_GE(ctr.bytesInMemory, a->footprintBytes());

    // A different input set is a different stream, not a hit.
    auto small = store.get("gzip", InputSet::Small, tinySuite());
    EXPECT_NE(small.get(), a.get());
    EXPECT_NE(small->length(), 0u);
    EXPECT_EQ(store.counters().recordings, 2u);
}

TEST(TraceStore, ConcurrentRequestsRecordOnce)
{
    TraceStore store;
    std::vector<std::shared_ptr<const ExecTrace>> traces(8);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < traces.size(); ++t)
        threads.emplace_back([&, t] {
            traces[t] =
                store.get("gzip", InputSet::Reference, tinySuite());
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(store.counters().recordings, 1u);
    for (size_t t = 1; t < traces.size(); ++t)
        EXPECT_EQ(traces[t].get(), traces[0].get());
}

TEST(TraceStore, ConcurrentReplayersShareOneTrace)
{
    TraceStore store;
    auto trace = store.get("gzip", InputSet::Reference, tinySuite());
    const SimConfig config = architecturalConfig(2);

    OooCore serial(config);
    TraceReplayer serial_replay(trace);
    serial.run(serial_replay, ~0ULL);
    const uint64_t expected_cycles = serial.cycles();

    // Each worker replays the same shared recording to completion on
    // its own core; under TSan this doubles as a data-race check on the
    // read-only trace.
    std::vector<uint64_t> cycles(4, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < cycles.size(); ++t)
        threads.emplace_back([&, t] {
            OooCore core(config);
            TraceReplayer replay(trace);
            core.run(replay, ~0ULL);
            cycles[t] = core.cycles();
        });
    for (std::thread &thread : threads)
        thread.join();
    for (uint64_t c : cycles)
        EXPECT_EQ(c, expected_cycles);
}

TEST(TraceStore, SpillsToDiskAndReloadsBitIdentically)
{
    // Pin the schedule: the exact disk counters below assume no
    // injected faults even under a CI YASIM_FAILPOINTS job.
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_trace_spill");
    TraceStoreOptions options;
    options.cacheDir = scratch.str();

    std::shared_ptr<const ExecTrace> fresh;
    {
        TraceStore warm(options);
        fresh = warm.get("gzip", InputSet::Reference, tinySuite());
        EXPECT_EQ(warm.counters().recordings, 1u);
        EXPECT_EQ(warm.counters().diskWrites, 1u);
    }

    TraceStore cold(options);
    auto loaded = cold.get("gzip", InputSet::Reference, tinySuite());
    EXPECT_EQ(cold.counters().recordings, 0u);
    EXPECT_EQ(cold.counters().diskLoads, 1u);

    EXPECT_EQ(loaded->length(), fresh->length());
    EXPECT_TRUE(bitEq(loaded->bbef(), fresh->bbef()));
    EXPECT_TRUE(bitEq(loaded->bbv(), fresh->bbv()));

    TraceReplayer a(fresh), b(loaded);
    ExecRecord ra, rb;
    while (true) {
        bool amore = a.step(ra);
        ASSERT_EQ(amore, b.step(rb));
        if (!amore)
            break;
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.memAddr, rb.memAddr);
    }
}

TEST(TraceStore, CorruptSpillReadsAsMissAndRerecords)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_trace_corrupt");
    TraceStoreOptions options;
    options.cacheDir = scratch.str();
    {
        TraceStore warm(options);
        warm.get("gzip", InputSet::Reference, tinySuite());
    }
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.is_regular_file()) {
            std::ofstream out(entry.path(), std::ios::trunc);
            out << "not a trace\n";
        }

    TraceStore cold(options);
    auto trace = cold.get("gzip", InputSet::Reference, tinySuite());
    ASSERT_NE(trace, nullptr);
    EXPECT_GT(trace->length(), 0u);
    EXPECT_EQ(cold.counters().recordings, 1u);
    EXPECT_EQ(cold.counters().diskLoads, 0u);
    // The bad spill was quarantined, counted, and re-spilled: the
    // original file name holds a fresh valid artifact, the rot sits in
    // a .corrupt file beside it.
    EXPECT_GE(cold.counters().quarantined, 1u);
    int corrupt_files = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.path().string().ends_with(".corrupt"))
            ++corrupt_files;
    EXPECT_GE(corrupt_files, 1);

    TraceStore again(options);
    auto reloaded = again.get("gzip", InputSet::Reference, tinySuite());
    EXPECT_EQ(again.counters().diskLoads, 1u);
    EXPECT_EQ(reloaded->length(), trace->length());
}

TEST(TraceStore, TruncatedOrBitFlippedSpillsHealByRecompute)
{
    // Damage sweep over the compressed spill, mirroring the framed
    // fuzz in tests/test_service.cc: whatever byte we truncate at or
    // flip, the store must treat the file as a miss and recompute a
    // bit-identical trace — never crash, never return wrong records.
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_trace_damage");
    TraceStoreOptions options;
    options.cacheDir = scratch.str();

    std::shared_ptr<const ExecTrace> fresh;
    {
        TraceStore warm(options);
        fresh = warm.get("gzip", InputSet::Reference, tinySuite());
    }
    std::string spill_path;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.is_regular_file())
            spill_path = entry.path().string();
    ASSERT_FALSE(spill_path.empty());
    const std::string good = slurp(spill_path);
    ASSERT_FALSE(good.empty());

    auto expect_heals = [&](const std::string &damaged) {
        dump(spill_path, damaged);
        TraceStore cold(options);
        auto healed =
            cold.get("gzip", InputSet::Reference, tinySuite());
        ASSERT_NE(healed, nullptr);
        EXPECT_EQ(cold.counters().diskLoads, 0u);
        EXPECT_EQ(cold.counters().recordings, 1u);
        EXPECT_EQ(healed->length(), fresh->length());
        EXPECT_TRUE(bitEq(healed->bbef(), fresh->bbef()));
        EXPECT_TRUE(bitEq(healed->bbv(), fresh->bbv()));
        // Healing re-spilled a valid artifact; drop quarantines so
        // the next damage pass starts from a clean directory.
        for (const fs::directory_entry &entry :
             fs::directory_iterator(scratch.str()))
            if (entry.path().string().ends_with(".corrupt"))
                fs::remove(entry.path());
    };

    for (size_t keep :
         {size_t(0), size_t(1), good.size() / 4, good.size() / 2,
          good.size() - 1}) {
        SCOPED_TRACE("truncated to " + std::to_string(keep));
        expect_heals(good.substr(0, keep));
    }
    const size_t stride = good.size() / 16 + 1;
    for (size_t at = 0; at < good.size(); at += stride) {
        SCOPED_TRACE("bit flip at " + std::to_string(at));
        std::string bad = good;
        bad[at] ^= 0x10;
        expect_heals(bad);
    }
}

TEST(TraceStore, StaleVersionSpillIsAMissNotCorruption)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_trace_stale");
    TraceStoreOptions options;
    options.cacheDir = scratch.str();
    {
        TraceStore warm(options);
        warm.get("gzip", InputSet::Reference, tinySuite());
    }
    std::string spill_path;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        if (entry.is_regular_file())
            spill_path = entry.path().string();
    ASSERT_FALSE(spill_path.empty());

    // Re-frame the intact payload as the previous format generation —
    // exactly what a spill directory holds across a version bump.
    std::string payload, error;
    ASSERT_TRUE(decodeFrame(slurp(spill_path), "yasim-trace",
                            kTraceFormatVersion, payload, error))
        << error;
    ASSERT_TRUE(writeArtifact(spill_path, "yasim-trace",
                              kTraceFormatVersion - 1, payload)
                    .ok);

    TraceStore cold(options);
    auto trace = cold.get("gzip", InputSet::Reference, tinySuite());
    ASSERT_NE(trace, nullptr);
    TraceCounters ctr = cold.counters();
    EXPECT_EQ(ctr.versionMisses, 1u);
    EXPECT_EQ(ctr.quarantined, 0u);
    EXPECT_EQ(ctr.diskLoads, 0u);
    EXPECT_EQ(ctr.recordings, 1u);
    // The stale file was deleted, not quarantined, and the healed
    // spill took its place.
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        EXPECT_FALSE(entry.path().string().ends_with(".corrupt"))
            << entry.path();

    TraceStore again(options);
    auto reloaded =
        again.get("gzip", InputSet::Reference, tinySuite());
    ASSERT_NE(reloaded, nullptr);
    EXPECT_EQ(again.counters().diskLoads, 1u);
    EXPECT_EQ(again.counters().versionMisses, 0u);
    EXPECT_EQ(reloaded->length(), trace->length());
}

TEST(TraceStore, SpillBudgetBoundsTheDirectory)
{
    failpoint::ScopedSchedule off("");
    ScratchDir scratch("yasim_trace_budget");
    TraceStoreOptions options;
    options.cacheDir = scratch.str();
    options.cacheBudgetBytes = 1; // only the newest spill may survive

    TraceStore store(options);
    store.get("gzip", InputSet::Reference, tinySuite());
    store.get("mcf", InputSet::Reference, tinySuite());
    EXPECT_GE(store.counters().budgetEvictions, 1u);

    int files = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scratch.str()))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1);
}

TEST(TraceStore, EvictsLeastRecentlyUsedPastByteBudget)
{
    TraceStoreOptions options;
    options.maxBytes = 1; // every insertion is over budget
    TraceStore store(options);

    // While the caller still holds the trace it cannot be evicted.
    auto held = store.get("gzip", InputSet::Reference, tinySuite());
    store.get("mcf", InputSet::Reference, tinySuite());
    EXPECT_EQ(store.counters().evictions, 0u);

    // Once released, the next insertion pushes it out.
    held.reset();
    store.get("art", InputSet::Reference, tinySuite());
    EXPECT_GE(store.counters().evictions, 1u);
    auto again = store.get("gzip", InputSet::Reference, tinySuite());
    EXPECT_EQ(store.counters().recordings, 4u); // gzip recorded twice
}

// ------------------------------------------- techniques and the engine

TEST(TraceTechniques, AllFamiliesAreBitIdenticalUnderReplay)
{
    // Every family replays the service's recordings. The expected
    // digests were computed once from the same runs over live
    // functional interpretation (a traceless DirectService) before
    // that path was retired, so replay is still checked against what
    // the interpreter produced — to the last bit of every field.
    DirectService service;
    TechniqueContext ctx = TechniqueContext::make("gzip", tinySuite(),
                                                  service);
    ASSERT_EQ(ctx.traces, service.traceStore());

    // The sharded reference runs one shard worker per slice; its
    // statistics and modeled cost are pinned like everything else.
    const ShardOptions sequential;
    ShardOptions sharded;
    sharded.shards = 4;
    sharded.warmupInsts = 65'536;
    struct Input
    {
        TechniquePtr technique;
        ShardOptions shards;
        /** Live-interpretation digests on configs 1 and 3. */
        const char *config1;
        const char *config3;
    };
    const std::vector<Input> inputs = {
        {std::make_shared<FullReference>(), sequential,
         "13c31eb65ccb3f03de3c1c0dc8972f73",
         "1a6b90711580de09cac2ffcc61ab1983"},
        {std::make_shared<FullReference>(), sharded,
         "894ed19aac03f5678d31385c1491de7a",
         "abfcf875caea0ec156ed3838ea625929"},
        {std::make_shared<ReducedInput>(InputSet::Small), sequential,
         "620ccaccf28741f82ab57b1298e1ca99",
         "c37b2bffd732eb0438ca557b8cacd66a"},
        {std::make_shared<RunZ>(30), sequential,
         "cc36b0c7f1fa84b8633cf015ebd39234",
         "e8c3a7eb09bc34d0410e4f9648fd4929"},
        {std::make_shared<FfRunZ>(50, 10), sequential,
         "0bdc8cd076c106b8c364b79fc1aa1f26",
         "4358363387e423ac6c4b401ccfa44787"},
        {std::make_shared<FfWuRunZ>(40, 10, 10), sequential,
         "77cbbc6485dbf97d78509679637b16d3",
         "77cbbc6485dbf97d78509679637b16d3"},
        {std::make_shared<Smarts>(1000, 2000), sequential,
         "665863f8920cdbf0a654f4b0a4db77f6",
         "7eed4e908f09a4b53b8d893c6aa7b4d7"},
        {std::make_shared<RandomSampling>(20, 500, 500, 7), sequential,
         "7f28b7971f31b435295407ea643ca5a3",
         "4e9a3b65bc4eb6b73191c697e1c089e6"},
        {std::make_shared<SimPoint>(10, 10, 1, "multiple 10M"),
         sequential, "4ed27e5d71c035b2efa79b926fc87a82",
         "06c4d7a88500d7d36d6d5a65abd11ddc"},
    };
    for (int idx : {1, 3}) {
        const SimConfig config = architecturalConfig(idx);
        for (const Input &input : inputs) {
            TechniqueContext in = ctx;
            in.shards = input.shards;
            TechniqueResult replay = input.technique->run(in, config);
            SCOPED_TRACE(input.technique->name() + " x" +
                         std::to_string(input.shards.shards) +
                         " on config " + std::to_string(idx));
            EXPECT_EQ(resultDigest(replay),
                      idx == 1 ? input.config1 : input.config3);
        }
    }
    // Reference + reduced streams were each recorded exactly once and
    // shared across every technique and configuration that needed them.
    EXPECT_EQ(service.traceStore()->counters().recordings, 2u);
}

TEST(TraceEngine, ConfigurationSweepInterpretsOnce)
{
    ExperimentEngine engine;
    ASSERT_NE(engine.traceStore(), nullptr);
    TechniqueContext ctx = engine.context("gzip", tinySuite());

    std::vector<TechniquePtr> techniques = {
        std::make_shared<FullReference>(),
        std::make_shared<FfRunZ>(50, 10),
        std::make_shared<Smarts>(1000, 2000),
    };
    runGrid(engine, techniques, ctx, architecturalConfigs());

    // However many techniques and configurations ran, gzip's reference
    // input was functionally interpreted exactly once.
    TraceCounters ctr = engine.traceStore()->counters();
    EXPECT_EQ(ctr.recordings, 1u);
    EXPECT_GE(ctr.hits + ctr.inflightJoins, 1u);
}

} // namespace
} // namespace yasim
