/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot kernels: the
 * functional simulator, functional warming, the detailed core, trace
 * record/replay, cache and predictor probes, k-means clustering, and
 * the PB machinery. These are throughput sanity checks for the
 * simulator substrate (the figure regenerators' runtimes are dominated
 * by these loops).
 *
 * `microbench --json [path]` switches to the machine-readable perf
 * gate instead: it measures live vs replayed stepping (per-step and
 * batched), a 44-config PB sweep over one shared trace, and the
 * compressed spill's bytes/instruction and decode rate, writes the
 * numbers to BENCH_microbench.json, and exits nonzero when replay
 * fails to beat live interpretation, batched replay fails to beat
 * per-step replay, or the spill exceeds 6 bytes per instruction.
 *
 * `microbench --json-ooo [path]` runs the detailed-core gate: OoO
 * replay throughput, functional warming's cost relative to detailed
 * simulation, and the sharded reference at 8 shards, written to
 * BENCH_ooo.json. The binary exits nonzero only on
 * machine-independent correctness failures (stitched counters or CPI
 * drifting past the contract); the CI perf job asserts the
 * machine-dependent speedup from the JSON.
 *
 * `microbench --json-sampling [path]` runs the sampling gate: SMARTS
 * units measured along the warming walk against the live-point
 * library's measurement of the same selection, and SMARTS wall time
 * over the full reference's, written to BENCH_sampling.json. Exit
 * status gates the byte-identity of the two measurements; CI asserts
 * the machine-dependent cost ratios and the on-disk bytes-per-point
 * budget from the JSON.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "core/pb_characterization.hh"
#include "engine/result_io.hh"
#include "sim/functional.hh"
#include "sim/livepoint.hh"
#include "sim/ooo_core.hh"
#include "sim/sampling.hh"
#include "sim/sharded.hh"
#include "sim/trace.hh"
#include "techniques/full_reference.hh"
#include "techniques/service.hh"
#include "techniques/smarts.hh"
#include "stats/kmeans.hh"
#include "stats/plackett_burman.hh"
#include "stats/projection.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "workloads/suite.hh"

using namespace yasim;

namespace {

SuiteConfig
benchSuite()
{
    SuiteConfig suite;
    suite.referenceInstructions = 200'000;
    return suite;
}

void
BM_FunctionalSim(benchmark::State &state)
{
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    uint64_t insts = 0;
    for (auto _ : state) {
        FunctionalSim fsim(w.program);
        insts += fsim.fastForward(~0ULL);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_FunctionalSim);

void
BM_FunctionalWarming(benchmark::State &state)
{
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    SimConfig cfg = architecturalConfig(2);
    uint64_t insts = 0;
    for (auto _ : state) {
        FunctionalSim fsim(w.program);
        MemoryHierarchy mem(cfg.mem);
        CombinedPredictor bp(cfg.bp);
        insts += fsim.fastForwardWarm(~0ULL, &mem, &bp);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_FunctionalWarming);

SimConfig
tableConfig2()
{
    return architecturalConfig(2);
}

/**
 * PB row 26: ROB 256, IQ 128 and 400-cycle memory behind a 2-wide
 * issue and an 8 KB L1-D. On mcf its dependent miss chains push issue
 * furthest past dispatch of all the rows, so its issue table grows the
 * most (docs/perf.md).
 */
SimConfig
deepestPbRow()
{
    SimConfig c =
        pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false))
            .at(26);
    if (c.core.robEntries != 256 || c.core.iqEntries != 128 ||
        c.mem.memLatencyFirst != 400) {
        fatal("microbench: PB row 26 is no longer the deepest row");
    }
    return c;
}

void
BM_OoODetailed(benchmark::State &state, const char *bench,
               SimConfig (*make_config)())
{
    // Detailed-core throughput over trace replay — the loop every
    // timing run and the sharded reference go through. mcf is the
    // memory-bound case: long miss chains stress the issue table, most
    // on the deepest PB row, which yasimd's PB requests reach.
    Workload w = buildWorkload(bench, InputSet::Reference, benchSuite());
    SimConfig cfg = make_config();
    auto trace = ExecTrace::record(w.program);
    uint64_t insts = 0;
    for (auto _ : state) {
        TraceReplayer replayer(trace);
        OooCore core(cfg);
        insts += core.run(replayer, ~0ULL);
        benchmark::DoNotOptimize(core.cycles());
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK_CAPTURE(BM_OoODetailed, gzip, "gzip", tableConfig2);
BENCHMARK_CAPTURE(BM_OoODetailed, mcf, "mcf", tableConfig2);
BENCHMARK_CAPTURE(BM_OoODetailed, mcf_pb_deepest, "mcf", deepestPbRow);

void
BM_OoODetailedPbRows(benchmark::State &state)
{
    // The full reference on all 44 PB design rows for gzip and mcf at
    // a 300k reference: the runs behind yasimd's reference misses
    // (perfbench service_warm) and the grid docs/perf.md profiles.
    // Items are detailed instructions; the traces are recorded once,
    // before timing.
    SuiteConfig suite;
    suite.referenceInstructions = 300'000;
    const std::vector<SimConfig> rows =
        pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false));
    DirectService service;
    const FullReference reference;
    std::vector<TechniqueContext> contexts;
    for (const char *bench : {"gzip", "mcf"})
        contexts.push_back(TechniqueContext::make(bench, suite, service));
    uint64_t insts = 0;
    for (auto _ : state) {
        for (const TechniqueContext &ctx : contexts) {
            for (const SimConfig &cfg : rows) {
                TechniqueResult r = reference.run(ctx, cfg);
                insts += r.detailedInsts;
                benchmark::DoNotOptimize(r.cpi);
            }
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_OoODetailedPbRows)->Unit(benchmark::kMillisecond);

void
BM_ReplayWarming(benchmark::State &state, const char *bench)
{
    // Functional warming over trace replay: the path SMARTS, live-point
    // builds and shard lead-ins take (BM_FunctionalWarming times the
    // interpreter's warming loop instead).
    Workload w = buildWorkload(bench, InputSet::Reference, benchSuite());
    SimConfig cfg = architecturalConfig(2);
    auto trace = ExecTrace::record(w.program);
    uint64_t insts = 0;
    for (auto _ : state) {
        TraceReplayer replayer(trace);
        MemoryHierarchy mem(cfg.mem);
        CombinedPredictor bp(cfg.bp);
        insts += replayer.fastForwardWarm(~0ULL, &mem, &bp);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK_CAPTURE(BM_ReplayWarming, gzip, "gzip");
BENCHMARK_CAPTURE(BM_ReplayWarming, mcf, "mcf");

void
BM_SmartsWalk(benchmark::State &state, const char *bench, int config)
{
    // SMARTS(100, 200)'s first selection measured along the warming
    // walk at a 120k reference, the scale of perfbench svat_cold: the
    // walk's per-unit cost next to the warming and detailed runs it is
    // made of. Config 4's 2 MB L2 is the largest table a unit starts
    // from. Items are the instructions the walk warms or simulates in
    // detail: every position up to the last unit's end.
    SuiteConfig suite;
    suite.referenceInstructions = 120'000;
    auto trace = ExecTrace::record(
        buildWorkload(bench, InputSet::Reference, suite).program);
    const SimConfig cfg = architecturalConfig(config);
    const SamplingPlan plan = SamplingPlan::make(100, 200, trace->length());
    // Smarts::run's initial n.
    const uint64_t n = std::clamp<uint64_t>(
        trace->length() / (plan.span() * 5), 50, 3000);
    const std::vector<uint64_t> indices = plan.indicesFor(n);
    uint64_t insts = 0;
    for (auto _ : state) {
        const std::vector<UnitResult> units =
            walkUnits(trace, plan, cfg, indices);
        insts += plan.warmStart(indices.back()) + units.back().warmupDone +
                 units.back().unitDone;
        benchmark::DoNotOptimize(units.back().stats.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.counters["units"] = static_cast<double>(indices.size());
}
BENCHMARK_CAPTURE(BM_SmartsWalk, gcc_config1, "gcc", 1);
BENCHMARK_CAPTURE(BM_SmartsWalk, gcc_config4, "gcc", 4);
BENCHMARK_CAPTURE(BM_SmartsWalk, mcf_config1, "mcf", 1);
BENCHMARK_CAPTURE(BM_SmartsWalk, mcf_config4, "mcf", 4);

void
BM_ShardedReference(benchmark::State &state)
{
    // The sharded reference at 8 shards, one boundary spacing
    // (shardSpacingFor) of functional warming per shard. The items/sec counter is the
    // whole-run detailed rate; divide by BM_OoODetailed for the
    // wall-clock speedup on this machine.
    SuiteConfig suite;
    suite.referenceInstructions = 2'000'000;
    Workload w = buildWorkload("gzip", InputSet::Reference, suite);
    auto trace = ExecTrace::record(w.program);
    SimConfig cfg = architecturalConfig(2);
    ShardOptions opts;
    opts.shards = 8;
    opts.warmupInsts = shardSpacingFor(trace->length());
    uint64_t insts = 0;
    for (auto _ : state) {
        ShardedRunResult r = runShardedReference(trace, cfg, opts);
        insts += r.detailedInsts;
        benchmark::DoNotOptimize(r.stats.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.counters["shards"] = static_cast<double>(opts.shards);
    state.counters["workers"] = static_cast<double>(parallelWorkers());
}
BENCHMARK(BM_ShardedReference);

void
BM_TraceRecord(benchmark::State &state)
{
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    uint64_t insts = 0;
    for (auto _ : state) {
        auto trace = ExecTrace::record(w.program);
        insts += trace->length();
        benchmark::DoNotOptimize(trace);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_TraceRecord);

void
BM_TraceReplay(benchmark::State &state)
{
    // Batched replay: whole chunk-resident spans through stepBatch,
    // the decode-amortized rate the converted consumers actually see.
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    auto trace = ExecTrace::record(w.program);
    uint64_t insts = 0;
    ExecRecord recs[256];
    for (auto _ : state) {
        TraceReplayer replayer(trace);
        uint64_t sink = 0;
        while (uint64_t n = replayer.stepBatch(recs, 256))
            for (uint64_t i = 0; i < n; ++i)
                sink += recs[i].nextPc;
        benchmark::DoNotOptimize(sink);
        insts += replayer.instsExecuted();
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_TraceReplay);

void
BM_TraceReplayStep(benchmark::State &state)
{
    // Per-record step(): the unbatched baseline BM_TraceReplay is
    // compared against.
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    auto trace = ExecTrace::record(w.program);
    uint64_t insts = 0;
    for (auto _ : state) {
        TraceReplayer replayer(trace);
        ExecRecord rec;
        while (replayer.step(rec))
            benchmark::DoNotOptimize(rec.nextPc);
        insts += replayer.instsExecuted();
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_TraceReplayStep);

void
BM_TraceDecode(benchmark::State &state)
{
    // Deserialization of the delta/byte-plane spill format back into
    // chunked SoA, measured from memory (no disk in the loop). The
    // bytes_per_inst counter is the on-disk footprint of the payload.
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    auto trace = ExecTrace::record(w.program);
    const std::string key = "bm-trace-decode";
    std::ostringstream encoded;
    trace->write(encoded, key);
    const std::string bytes = encoded.str();
    uint64_t insts = 0;
    for (auto _ : state) {
        std::istringstream is(bytes);
        auto decoded = ExecTrace::read(is, key, w.program);
        benchmark::DoNotOptimize(decoded);
        insts += decoded ? decoded->length() : 0;
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.counters["bytes_per_inst"] =
        static_cast<double>(bytes.size()) /
        static_cast<double>(trace->length());
}
BENCHMARK(BM_TraceDecode);

void
BM_LivePointBuild(benchmark::State &state)
{
    // One functional-warming pass building every live-point a 50-unit
    // SMARTS selection needs (in-memory; the library's cold path).
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    SimConfig cfg = architecturalConfig(2);
    auto trace = ExecTrace::record(w.program);
    SamplingPlan plan = SamplingPlan::make(1000, 2000, trace->length());
    const std::vector<uint64_t> indices = plan.indicesFor(50);
    uint64_t insts = 0;
    for (auto _ : state) {
        LivePointLibrary library(trace, plan, cfg,
                                 LivePointOptions{});
        insts += library.ensure(indices);
        benchmark::DoNotOptimize(library.counters().built);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.counters["points"] = static_cast<double>(indices.size());
}
BENCHMARK(BM_LivePointBuild);

void
BM_LivePointLoad(benchmark::State &state)
{
    // Random-access loads from a persisted library: frame verification,
    // payload decode, and the warm-blob trial restore — the steady
    // state a configuration sweep pays instead of re-warming.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "yasim_bm_livepoints";
    fs::remove_all(dir);
    Workload w = buildWorkload("gzip", InputSet::Reference, benchSuite());
    SimConfig cfg = architecturalConfig(2);
    auto trace = ExecTrace::record(w.program);
    SamplingPlan plan = SamplingPlan::make(1000, 2000, trace->length());
    const std::vector<uint64_t> indices = plan.indicesFor(50);
    LivePointOptions opts{dir.string()};
    {
        LivePointLibrary seed_library(trace, plan, cfg, opts);
        seed_library.ensure(indices);
    }
    uint64_t points = 0;
    for (auto _ : state) {
        LivePointLibrary library(trace, plan, cfg, opts);
        library.ensure(indices);
        points += library.counters().diskLoads;
    }
    state.SetItemsProcessed(static_cast<int64_t>(points));
    fs::remove_all(dir);
}
BENCHMARK(BM_LivePointLoad);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache("bm", CacheConfig{64, 4, 64});
    Rng rng(1);
    uint64_t n = 0;
    for (auto _ : state) {
        cache.access(rng.nextBelow(1 << 22));
        ++n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_CacheAccess);

void
BM_PredictorUpdate(benchmark::State &state)
{
    CombinedPredictor bp(BranchPredictorConfig{});
    Rng rng(2);
    uint64_t n = 0;
    for (auto _ : state) {
        uint64_t pc = 0x1000 + (rng.next() & 0xFF) * 4;
        bp.update(pc, true, rng.nextBool(0.7), pc + 64);
        ++n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_PredictorUpdate);

void
BM_KmeansSelectK(benchmark::State &state)
{
    Rng rng(3);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 500; ++i) {
        std::vector<double> p(15);
        for (double &x : p)
            x = rng.nextGaussian() + (i % 4) * 5.0;
        points.push_back(std::move(p));
    }
    for (auto _ : state) {
        Rng seed(4);
        benchmark::DoNotOptimize(
            selectKLadder(points, static_cast<int>(state.range(0)),
                          seed));
    }
}
BENCHMARK(BM_KmeansSelectK)->Arg(10)->Arg(100);

void
BM_KmeansSelectKServed(benchmark::State &state)
{
    // The clustering SimPoint multiple 10M serves in perfbench's
    // service_warm: gzip at a 300k reference, one BBV per 2000-
    // instruction interval (the interval floor), L1-normalized and
    // projected to 15 dimensions as SimPoint profiles them, then the
    // max_k = 100 ladder with 3 restarts and SimPoint's seeds.
    SuiteConfig suite;
    suite.referenceInstructions = 300'000;
    Workload w = buildWorkload("gzip", InputSet::Reference, suite);
    TraceReplayer replayer(ExecTrace::record(w.program));
    Rng proj_rng(42);
    RandomProjection projection(w.program.numBlocks(), 15, proj_rng);
    constexpr uint64_t kInterval = 2000;
    std::vector<std::vector<double>> points;
    std::vector<double> bbv(w.program.numBlocks(), 0.0);
    uint64_t in_interval = 0;
    auto flush = [&] {
        normalizeL1(bbv);
        points.push_back(projection.project(bbv));
        std::fill(bbv.begin(), bbv.end(), 0.0);
        in_interval = 0;
    };
    ExecRecord rec;
    while (replayer.step(rec)) {
        bbv[w.program.blockOf(rec.pc)] += 1.0;
        if (++in_interval == kInterval)
            flush();
    }
    if (in_interval > kInterval / 2)
        flush();
    for (auto _ : state) {
        Rng seed(42 ^ 0x5eedULL);
        benchmark::DoNotOptimize(selectKLadder(points, 100, seed, 0.9, 3));
    }
    state.SetLabel(std::to_string(points.size()) + " points");
}
BENCHMARK(BM_KmeansSelectKServed)->Unit(benchmark::kMillisecond);

void
BM_PbEffects(benchmark::State &state)
{
    PbDesign design = PbDesign::forFactors(43, true);
    std::vector<double> responses(design.numRuns());
    Rng rng(5);
    for (double &r : responses)
        r = rng.nextDouble();
    for (auto _ : state)
        benchmark::DoNotOptimize(design.computeEffects(responses));
}
BENCHMARK(BM_PbEffects);

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Step every instruction of @p source (a FunctionalSim or a
 * TraceReplayer) to exhaustion and return the throughput in
 * instructions per second. The per-record consumption is the same for
 * both, so live-vs-replay compares what producing the stream costs.
 */
template <typename Source>
double
stepThroughput(Source &source)
{
    uint64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    ExecRecord rec;
    while (source.step(rec))
        sink += rec.nextPc;
    double seconds = secondsSince(start);
    benchmark::DoNotOptimize(sink);
    return static_cast<double>(source.instsExecuted()) /
           (seconds > 0 ? seconds : 1e-9);
}

/**
 * stepThroughput through stepBatch: the same per-record consumption,
 * pulled in 256-record spans — what OooCore::run and the other
 * batched consumers pay for the stream.
 */
template <typename Source>
double
batchThroughput(Source &source)
{
    uint64_t sink = 0;
    ExecRecord recs[256];
    auto start = std::chrono::steady_clock::now();
    while (uint64_t n = source.stepBatch(recs, 256))
        for (uint64_t i = 0; i < n; ++i)
            sink += recs[i].nextPc;
    double seconds = secondsSince(start);
    benchmark::DoNotOptimize(sink);
    return static_cast<double>(source.instsExecuted()) /
           (seconds > 0 ? seconds : 1e-9);
}

/**
 * The machine-readable perf gate behind `microbench --json [path]`.
 *
 * Measures (a) live interpretation vs trace replay throughput on the
 * gzip reference stream, per-step and batched, (b) wall time for a
 * 44-configuration Plackett-Burman sweep (99% fast-forward + 1000
 * detailed instructions per configuration) over one shared ExecTrace,
 * recording time included, and (c) the compressed spill's on-disk
 * bytes/instruction and decode throughput. Writes the numbers as JSON
 * and returns nonzero when replay fails to beat live stepping, batched
 * replay fails to beat per-step replay, or the spill exceeds 6
 * bytes/instruction.
 */
int
runJsonGate(const char *path)
{
    // (a) Step throughput, best of 3 passes each way.
    Workload step_workload =
        buildWorkload("gzip", InputSet::Reference, benchSuite());
    auto step_trace = ExecTrace::record(step_workload.program);
    double live_ips = 0, replay_ips = 0, replay_batch_ips = 0;
    for (int pass = 0; pass < 3; ++pass) {
        FunctionalSim fsim(step_workload.program);
        live_ips = std::max(live_ips, stepThroughput(fsim));
        TraceReplayer replayer(step_trace);
        replay_ips = std::max(replay_ips, stepThroughput(replayer));
        TraceReplayer batch_replayer(step_trace);
        replay_batch_ips =
            std::max(replay_batch_ips, batchThroughput(batch_replayer));
    }

    // (b) Configuration-sweep wall time: the record-once/replay-many
    // payoff on the paper's PB design (44 corner configurations).
    SuiteConfig sweep_suite;
    sweep_suite.referenceInstructions = 8'000'000;
    Workload sweep_workload =
        buildWorkload("gzip", InputSet::Reference, sweep_suite);
    std::vector<SimConfig> configs =
        pbDesignConfigs(PbDesign::forFactors(43, false));
    constexpr uint64_t kDetailedInsts = 1000;

    auto trace_start = std::chrono::steady_clock::now();
    auto sweep_trace = ExecTrace::record(sweep_workload.program);
    uint64_t ff_insts = sweep_trace->length() * 99 / 100;
    for (const SimConfig &cfg : configs) {
        TraceReplayer replayer(sweep_trace);
        replayer.fastForward(ff_insts);
        OooCore core(cfg);
        core.run(replayer, kDetailedInsts);
    }
    double trace_seconds = secondsSince(trace_start);

    // (c) On-disk footprint and decode rate of the compressed spill
    // format, on the 8M-instruction sweep trace. The byte count is
    // deterministic (same trace -> same bytes), so it is gated here in
    // the binary as well as in CI.
    const std::string spill_key = "perf-gate-spill";
    std::ostringstream spill_os;
    sweep_trace->write(spill_os, spill_key);
    const std::string spill_bytes = spill_os.str();
    double bytes_per_inst = static_cast<double>(spill_bytes.size()) /
                            static_cast<double>(sweep_trace->length());
    double decode_ips = 0;
    for (int pass = 0; pass < 3; ++pass) {
        std::istringstream spill_is(spill_bytes);
        auto decode_start = std::chrono::steady_clock::now();
        auto decoded =
            ExecTrace::read(spill_is, spill_key, sweep_workload.program);
        double decode_seconds = secondsSince(decode_start);
        if (!decoded) {
            std::fprintf(stderr,
                         "microbench: spill round-trip failed to read\n");
            return 1;
        }
        decode_ips = std::max(
            decode_ips, static_cast<double>(decoded->length()) /
                            (decode_seconds > 0 ? decode_seconds : 1e-9));
    }

    // Historical field names, now under the versioned yasim-report
    // schema (the CI gate indexes them directly either way).
    JsonReport report("perf-gate");
    report.setNumber("step_insts_per_sec_live", live_ips);
    report.setNumber("step_insts_per_sec_replay", replay_ips);
    report.setNumber("step_replay_over_live", replay_ips / live_ips);
    report.setNumber("step_insts_per_sec_replay_batch", replay_batch_ips);
    report.setNumber("batch_replay_over_step",
                     replay_batch_ips / replay_ips);
    report.setNumber("trace_bytes_per_inst", bytes_per_inst);
    report.setNumber("trace_decode_insts_per_sec", decode_ips);
    report.setCount("sweep_configs", configs.size());
    report.setCount("sweep_detailed_insts", kDetailedInsts);
    report.setNumber("sweep_wall_seconds_trace", trace_seconds);
    writeReportFile(report, path);

    std::printf("step throughput: live %.1fM inst/s, replay %.1fM inst/s "
                "(%.2fx), batched replay %.1fM inst/s (%.2fx over step)\n",
                live_ips / 1e6, replay_ips / 1e6, replay_ips / live_ips,
                replay_batch_ips / 1e6, replay_batch_ips / replay_ips);
    std::printf("%zu-config sweep over one trace: %.3fs\n", configs.size(),
                trace_seconds);
    std::printf("trace spill: %.2f bytes/inst on disk, decode %.1fM "
                "inst/s\n",
                bytes_per_inst, decode_ips / 1e6);
    std::printf("wrote %s\n", path);

    if (replay_ips < live_ips) {
        std::fprintf(stderr,
                     "microbench: replay slower than live stepping\n");
        return 1;
    }
    if (replay_batch_ips < replay_ips) {
        std::fprintf(stderr,
                     "microbench: batched replay slower than stepping\n");
        return 1;
    }
    if (bytes_per_inst > 6.0) {
        std::fprintf(stderr,
                     "microbench: trace spill %.2f bytes/inst exceeds "
                     "the 6.0 budget\n",
                     bytes_per_inst);
        return 1;
    }
    return 0;
}

/**
 * Best-of-3 wall seconds to detail-simulate all of @p trace on @p cfg;
 * @p stats (when non-null) receives the run's statistics.
 */
double
bestDetailedSeconds(const std::shared_ptr<const ExecTrace> &trace,
                    const SimConfig &cfg, SimStats *stats)
{
    double best = 1e30;
    for (int pass = 0; pass < 3; ++pass) {
        TraceReplayer replayer(trace);
        OooCore core(cfg);
        auto start = std::chrono::steady_clock::now();
        core.run(replayer, ~0ULL);
        best = std::min(best, secondsSince(start));
        if (stats)
            *stats = core.snapshot();
    }
    return best;
}

/** Best-of-3 wall seconds to functionally warm all of @p trace. */
double
bestWarmSeconds(const std::shared_ptr<const ExecTrace> &trace,
                const SimConfig &cfg)
{
    double best = 1e30;
    for (int pass = 0; pass < 3; ++pass) {
        TraceReplayer replayer(trace);
        MemoryHierarchy mem(cfg.mem);
        CombinedPredictor bp(cfg.bp);
        auto start = std::chrono::steady_clock::now();
        replayer.fastForwardWarm(~0ULL, &mem, &bp);
        best = std::min(best, secondsSince(start));
    }
    return best;
}

/**
 * The detailed-core / sharded-reference gate behind
 * `microbench --json-ooo [path]`.
 *
 * Measures sequential detailed replay throughput (best of 3), the cost
 * of functional warming relative to detailed simulation of the same
 * trace (gzip and mcf), then the sharded reference at 8 shards with
 * full-prefix functional warming per shard, and cross-checks the
 * exactness contract: `--shards 1` bit-identical to sequential,
 * architectural counters exact under sharding, and stitched CPI within
 * 0.5%. Speedup and the warming ratios are reported in the JSON but
 * asserted only by CI (they are properties of the machine, not of the
 * code).
 */
int
runOooGate(const char *path)
{
    SuiteConfig suite;
    suite.referenceInstructions = 8'000'000;
    Workload w = buildWorkload("gzip", InputSet::Reference, suite);
    auto trace = ExecTrace::record(w.program);
    SimConfig cfg = architecturalConfig(2);

    // Sequential detailed reference over replay, best of 3.
    SimStats seq;
    const double seq_seconds = bestDetailedSeconds(trace, cfg, &seq);
    double ooo_ips = static_cast<double>(trace->length()) / seq_seconds;

    // Functional warming against detailed simulation of the same trace:
    // sampling only pays if warming is much cheaper. mcf is the
    // memory-bound case.
    const double warm_over_detailed_gzip =
        bestWarmSeconds(trace, cfg) / seq_seconds;
    Workload mcf = buildWorkload("mcf", InputSet::Reference, suite);
    auto mcf_trace = ExecTrace::record(mcf.program);
    const double warm_over_detailed_mcf =
        bestWarmSeconds(mcf_trace, cfg) /
        bestDetailedSeconds(mcf_trace, cfg, nullptr);
    mcf_trace.reset();

    // One shard is the sequential path by contract — bit-identical.
    ShardOptions one;
    one.shards = 1;
    SimStats single = runShardedReference(trace, cfg, one).stats;
    bool single_identical =
        single.cycles == seq.cycles &&
        single.instructions == seq.instructions &&
        single.l1iAccesses == seq.l1iAccesses &&
        single.l1dMisses == seq.l1dMisses &&
        single.condMispredicts == seq.condMispredicts &&
        single.memStallCycles == seq.memStallCycles;

    // The sharded reference: 8 shards with full-prefix functional
    // warming (warmupInsts = 0), the accuracy-preserving default.
    // Bounded warming trades accuracy for wall-clock and is exercised
    // by BM_ShardedReference instead. Every pass warms each shard's
    // whole prefix in process, as every sharded run does.
    ShardOptions opts;
    opts.shards = 8;
    opts.warmupInsts = 0;
    double sharded_seconds = 1e30;
    ShardedRunResult sharded;
    for (int pass = 0; pass < 3; ++pass) {
        auto start = std::chrono::steady_clock::now();
        sharded = runShardedReference(trace, cfg, opts);
        sharded_seconds = std::min(sharded_seconds, secondsSince(start));
    }
    double speedup = seq_seconds / sharded_seconds;
    double cpi_drift =
        std::abs(sharded.stats.cpi() - seq.cpi()) / seq.cpi();
    bool counters_exact =
        sharded.stats.instructions == seq.instructions &&
        sharded.stats.condBranches == seq.condBranches &&
        sharded.stats.l1dAccesses == seq.l1dAccesses &&
        sharded.stats.trivialOps == seq.trivialOps;

    // Historical field names under the versioned yasim-report schema.
    JsonReport report("perf-gate-ooo");
    report.setNumber("ooo_detailed_insts_per_sec", ooo_ips);
    report.setNumber("warm_over_detailed_gzip", warm_over_detailed_gzip);
    report.setNumber("warm_over_detailed_mcf", warm_over_detailed_mcf);
    report.setCount("sharded_shards", opts.shards);
    report.setCount("sharded_warmup_insts", opts.warmupInsts);
    report.setCount("workers", parallelWorkers());
    report.setNumber("seq_wall_seconds", seq_seconds);
    report.setNumber("sharded_wall_seconds", sharded_seconds);
    report.setNumber("sharded_speedup", speedup);
    report.setNumber("sharded_cpi_drift", cpi_drift);
    report.setBool("counters_exact", counters_exact);
    report.setBool("shards1_bit_identical", single_identical);
    writeReportFile(report, path);

    std::printf("OoO detailed replay: %.2fM inst/s\n", ooo_ips / 1e6);
    std::printf("functional warming / detailed: gzip %.3f, mcf %.3f\n",
                warm_over_detailed_gzip, warm_over_detailed_mcf);
    std::printf("sharded reference (%u shards, %u workers): %.3fs vs "
                "%.3fs sequential (%.2fx), CPI drift %.4f%%\n",
                opts.shards, parallelWorkers(), sharded_seconds,
                seq_seconds, speedup, cpi_drift * 100.0);
    std::printf("wrote %s\n", path);

    // Exit status gates correctness only; CI asserts the speedup.
    if (!single_identical) {
        std::fprintf(stderr,
                     "microbench: --shards 1 not bit-identical\n");
        return 1;
    }
    if (!counters_exact) {
        std::fprintf(stderr,
                     "microbench: sharded counters not exact\n");
        return 1;
    }
    if (cpi_drift > 0.005) {
        std::fprintf(stderr, "microbench: sharded CPI drift %.4f%%\n",
                     cpi_drift * 100.0);
        return 1;
    }
    return 0;
}

/** Best-of-@p passes wall seconds of @p technique on @p ctx / @p cfg. */
double
bestRunSeconds(const Technique &technique, const TechniqueContext &ctx,
               const SimConfig &cfg, int passes)
{
    double best = 1e30;
    for (int pass = 0; pass < passes; ++pass) {
        auto start = std::chrono::steady_clock::now();
        TechniqueResult r = technique.run(ctx, cfg);
        benchmark::DoNotOptimize(r.cpi);
        best = std::min(best, secondsSince(start));
    }
    return best;
}

/**
 * The sampled-simulation gate behind `microbench --json-sampling
 * [path]`.
 *
 * Exactness: on the gzip 8M-instruction reference, one SMARTS
 * selection (U=10000, W=2000, indicesFor(50): 91 units) is measured
 * along the warming walk (walkUnits) and by the live-point oracle:
 * LivePointLibrary builds and persists every point to a scratch
 * directory, then measureUnits fans the units across the pool. The
 * walk's units start from tables earlier units trained in detail, the
 * oracle's from a purely functional pass. Every unit's CPI, metric
 * vector, counters and weighted profile must be byte-identical, and
 * the directory gives the on-disk bytes per point.
 *
 * Cost: SMARTS(1000, 2000) and SMARTS(100, 200) against the full
 * reference, gzip on Table-3 config 2 at the default 400k reference,
 * best of six passes each (building the context records the trace
 * first). A walk costs its units' detailed length plus the warming
 * of the gaps between them, so both ratios stay near 1. Exit status
 * gates the bit-identity only; CI asserts the ratios and the byte
 * budget.
 */
int
runSamplingGate(const char *path)
{
    SuiteConfig suite;
    suite.referenceInstructions = 8'000'000;
    SimConfig cfg = architecturalConfig(2);
    auto trace = ExecTrace::record(
        buildWorkload("gzip", InputSet::Reference, suite).program);
    const SamplingPlan plan =
        SamplingPlan::make(10000, 2000, trace->length());
    const std::vector<uint64_t> indices = plan.indicesFor(50);

    const std::vector<UnitResult> walked =
        walkUnits(trace, plan, cfg, indices);

    namespace fs = std::filesystem;
    fs::path lp_dir = fs::temp_directory_path() / "yasim_sampling_gate";
    fs::remove_all(lp_dir);
    LivePointLibrary library(trace, plan, cfg,
                             LivePointOptions{lp_dir.string()});
    library.ensure(indices);
    const std::vector<UnitResult> oracle =
        library.measureUnits(indices, true);

    // On-disk footprint: every persisted point (*.lvpt), compressed
    // frame included.
    uint64_t point_bytes = 0, point_count = 0;
    for (const auto &entry : fs::directory_iterator(lp_dir)) {
        if (entry.path().extension() != ".lvpt")
            continue;
        point_bytes += entry.file_size();
        ++point_count;
    }
    fs::remove_all(lp_dir);
    double bytes_per_point =
        point_count ? static_cast<double>(point_bytes) /
                          static_cast<double>(point_count)
                    : 0.0;

    // The exactness contract: the walk must be byte-identical to the
    // oracle, not merely statistically close.
    bool cpi_identical = walked.size() == oracle.size();
    bool metrics_identical = cpi_identical;
    bool counters_exact = cpi_identical;
    bool profile_identical = cpi_identical;
    for (size_t i = 0; i < std::min(walked.size(), oracle.size()); ++i) {
        const UnitResult &a = walked[i];
        const UnitResult &b = oracle[i];
        const double cpi_a = a.stats.cpi(), cpi_b = b.stats.cpi();
        cpi_identical &= std::memcmp(&cpi_a, &cpi_b, sizeof(double)) == 0;
        metrics_identical &=
            a.stats.metricVector() == b.stats.metricVector();
        counters_exact &=
            a.index == b.index && a.measured == b.measured &&
            a.warmupDone == b.warmupDone && a.unitDone == b.unitDone &&
            std::memcmp(&a.stats, &b.stats, sizeof(SimStats)) == 0;
        profile_identical &= a.bbef == b.bbef && a.bbv == b.bbv;
    }

    // What a sampled run costs next to the run it samples.
    SuiteConfig ref_suite;
    ref_suite.referenceInstructions = 400'000;
    DirectService service;
    TechniqueContext ctx =
        TechniqueContext::make("gzip", ref_suite, service);
    FullReference reference;
    Smarts coarse(1000, 2000);
    Smarts fine(100, 200);
    const double ref_seconds = bestRunSeconds(reference, ctx, cfg, 6);
    const double coarse_seconds = bestRunSeconds(coarse, ctx, cfg, 6);
    const double fine_seconds = bestRunSeconds(fine, ctx, cfg, 6);
    const double coarse_ratio = coarse_seconds / ref_seconds;
    const double fine_ratio = fine_seconds / ref_seconds;

    JsonReport report("perf-gate-sampling");
    report.setCount("workers", parallelWorkers());
    report.setCount("smarts_units", walked.size());
    report.setCount("livepoint_count", point_count);
    report.setNumber("livepoint_bytes_per_point", bytes_per_point);
    report.setNumber("reference_wall_seconds", ref_seconds);
    report.setNumber("smarts_u1000_wall_seconds", coarse_seconds);
    report.setNumber("smarts_u100_wall_seconds", fine_seconds);
    report.setNumber("smarts_over_reference_u1000", coarse_ratio);
    report.setNumber("smarts_over_reference_u100", fine_ratio);
    report.setBool("smarts_cpi_identical", cpi_identical);
    report.setBool("smarts_metrics_identical", metrics_identical);
    report.setBool("smarts_counters_exact", counters_exact);
    report.setBool("smarts_profile_identical", profile_identical);
    writeReportFile(report, path);

    std::printf("SMARTS walk vs live-point oracle: %zu units, %s\n",
                walked.size(),
                cpi_identical && metrics_identical && counters_exact &&
                        profile_identical
                    ? "identical"
                    : "MISMATCH");
    std::printf("over the reference (%.3fs): U=1000 W=2000 %.3fs "
                "(%.2fx), U=100 W=200 %.3fs (%.2fx)\n",
                ref_seconds, coarse_seconds, coarse_ratio, fine_seconds,
                fine_ratio);
    std::printf("live-point library: %llu points, %.0f bytes/point on "
                "disk\n",
                static_cast<unsigned long long>(point_count),
                bytes_per_point);
    std::printf("wrote %s\n", path);

    // Exit status gates correctness only; CI asserts the ratios.
    if (!cpi_identical || !metrics_identical) {
        std::fprintf(stderr,
                     "microbench: walked SMARTS units diverged from the "
                     "live-point oracle\n");
        return 1;
    }
    if (!counters_exact) {
        std::fprintf(stderr,
                     "microbench: walked SMARTS counters not exact\n");
        return 1;
    }
    if (!profile_identical) {
        std::fprintf(stderr,
                     "microbench: walked SMARTS profile diverged\n");
        return 1;
    }
    if (point_count == 0) {
        std::fprintf(stderr,
                     "microbench: no live-points were persisted\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json-sampling") == 0) {
            return runSamplingGate(i + 1 < argc ? argv[i + 1]
                                                : "BENCH_sampling.json");
        }
        if (std::strcmp(argv[i], "--json-ooo") == 0) {
            return runOooGate(i + 1 < argc ? argv[i + 1]
                                           : "BENCH_ooo.json");
        }
        if (std::strcmp(argv[i], "--json") == 0) {
            return runJsonGate(i + 1 < argc ? argv[i + 1]
                                            : "BENCH_microbench.json");
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
