/**
 * @file
 * Per-layer probes for the traced run: each times one layer's public
 * calls directly, under a span named after the call, and reports the
 * per-layer metrics BENCHMARK.json lists. Probes that name a benchmark
 * (warm.gzip, ooo.mcf, ...) run it at a fixed probe scale; the others
 * run the workload's own benchmarks, techniques and suite.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "engine/options.hh"
#include "perfbench.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "sim/livepoint.hh"
#include "sim/ooo_core.hh"
#include "sim/sharded.hh"
#include "sim/trace.hh"
#include "stats/kmeans.hh"
#include "support/artifact_io.hh"
#include "support/rng.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"
#include "techniques/trace_store.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

using namespace yasim;

namespace perfbench {

namespace {

/** Reference length of the fixed-benchmark probes (gzip and mcf). */
constexpr uint64_t kProbeRefInsts = 1'000'000;
/** Replay batch size for the decode and stream-extraction loops. */
constexpr uint64_t kBatch = 4096;

/** Time @p fn under a span; returns seconds. */
template <typename Fn>
double
timed(const char *span_name, Fn &&fn)
{
    ScopedSpan span(span_name);
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** Table-3 configuration #2, the probes' machine. */
const SimConfig &
probeConfig()
{
    static const SimConfig config = architecturalConfigs()[1];
    return config;
}

/** A flat replayed stream for the uarch probe. */
struct Stream
{
    std::vector<uint64_t> instAddrs;
    std::vector<std::pair<uint64_t, bool>> data; ///< (addr, is store)
    struct Branch
    {
        uint64_t pc;
        bool conditional;
        bool taken;
        uint64_t target;
    };
    std::vector<Branch> branches;
};

void
extend(Stream &stream, const std::shared_ptr<const ExecTrace> &trace)
{
    TraceReplayer replayer(trace);
    std::vector<ExecRecord> buf(kBatch);
    while (uint64_t n = replayer.stepBatch(buf.data(), kBatch)) {
        for (uint64_t i = 0; i < n; ++i) {
            const ExecRecord &r = buf[i];
            const uint64_t pc = Program::pcAddress(r.pc);
            stream.instAddrs.push_back(pc);
            if (r.inst->isLoad() || r.inst->isStore())
                stream.data.emplace_back(r.memAddr, r.inst->isStore());
            if (r.inst->isControl())
                stream.branches.push_back(
                    {pc, r.inst->isCondBranch(), r.taken,
                     Program::pcAddress(r.nextPc)});
        }
    }
}

/** Metric-name slug of a technique family ("FF+WU+Run" -> ff_wu_run). */
std::string
slug(const std::string &family)
{
    std::string out;
    for (char c : family) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(std::tolower(c));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    return out;
}

/** The workload's permutation of @p family on @p bench (any if none). */
TechniquePtr
pickTechnique(const Workload &workload, const std::string &bench,
              const std::string &family)
{
    if (family == "reference")
        return std::make_shared<FullReference>();
    for (const TechniquePtr &t : workload.techniques(bench)) {
        if (t->name() == family)
            return t;
    }
    for (const TechniquePtr &t : table1Permutations(bench)) {
        if (t->name() == family)
            return t;
    }
    return nullptr;
}

} // namespace

ProbeOutcome
runProbes(const Workload &workload, const Round &round,
          const std::string &dir, Metrics &out)
{
    ProbeOutcome outcome;
    auto check = [&](bool ok, const char *what) {
        ++outcome.checks;
        if (!ok) {
            ++outcome.failures;
            std::fprintf(stderr, "perfbench: probe check failed: %s\n",
                         what);
        }
    };
    auto add = [&](std::string name, double value, const char *unit) {
        out.push_back({std::move(name), value, unit});
    };
    freshDir(dir);
    const std::string &bench0 = workload.benchmarks().front();
    const SimConfig &cfg = probeConfig();

    // workloads: every input set of the workload's benchmarks.
    add("workloads.build_ms", 1e3 * timed("workloads.buildInputs", [&] {
            buildInputs(workload.benchmarks(), workload.suite());
        }),
        "ms");

    // sim trace, warming and OOO on gzip and mcf at the probe scale.
    SuiteConfig probe_suite = workload.suite();
    probe_suite.referenceInstructions = kProbeRefInsts;
    double rec_s = 0, enc_s = 0, read_s = 0, dec_s = 0;
    double warm_ns = 0, ooo_ns = 0;
    uint64_t insts = 0, spill_bytes = 0;
    Stream stream;
    std::shared_ptr<const ExecTrace> mcf_trace;
    for (const std::string bench : {"gzip", "mcf"}) {
        const Program program =
            buildWorkload(bench, InputSet::Reference, probe_suite).program;
        std::shared_ptr<const ExecTrace> trace;
        rec_s += timed("ExecTrace::record",
                       [&] { trace = ExecTrace::record(program); });
        const uint64_t len = trace->length();
        insts += len;
        std::ostringstream os;
        enc_s += timed("ExecTrace::write", [&] { trace->write(os, bench); });
        const std::string spill = os.str();
        spill_bytes += spill.size();
        read_s += timed("ExecTrace::read", [&] {
            std::istringstream is(spill);
            auto back = ExecTrace::read(is, bench, program);
            check(back && back->length() == len, "trace read-back length");
        });
        dec_s += timed("TraceReplayer::stepBatch", [&] {
            TraceReplayer replayer(trace);
            std::vector<ExecRecord> buf(kBatch);
            uint64_t total = 0;
            while (uint64_t n = replayer.stepBatch(buf.data(), kBatch))
                total += n;
            check(total == len, "replayed length");
        });

        double warm_s = timed("TraceReplayer::fastForwardWarm", [&] {
            TraceReplayer replayer(trace);
            MemoryHierarchy mem(cfg.mem);
            CombinedPredictor bp(cfg.bp);
            check(replayer.fastForwardWarm(len, &mem, &bp) == len,
                  "warmed length");
        });
        add("warm." + bench + ".minst_per_s",
            len / warm_s / 1e6, "Minst/s");
        double ooo_s = timed("OooCore::run", [&] {
            TraceReplayer replayer(trace);
            OooCore core(cfg);
            check(core.run(replayer, len) > 0, "OOO committed nothing");
        });
        add("ooo." + bench + ".minst_per_s", len / ooo_s / 1e6,
            "Minst/s");
        warm_ns += 1e9 * warm_s / len;
        ooo_ns += 1e9 * ooo_s / len;

        extend(stream, trace);
        if (bench == "mcf")
            mcf_trace = trace;
    }
    add("trace.record_minst_per_s", insts / rec_s / 1e6, "Minst/s");
    add("trace.encode_ms", 1e3 * enc_s, "ms");
    add("trace.read_ms", 1e3 * read_s, "ms");
    add("trace.decode_minst_per_s", insts / dec_s / 1e6, "Minst/s");
    add("trace.spill_bytes_per_inst",
        static_cast<double>(spill_bytes) / insts, "B/inst");

    // uarch: the cache/TLB hierarchy and the predictor on the replayed
    // gzip + mcf stream, the accesses OooCore and warming make.
    {
        MemoryHierarchy mem(cfg.mem);
        double mem_s = timed("MemoryHierarchy::access", [&] {
            for (uint64_t a : stream.instAddrs)
                mem.instAccess(a);
            for (auto [addr, store] : stream.data)
                mem.dataAccess(addr, store);
            for (uint64_t a : stream.instAddrs)
                mem.warmInst(a);
            for (auto [addr, store] : stream.data)
                mem.warmData(addr);
        });
        const double accesses =
            2.0 * (stream.instAddrs.size() + stream.data.size());
        add("uarch.mem_ns_per_access", 1e9 * mem_s / accesses, "ns");
        CombinedPredictor bp(cfg.bp);
        uint64_t correct = 0;
        double bp_s = timed("CombinedPredictor::predict+update", [&] {
            for (const Stream::Branch &b : stream.branches) {
                correct += bp.predict(b.pc).taken == b.taken;
                bp.update(b.pc, b.conditional, b.taken, b.target);
            }
        });
        check(correct > 0, "predictor never right");
        add("uarch.bp_ns_per_branch",
            1e9 * bp_s / static_cast<double>(stream.branches.size()), "ns");
    }

    // sim sharded: the 4-shard reference on the mcf probe trace.
    {
        ShardOptions shards;
        shards.shards = 4;
        double s = timed("runShardedReference", [&] {
            ShardedRunResult r =
                runShardedReference(mcf_trace, cfg, shards);
            check(r.detailedInsts == mcf_trace->length(),
                  "sharded length");
        });
        add("sharded.ref_ms", 1e3 * s, "ms");
    }

    // sim live-points: a SMARTS U=1000/W=2000 grid over the mcf trace,
    // built, reloaded from disk, and measured in parallel.
    {
        const SamplingPlan plan =
            SamplingPlan::make(1000, 2000, mcf_trace->length());
        const std::vector<uint64_t> indices = plan.indicesFor(64);
        LivePointOptions lp;
        lp.dir = dir + "/livepoints";
        LivePointLibrary built(mcf_trace, plan, cfg, lp);
        double build_s = timed("LivePointLibrary::ensure(build)",
                               [&] { built.ensure(indices); });
        LivePointLibrary loaded(mcf_trace, plan, cfg, lp);
        double load_s = timed("LivePointLibrary::ensure(load)",
                              [&] { loaded.ensure(indices); });
        check(loaded.counters().diskLoads == indices.size(),
              "live-points served from disk");
        double measure_s = timed("LivePointLibrary::measureUnits", [&] {
            check(loaded.measureUnits(indices, true).size() ==
                      indices.size(),
                  "measured units");
        });
        const KindUsage lp_usage = cacheUsage(dir).livepoints;
        add("livepoint.build_ms", 1e3 * build_s, "ms");
        add("livepoint.load_ms", 1e3 * load_s, "ms");
        add("livepoint.measure_ms", 1e3 * measure_s, "ms");
        add("livepoint.kb_per_point",
            lp_usage.files ? lp_usage.bytes / 1024.0 / lp_usage.files : 0.0,
            "KiB");
        add("livepoint.points_written",
            static_cast<double>(built.counters().diskWrites), "count");
    }

    // techniques: one permutation per family on the workload's first
    // benchmark and suite, traces pre-recorded so only Technique::run
    // is timed. The modeled charge (work units, CostModel) sits next to
    // the measured cost.
    ExperimentEngine memory_engine(engineOptionsFrom(EngineCliOptions()));
    const TechniqueContext ctx =
        memory_engine.context(bench0, workload.suite());
    for (InputSet input : availableInputs(bench0)) {
        ScopedSpan span("TraceStore::get");
        memory_engine.traceStore()->get(bench0, input, workload.suite());
    }
    std::fprintf(stderr,
                 "\nmodeled vs measured cost (%s, Table-3 config 2; "
                 "CostModel: detailed %.2f, functional warm %.2f, "
                 "fast-forward %.2f, profile %.3f units/inst)\n",
                 bench0.c_str(), ctx.cost.detailedPerInst,
                 ctx.cost.functionalWarmPerInst,
                 ctx.cost.fastForwardPerInst, ctx.cost.profilePerInst);
    std::fprintf(stderr, "%-10s %-22s %14s %10s %14s\n", "family",
                 "permutation", "work units", "ms", "ns/work unit");
    for (const std::string family :
         {"reference", "SimPoint", "SMARTS", "reduced", "Run Z", "FF+Run",
          "FF+WU+Run"}) {
        TechniquePtr technique = pickTechnique(workload, bench0, family);
        double ms = 0.0, ns_per_unit = 0.0;
        if (technique) {
            TechniqueResult r;
            ms = 1e3 * timed("Technique::run", [&] {
                     r = technique->run(ctx, cfg);
                 });
            ns_per_unit = r.workUnits > 0 ? 1e6 * ms / r.workUnits : 0.0;
            std::fprintf(stderr, "%-10s %-22s %14.0f %10.2f %14.2f\n",
                         family.c_str(), technique->permutation().c_str(),
                         r.workUnits, ms, ns_per_unit);
        }
        check(technique != nullptr, "technique family missing");
        add("technique." + slug(family) + ".ms", ms, "ms");
        add("technique." + slug(family) + ".ns_per_work_unit", ns_per_unit,
            "ns");
    }
    const double warm_ratio = warm_ns / ooo_ns;
    std::fprintf(stderr,
                 "functional warming vs detailed (gzip+mcf): modeled "
                 "%.2fx, measured %.2fx\n\n",
                 ctx.cost.functionalWarmPerInst, warm_ratio);
    add("cost.warm_over_detailed", warm_ratio, "ratio");

    // stats: the SimPoint k-means entry (selectK, BIC over k = 1..10,
    // 3 restarts) on 15-dimensional interval vectors of the gzip probe
    // stream.
    {
        const size_t intervals = 100, dims = 15;
        const size_t per = std::max<size_t>(
            1, stream.instAddrs.size() / 2 / intervals);
        std::vector<std::vector<double>> points(
            intervals, std::vector<double>(dims, 0.0));
        for (size_t i = 0; i < intervals * per; ++i)
            points[i / per][(stream.instAddrs[i] >> 2) % dims] += 1.0 / per;
        Rng rng(42);
        double s = timed("selectK", [&] {
            check(selectK(points, 10, rng, 0.9, 3).k >= 1, "k-means k");
        });
        add("stats.kmeans_ms", 1e3 * s, "ms");
    }

    // engine: uncached runs on a fresh cache dir, then the same cells
    // served from disk by a second engine.
    std::vector<std::pair<TechniquePtr, const SimConfig *>> cells;
    for (size_t c = 0; c < 2; ++c) {
        cells.emplace_back(std::make_shared<FullReference>(),
                           &workload.configs()[c]);
        for (const TechniquePtr &t : workload.techniques(bench0)) {
            if (t->name() != "reference")
                cells.emplace_back(t, &workload.configs()[c]);
        }
    }
    std::vector<TechniqueResult> results;
    {
        EngineCliOptions cli;
        cli.cacheDir = dir + "/engine";
        std::vector<double> miss_ms, hit_ms;
        {
            ExperimentEngine engine(engineOptionsFrom(cli));
            TechniqueContext c = engine.context(bench0, workload.suite());
            for (const auto &[technique, config] : cells) {
                miss_ms.push_back(
                    1e3 * timed("ExperimentEngine::run(miss)",
                                [&] { engine.run(*technique, c, *config); }));
            }
        }
        ExperimentEngine engine(engineOptionsFrom(cli));
        TechniqueContext c = engine.context(bench0, workload.suite());
        for (const auto &[technique, config] : cells) {
            hit_ms.push_back(1e3 * timed("ExperimentEngine::run(disk)", [&] {
                results.push_back(engine.run(*technique, c, *config));
            }));
        }
        check(engine.counters().diskHits == cells.size(),
              "engine disk hits");
        add("engine.miss_ms", median(miss_ms), "ms");
        add("engine.disk_hit_ms", median(hit_ms), "ms");
    }
    const double lookups =
        static_cast<double>(round.memoHits + round.memoMisses);
    add("engine.memo_hit_rate", lookups > 0 ? round.memoHits / lookups : 0.0,
        "ratio");
    add("engine.pool_busy_frac",
        round.busyS / (round.workers * round.wallS), "ratio");

    // techniques trace store: counts from the traced round, and one
    // spilled trace loaded by a fresh store.
    add("trace_store.recordings", static_cast<double>(round.traceRecordings),
        "count");
    add("trace_store.disk_loads", static_cast<double>(round.traceDiskLoads),
        "count");
    {
        TraceStoreOptions topts;
        topts.cacheDir = dir + "/traces";
        TraceStore(topts).get(bench0, InputSet::Reference, workload.suite());
        TraceStore store(topts);
        double s = timed("TraceStore::get(disk)", [&] {
            store.get(bench0, InputSet::Reference, workload.suite());
        });
        check(store.counters().diskLoads == 1, "trace spill load");
        add("trace_store.get_ms", 1e3 * s, "ms");
    }

    // support artifact I/O: what the traced run left on disk (the
    // workload's round dir and the probe dir), read back and verified.
    {
        const CacheUsage probe_usage = cacheUsage(dir);
        add("artifact.files_written",
            static_cast<double>(round.filesWritten + probe_usage.files()),
            "count");
        add("artifact.mb_written",
            (round.bytesWritten + probe_usage.bytes()) / 1e6, "MB");
        uint64_t bad = 0;
        double s = timed("readArtifact", [&] {
            readAllArtifacts(workload.cacheDir(), bad);
            readAllArtifacts(dir, bad);
        });
        check(bad == 0, "artifacts verify");
        add("artifact.read_ms", 1e3 * s, "ms");
    }

    // service: the wire codec on the probe results, and the daemon's
    // queue high-water mark (the workload's own daemon on
    // service_warm, a 16-request probe batch elsewhere).
    {
        const int reps = 20;
        uint64_t messages = 0;
        double s = timed("frameRequest+decodeResponse", [&] {
            for (int rep = 0; rep < reps; ++rep) {
                for (const TechniqueResult &result : results) {
                    ExperimentRequest req;
                    req.benchmark = bench0;
                    std::string frame = frameRequest(req);
                    ExperimentResponse rsp;
                    rsp.result = result;
                    std::string payload, error;
                    ExperimentResponse back;
                    check(decodeFrame(frameResponse(rsp), kResponseMagic,
                                      kServiceFormatVersion, payload,
                                      error) &&
                              decodeResponse(payload, back, error) &&
                              !frame.empty(),
                          "service codec round trip");
                    ++messages;
                }
            }
        });
        add("service.frame_us", 1e6 * s / messages, "us");

        uint64_t depth = round.queueDepthMax;
        if (depth == 0) {
            ExperimentEngine engine(engineOptionsFrom(EngineCliOptions()));
            DaemonOptions dopts;
            dopts.tcpPort = 0;
            ServiceDaemon daemon(dopts, engine);
            std::string error;
            check(daemon.start(error), "probe daemon start");
            ClientOptions copts;
            copts.tcpPort = daemon.tcpPort();
            copts.window = 8;
            ServiceClient client(copts);
            std::vector<ExperimentRequest> batch(16);
            for (size_t i = 0; i < batch.size(); ++i) {
                batch[i].id = i + 1;
                batch[i].benchmark = bench0;
                batch[i].config = "arch:" + std::to_string(1 + i % 4);
                batch[i].suite = workload.suite();
            }
            std::vector<ExperimentResponse> responses;
            BatchStats stats;
            timed("ServiceClient::runBatch", [&] {
                check(client.runBatch(batch, responses, stats, error),
                      "probe batch");
            });
            daemon.stop();
            depth = daemon.counters().maxQueueDepth;
        }
        add("service.queue_depth_max", static_cast<double>(depth), "count");
    }

    // Cache-dir footprint of the traced round, by artifact kind.
    const std::pair<const char *, KindUsage> kinds[] = {
        {"results", round.usage.results},
        {"traces", round.usage.traces},
        {"livepoints", round.usage.livepoints},
        {"warm", round.usage.warm}};
    for (const auto &[kind, usage] : kinds) {
        add(std::string("cache.") + kind + "_mb", usage.bytes / 1e6, "MB");
        add(std::string("cache.") + kind + "_files",
            static_cast<double>(usage.files), "count");
    }
    return outcome;
}

} // namespace perfbench
