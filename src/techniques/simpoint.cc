#include "techniques/simpoint.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>

#include "sim/bb_profiler.hh"
#include "sim/ooo_core.hh"
#include "sim/sampling.hh"
#include "stats/kmeans.hh"
#include "stats/projection.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/single_flight.hh"
#include "techniques/trace_store.hh"

namespace yasim {

SimPoint::SimPoint(double interval_m, int max_k, double warmup_m,
                   std::string label, size_t proj_dim, uint64_t seed,
                   int restarts, bool early, double early_tolerance)
    : intervalM(interval_m),
      maxK(max_k),
      warmupM(warmup_m),
      label(std::move(label)),
      projDim(proj_dim),
      seed(seed),
      restarts(restarts),
      early(early),
      earlyTolerance(early_tolerance)
{
    YASIM_ASSERT(interval_m > 0 && max_k >= 1 && restarts >= 1);
}

// yasim-lint: key(tech) covers SimPoint(techniques/simpoint.hh)
std::string
SimPoint::cacheKey() const
{
    return csprintf("SimPoint|iv=%.17g|k=%d|wu=%.17g|dim=%zu|seed=%llu"
                    "|rs=%d|early=%d|tol=%.17g",
                    intervalM, maxK, warmupM, projDim,
                    static_cast<unsigned long long>(seed), restarts,
                    early ? 1 : 0, earlyTolerance);
}

namespace {

/**
 * Phase 1: one projected, L1-normalized BBV per interval. @p cancel is
 * polled every OooCore::kCancelCheckInsts profiled instructions, as a
 * detailed run polls; a cancelled pass throws CancelledError with
 * @p profiled set to the instructions it profiled.
 */
std::vector<std::vector<double>>
profileIntervals(TraceReplayer &stream, uint64_t interval_insts,
                 size_t proj_dim, uint64_t seed, const CancelToken &cancel,
                 uint64_t *profiled)
{
    const Program &program = stream.trace()->program();
    Rng rng(seed);
    RandomProjection projection(program.numBlocks(), proj_dim, rng);

    std::vector<std::vector<double>> intervals;
    std::vector<double> bbv(program.numBlocks(), 0.0);

    uint64_t in_interval = 0;
    uint64_t total = 0;
    auto flush = [&]() {
        normalizeL1(bbv);
        intervals.push_back(projection.project(bbv));
        std::fill(bbv.begin(), bbv.end(), 0.0);
        in_interval = 0;
    };
    // Pull interval-bounded batches so every interval boundary lands
    // exactly where the per-step loop would have put it, and every poll
    // on a quantum boundary.
    constexpr uint64_t kProfileBatch = 4096;
    std::vector<ExecRecord> batch(kProfileBatch);
    uint64_t next_poll = OooCore::kCancelCheckInsts;
    for (;;) {
        if (total == next_poll) {
            if (cancel.cancelled()) {
                *profiled = total;
                CancelledError err;
                err.cause = cancel.cause();
                throw err;
            }
            next_poll += OooCore::kCancelCheckInsts;
        }
        const uint64_t want = std::min(
            {kProfileBatch, interval_insts - in_interval, next_poll - total});
        const uint64_t n = stream.stepBatch(batch.data(), want);
        if (n == 0)
            break;
        for (uint64_t i = 0; i < n; ++i)
            bbv[program.blockOf(batch[i].pc)] += 1.0;
        in_interval += n;
        total += n;
        if (in_interval == interval_insts)
            flush();
    }
    // A trailing partial interval longer than half the length counts.
    if (in_interval > interval_insts / 2)
        flush();
    if (intervals.empty())
        flush();
    *profiled = total;
    return intervals;
}

} // namespace

std::vector<SimulationPoint>
SimPoint::choosePoints(const TechniqueContext &ctx) const
{
    // Points depend only on the program and the clustering parameters,
    // not on the machine configuration, so characterization loops that
    // sweep dozens of configurations reuse them (exactly as architects
    // reuse published simulation points). Every SimPoint in the
    // process shares one cache, and pool tasks reach it through run().
    static std::mutex mutex;
    // yasim-lint: guarded(mutex)
    static std::map<std::string, std::vector<SimulationPoint>> cache;
    // yasim-lint: guarded(mutex)
    static SingleFlight<std::vector<SimulationPoint>> inflight(mutex);
    const std::string key =
        csprintf("%s|%llu|%llu|", ctx.benchmark.c_str(),
                 (unsigned long long)ctx.suite.referenceInstructions,
                 (unsigned long long)ctx.suite.seed) +
        cacheKey();

    std::unique_lock<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    auto [points, joined] = inflight.run(
        lock, key, ctx.cancel, [&] { return computePoints(ctx); });
    if (!joined)
        cache.emplace(key, points);
    return points;
}

std::vector<SimulationPoint>
SimPoint::computePoints(const TechniqueContext &ctx) const
{
    TraceReplayer src = openStream(ctx, InputSet::Reference);
    const uint64_t interval_insts = intervalInsts(ctx);

    uint64_t profiled = 0;
    std::vector<std::vector<double>> intervals;
    try {
        intervals = profileIntervals(src, interval_insts, projDim, seed,
                                     ctx.cancel, &profiled);
    } catch (CancelledError &cancelled) {
        cancelled.partialWorkUnits =
            ctx.cost.profilePerInst * static_cast<double>(profiled);
        throw;
    }

    Rng rng(seed ^ 0x5eedULL);
    KSelection selection =
        maxK > 20 ? selectKLadder(intervals, maxK, rng, 0.9, restarts)
                  : selectK(intervals, maxK, rng, 0.9, restarts);

    // Representative per cluster: the interval closest to the
    // centroid, or — in early-SimPoint mode [Perelman03] — the
    // *earliest* interval whose distance is within the tolerance of
    // the closest one.
    const auto &clustering = selection.best;
    const size_t k = clustering.centroids.size();
    std::vector<double> dist2(intervals.size(), 0.0);
    std::vector<int> representative(k, -1);
    std::vector<double> best_dist(k,
                                  std::numeric_limits<double>::max());
    std::vector<uint64_t> population(k, 0);
    for (size_t i = 0; i < intervals.size(); ++i) {
        auto c = static_cast<size_t>(clustering.assignment[i]);
        ++population[c];
        double acc = 0.0;
        for (size_t d = 0; d < intervals[i].size(); ++d) {
            double delta =
                intervals[i][d] - clustering.centroids[c][d];
            acc += delta * delta;
        }
        dist2[i] = acc;
        if (acc < best_dist[c]) {
            best_dist[c] = acc;
            representative[c] = static_cast<int>(i);
        }
    }
    if (early) {
        // Earliest interval within tolerance of the cluster's best
        // (the best interval itself always qualifies, so every
        // non-empty cluster keeps a representative).
        double factor = (1.0 + earlyTolerance) * (1.0 + earlyTolerance);
        std::vector<int> earliest(k, -1);
        for (size_t i = 0; i < intervals.size(); ++i) {
            auto c = static_cast<size_t>(clustering.assignment[i]);
            if (earliest[c] >= 0)
                continue;
            if (dist2[i] <= best_dist[c] * factor + 1e-12)
                earliest[c] = static_cast<int>(i);
        }
        for (size_t c = 0; c < k; ++c)
            if (earliest[c] >= 0)
                representative[c] = earliest[c];
    }

    std::vector<SimulationPoint> points;
    for (size_t c = 0; c < k; ++c) {
        if (representative[c] < 0)
            continue; // empty cluster
        SimulationPoint p;
        p.interval = static_cast<uint64_t>(representative[c]);
        p.startInst = p.interval * interval_insts;
        p.weight = static_cast<double>(population[c]) /
                   static_cast<double>(intervals.size());
        points.push_back(p);
    }
    std::sort(points.begin(), points.end(),
              [](const SimulationPoint &a, const SimulationPoint &b) {
                  return a.startInst < b.startInst;
              });
    return points;
}

uint64_t
SimPoint::intervalInsts(const TechniqueContext &ctx) const
{
    // Floor: at the paper's scale the shortest interval is 10M dynamic
    // instructions; scaled runs must not shrink an interval below the
    // point where single-interval jitter (pipeline fill, a handful of
    // cache misses) dominates what the interval is supposed to
    // represent.
    return std::max<uint64_t>(ctx.scaledM(intervalM), 2000);
}

TechniqueResult
SimPoint::run(const TechniqueContext &ctx, const SimConfig &config) const
{
    TraceReplayer stream = openStream(ctx, InputSet::Reference);
    const uint64_t interval_insts = intervalInsts(ctx);
    const uint64_t warmup_insts =
        warmupM > 0
            ? std::max<uint64_t>(ctx.scaledM(warmupM), 256)
            : 0;

    std::vector<SimulationPoint> points = choosePoints(ctx);
    YASIM_ASSERT(!points.empty());

    // Phase 3: simulate each chosen interval in detail.
    OooCore core(config);
    BbProfiler profiler(stream.trace()->program());

    double weighted_cpi = 0.0;
    std::vector<double> weighted_metrics(4, 0.0);
    double weight_total = 0.0;
    uint64_t detailed = 0;
    uint64_t last_position = 0;
    uint64_t warmed = 0;

    // A cancelled run is charged the whole profiling pass, as a
    // finished one is, and the checkpoints and detailed runs so far.
    auto cancelled = [&] {
        CancelledError err;
        err.cause = ctx.cancel.cause();
        err.warmedInsts = warmed;
        err.detailedInsts = detailed;
        err.partialWorkUnits =
            ctx.cost.profilePerInst *
                static_cast<double>(ctx.referenceLength) +
            ctx.cost.checkpointPerInst *
                static_cast<double>(stream.instsExecuted()) +
            ctx.cost.detailedPerInst * static_cast<double>(detailed);
        return err;
    };

    for (const SimulationPoint &point : points) {
        uint64_t warm_start = point.startInst >= warmup_insts
                                  ? point.startInst - warmup_insts
                                  : 0;
        // Skipped regions execute with functional warming so each
        // checkpoint carries warm cache/predictor state (the modern
        // SimPoint "warm checkpoint" practice; the paper's assume-hit
        // warm-up approximates the same thing). warmTo polls once per
        // point, and once per further warming chunk.
        if (!warmTo(stream, std::max(warm_start, stream.instsExecuted()),
                    core.memHierarchy(), core.predictor(), ctx.cancel,
                    warmed))
            throw cancelled();
        core.resetPipeline();
        uint64_t warm_done = 0;
        if (stream.instsExecuted() < point.startInst)
            warm_done = core.run(stream,
                                 point.startInst - stream.instsExecuted(),
                                 nullptr, ctx.cancel);

        profiler.setWeight(point.weight);
        uint64_t done = 0;
        SimStats delta = core.runMeasured(stream, interval_insts, &profiler,
                                          &done, ctx.cancel);
        // The core polls too; reading the sticky cause polls nothing.
        if (ctx.cancel.cause() != CancelCause::None) {
            detailed += warm_done + done;
            throw cancelled();
        }
        detailed += done + warmup_insts;
        last_position = point.startInst + done;

        if (delta.instructions == 0)
            continue;
        weighted_cpi += point.weight * delta.cpi();
        auto metrics = delta.metricVector();
        for (size_t m = 0; m < metrics.size(); ++m)
            weighted_metrics[m] += point.weight * metrics[m];
        weight_total += point.weight;
    }
    YASIM_ASSERT(weight_total > 0.0);

    TechniqueResult result;
    result.technique = name();
    result.permutation = permutation();
    result.cpi = weighted_cpi / weight_total;
    result.metrics = weighted_metrics;
    for (double &m : result.metrics)
        m /= weight_total;
    result.detailed = core.snapshot();
    result.bbef = profiler.bbef();
    result.bbv = profiler.bbv();
    result.detailedInsts = detailed;
    // Cost: the profiling pass, checkpoint generation up to the last
    // point, and the detailed interval (plus warm-up) simulations.
    result.workUnits =
        ctx.cost.profilePerInst *
            static_cast<double>(ctx.referenceLength) +
        ctx.cost.checkpointPerInst * static_cast<double>(last_position) +
        ctx.cost.detailedPerInst * static_cast<double>(detailed);
    return result;
}

} // namespace yasim
