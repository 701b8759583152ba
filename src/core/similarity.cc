#include "core/similarity.hh"

#include <cmath>

#include "sim/ooo_core.hh"
#include "stats/distance.hh"
#include "stats/kmeans.hh"
#include "stats/summary.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "techniques/trace_store.hh"

namespace yasim {

std::vector<double>
WorkloadCharacteristics::vec() const
{
    return {loadFraction,   storeFraction, branchFraction,
            fpFraction,     mulDivFraction, branchAccuracy,
            l1dMissRate,    l2MissRate,     ilpProxy};
}

const std::vector<std::string> &
WorkloadCharacteristics::metricNames()
{
    static const std::vector<std::string> names = {
        "load frac",   "store frac",  "branch frac",
        "FP frac",     "mul/div frac", "BP accuracy",
        "L1D miss",    "L2 miss",      "ILP proxy",
    };
    return names;
}

WorkloadCharacteristics
characterizeWorkload(const std::string &benchmark, InputSet input,
                     const SuiteConfig &suite, TraceStore &traces)
{
    WorkloadCharacteristics wc;
    wc.benchmark = benchmark;
    wc.input = input;

    // Instruction mix: one pass over the stream.
    {
        TraceReplayer src = openStream(benchmark, input, suite, traces);
        constexpr uint64_t kMixBatch = 4096;
        std::vector<ExecRecord> batch(kMixBatch);
        uint64_t total = 0, loads = 0, stores = 0, branches = 0,
                 fp = 0, muldiv = 0;
        uint64_t n;
        while ((n = src.stepBatch(batch.data(), kMixBatch)) > 0) {
            total += n;
            for (uint64_t i = 0; i < n; ++i) {
                const Instruction &inst = *batch[i].inst;
                if (inst.isLoad())
                    ++loads;
                if (inst.isStore())
                    ++stores;
                if (inst.isControl())
                    ++branches;
                if (inst.isFp())
                    ++fp;
                FuClass fu = inst.fuClass();
                if (fu == FuClass::IntMult || fu == FuClass::IntDiv ||
                    fu == FuClass::FpMult || fu == FuClass::FpDiv) {
                    ++muldiv;
                }
            }
        }
        YASIM_ASSERT(total > 0);
        auto frac = [total](uint64_t n) {
            return static_cast<double>(n) / static_cast<double>(total);
        };
        wc.loadFraction = frac(loads);
        wc.storeFraction = frac(stores);
        wc.branchFraction = frac(branches);
        wc.fpFraction = frac(fp);
        wc.mulDivFraction = frac(muldiv);
    }

    // Memory/branch behaviour on the mid-range probe machine.
    {
        TraceReplayer src = openStream(benchmark, input, suite, traces);
        OooCore core(architecturalConfig(2));
        core.run(src, ~0ULL);
        SimStats stats = core.snapshot();
        wc.branchAccuracy = stats.branchAccuracy();
        wc.l1dMissRate = 1.0 - stats.l1dHitRate();
        wc.l2MissRate = 1.0 - stats.l2HitRate();
    }

    // Inherent-parallelism proxy: IPC on a very wide, deep machine.
    {
        SimConfig wide = architecturalConfig(4);
        wide.core.fetchWidth = wide.core.decodeWidth = 16;
        wide.core.issueWidth = wide.core.commitWidth = 16;
        wide.core.intAlus = wide.core.fpAlus = 16;
        wide.core.robEntries = 512;
        wide.core.iqEntries = 256;
        wide.core.lsqEntries = 256;
        TraceReplayer src = openStream(benchmark, input, suite, traces);
        OooCore core(wide);
        core.run(src, ~0ULL);
        wc.ilpProxy = core.snapshot().ipc();
    }
    return wc;
}

std::vector<std::vector<double>>
zScoreNormalize(const std::vector<std::vector<double>> &vectors)
{
    YASIM_ASSERT(!vectors.empty());
    const size_t dim = vectors[0].size();
    std::vector<std::vector<double>> out(
        vectors.size(), std::vector<double>(dim, 0.0));
    for (size_t d = 0; d < dim; ++d) {
        std::vector<double> column;
        column.reserve(vectors.size());
        for (const auto &v : vectors)
            column.push_back(v[d]);
        double m = mean(column);
        double s = sampleStdev(column);
        for (size_t i = 0; i < vectors.size(); ++i)
            out[i][d] = s > 0.0 ? (vectors[i][d] - m) / s : 0.0;
    }
    return out;
}

SimilarityAnalysis
analyzeSimilarity(
    const std::vector<std::pair<std::string, InputSet>> &pairs,
    const SuiteConfig &suite, TraceStore &traces, int max_k)
{
    YASIM_ASSERT(!pairs.empty());
    SimilarityAnalysis analysis;
    std::vector<std::vector<double>> raw;
    for (const auto &[benchmark, input] : pairs) {
        analysis.items.push_back(
            characterizeWorkload(benchmark, input, suite, traces));
        raw.push_back(analysis.items.back().vec());
    }
    analysis.normalized = zScoreNormalize(raw);

    // A low BIC threshold favours finer clusterings: with only a few
    // dozen points the spherical-Gaussian BIC is conservative, and the
    // analysis is about *grouping*, not parsimony (Eeckhout et al. pick
    // the cluster count from the dendrogram by eye).
    Rng rng(1234);
    KSelection sel = selectK(analysis.normalized,
                             std::min<int>(max_k,
                                           static_cast<int>(
                                               pairs.size())),
                             rng, /*threshold=*/0.35);
    analysis.cluster = sel.best.assignment;
    analysis.numClusters = sel.best.numClusters;

    const size_t n = pairs.size();
    analysis.distance.assign(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            analysis.distance[i][j] = euclideanDistance(
                analysis.normalized[i], analysis.normalized[j]);
    return analysis;
}

} // namespace yasim
