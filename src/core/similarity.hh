/**
 * @file
 * Benchmark-similarity analysis in the style of Eeckhout et al.
 * [Eeckhout02], which the paper's related-work section describes:
 * characterize each benchmark/input pair with a vector of
 * microarchitecture-independent and -dependent metrics (instruction
 * mix, branch predictability, cache miss rates, inherent parallelism),
 * normalize the metrics, and cluster the pairs — statistically similar
 * pairs are redundant in a benchmark suite, and a reduced input that
 * lands in a different cluster than its reference input is, in the
 * paper's words, "a completely different benchmark program".
 */

#ifndef YASIM_CORE_SIMILARITY_HH
#define YASIM_CORE_SIMILARITY_HH

#include <string>
#include <vector>

#include "workloads/suite.hh"

namespace yasim {

class TraceStore;

/** The characteristic vector of one benchmark/input pair. */
struct WorkloadCharacteristics
{
    std::string benchmark;
    InputSet input = InputSet::Reference;

    // Microarchitecture-independent: dynamic instruction mix.
    double loadFraction = 0.0;
    double storeFraction = 0.0;
    double branchFraction = 0.0;
    double fpFraction = 0.0;
    double mulDivFraction = 0.0;

    // Microarchitecture-dependent (fixed probe machines).
    double branchAccuracy = 0.0;
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    /** IPC on a very wide machine: inherent-parallelism proxy. */
    double ilpProxy = 0.0;

    /** The metrics as a vector (order matches metricNames()). */
    std::vector<double> vec() const;

    /** Names of the vector's coordinates. */
    static const std::vector<std::string> &metricNames();
};

/**
 * Measure one benchmark/input pair's characteristics: one pass over
 * the stream for the instruction mix and one detailed run on each
 * probe machine (Table-3 #2 for the memory/branch metrics, a widened
 * #4 for the ILP proxy). All three passes replay @p traces' one
 * recording of the pair.
 */
WorkloadCharacteristics
characterizeWorkload(const std::string &benchmark, InputSet input,
                     const SuiteConfig &suite, TraceStore &traces);

/**
 * Z-score-normalize a set of characteristic vectors per coordinate
 * (zero-variance coordinates normalize to zero).
 */
std::vector<std::vector<double>>
zScoreNormalize(const std::vector<std::vector<double>> &vectors);

/** The outcome of a similarity analysis over a set of pairs. */
struct SimilarityAnalysis
{
    std::vector<WorkloadCharacteristics> items;
    /** Z-scored characteristic vectors, one per item. */
    std::vector<std::vector<double>> normalized;
    /** Cluster index per item. */
    std::vector<int> cluster;
    /** Number of clusters the BIC criterion chose. */
    int numClusters = 0;
    /** Pairwise Euclidean distances in normalized space. */
    std::vector<std::vector<double>> distance;
};

/**
 * Characterize and cluster a set of benchmark/input pairs.
 *
 * @param pairs items to analyze
 * @param suite workload scaling
 * @param traces shared trace store for the characterizations
 * @param max_k cluster-count ceiling for the BIC selection
 */
SimilarityAnalysis
analyzeSimilarity(const std::vector<std::pair<std::string, InputSet>> &pairs,
                  const SuiteConfig &suite, TraceStore &traces,
                  int max_k = 6);

} // namespace yasim

#endif // YASIM_CORE_SIMILARITY_HH
