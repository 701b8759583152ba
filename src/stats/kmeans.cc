#include "stats/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hh"

namespace yasim {

namespace {

/** Squared distance of two @p dim-long rows, summed in index order. */
double
squaredDistance(const double *a, const double *b, size_t dim)
{
    double acc = 0.0;
    for (size_t i = 0; i < dim; ++i)
        acc += (a[i] - b[i]) * (a[i] - b[i]);
    return acc;
}

/**
 * squaredDistance(a, b, dim) if that is below @p bound, else a value
 * that is not below it. Exact: every term is non-negative (or NaN),
 * so a rounded partial sum never falls once it reaches the bound, and
 * a NaN or inf partial sum is no more below the bound than the full
 * sum would be.
 */
double
squaredDistanceBelow(const double *a, const double *b, size_t dim,
                     double bound)
{
    double acc = 0.0;
    for (size_t i = 0; i < dim && acc < bound; ++i)
        acc += (a[i] - b[i]) * (a[i] - b[i]);
    return acc;
}

/**
 * k-means++ seeding: spread initial centroids by D^2 sampling. Returns
 * @p k rows taken from the row-major @p points (n rows of @p dim). d2
 * keeps each point's distance to its nearest centroid so far, so each
 * pick folds in only the newest one.
 */
std::vector<double>
seedCentroids(const std::vector<double> &points, size_t n, size_t dim,
              int k, Rng &rng)
{
    std::vector<double> centroids;
    auto take = [&](size_t row) {
        centroids.insert(centroids.end(), points.begin() + row * dim,
                         points.begin() + (row + 1) * dim);
    };
    centroids.reserve(static_cast<size_t>(k) * dim);
    take(rng.nextBelow(n));
    std::vector<double> d2(n, std::numeric_limits<double>::max());
    for (int picked = 1; picked < k; ++picked) {
        const double *newest = centroids.data() + (picked - 1) * dim;
        double total = 0.0;
        for (size_t i = 0; i < n; ++i) {
            d2[i] = std::min(
                d2[i], squaredDistance(points.data() + i * dim, newest, dim));
            total += d2[i];
        }
        if (total == 0.0) {
            // All points coincide with existing centroids; duplicate one.
            take(rng.nextBelow(n));
            continue;
        }
        double target = rng.nextDouble() * total;
        size_t pick = n - 1;
        double acc = 0.0;
        for (size_t i = 0; i < n; ++i) {
            acc += d2[i];
            if (acc >= target) {
                pick = i;
                break;
            }
        }
        take(pick);
    }
    return centroids;
}

} // namespace

KmeansResult
kmeans(const std::vector<std::vector<double>> &points, int k, Rng &rng,
       int max_iters)
{
    YASIM_ASSERT(!points.empty());
    YASIM_ASSERT(k >= 1);
    k = std::min<int>(k, static_cast<int>(points.size()));
    const size_t n = points.size();
    const size_t dim = points[0].size();
    const auto kk = static_cast<size_t>(k);

    // Row-major copies: point i is flat[i * dim, (i + 1) * dim), and
    // centroid c likewise in centroids.
    std::vector<double> flat;
    flat.reserve(n * dim);
    for (const auto &p : points)
        flat.insert(flat.end(), p.begin(), p.end());
    auto point = [&](size_t i) { return flat.data() + i * dim; };
    std::vector<double> centroids = seedCentroids(flat, n, dim, k, rng);
    auto centroid = [&](size_t c) { return centroids.data() + c * dim; };

    KmeansResult result;
    result.assignment.assign(n, 0);
    std::vector<double> sums(kk * dim);
    std::vector<size_t> counts(kk);

    for (int iter = 0; iter < max_iters; ++iter) {
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            // Ascending scan with a strict <: the lowest index wins a tie.
            int best = 0;
            double best_d = std::numeric_limits<double>::max();
            for (size_t c = 0; c < kk; ++c) {
                double d = squaredDistanceBelow(point(i), centroid(c),
                                                dim, best_d);
                if (d < best_d) {
                    best_d = d;
                    best = static_cast<int>(c);
                }
            }
            if (result.assignment[i] != best) {
                result.assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (size_t i = 0; i < n; ++i) {
            auto c = static_cast<size_t>(result.assignment[i]);
            ++counts[c];
            for (size_t d = 0; d < dim; ++d)
                sums[c * dim + d] += point(i)[d];
        }
        for (size_t c = 0; c < kk; ++c) {
            if (counts[c] == 0)
                continue; // keep the stale centroid; cluster stays empty
            for (size_t d = 0; d < dim; ++d)
                centroid(c)[d] =
                    sums[c * dim + d] / static_cast<double>(counts[c]);
        }
        if (!changed && iter > 0)
            break;
    }

    result.distortion = 0.0;
    std::vector<bool> used(kk, false);
    for (size_t i = 0; i < n; ++i) {
        auto c = static_cast<size_t>(result.assignment[i]);
        used[c] = true;
        result.distortion += squaredDistance(point(i), centroid(c), dim);
    }
    result.numClusters =
        static_cast<int>(std::count(used.begin(), used.end(), true));
    result.centroids.reserve(kk);
    for (size_t c = 0; c < kk; ++c)
        result.centroids.emplace_back(centroid(c), centroid(c) + dim);
    return result;
}

KmeansResult
kmeansRestarts(const std::vector<std::vector<double>> &points, int k,
               Rng &rng, int restarts, int max_iters)
{
    YASIM_ASSERT(restarts >= 1);
    KmeansResult best = kmeans(points, k, rng, max_iters);
    for (int r = 1; r < restarts; ++r) {
        KmeansResult candidate = kmeans(points, k, rng, max_iters);
        if (candidate.distortion < best.distortion)
            best = std::move(candidate);
    }
    return best;
}

double
bicScore(const std::vector<std::vector<double>> &points,
         const KmeansResult &clustering)
{
    const double r = static_cast<double>(points.size());
    const double m = static_cast<double>(points[0].size());
    const double k = static_cast<double>(clustering.centroids.size());
    if (r <= k) // degenerate: every point its own cluster
        return -std::numeric_limits<double>::max();

    // Maximum-likelihood variance of the identical spherical model.
    double variance = clustering.distortion / (m * (r - k));
    variance = std::max(variance, 1e-12);

    std::vector<size_t> counts(clustering.centroids.size(), 0);
    for (int a : clustering.assignment)
        ++counts[static_cast<size_t>(a)];

    double loglik = 0.0;
    for (size_t c = 0; c < counts.size(); ++c) {
        double rn = static_cast<double>(counts[c]);
        if (rn == 0.0)
            continue;
        loglik += rn * std::log(rn / r);
    }
    loglik -= r * m / 2.0 * std::log(2.0 * M_PI * variance);
    loglik -= m * (r - k) / 2.0;

    double num_params = k * (m + 1.0);
    return loglik - num_params / 2.0 * std::log(r);
}

namespace {

KSelection
selectFromCandidates(const std::vector<std::vector<double>> &points,
                     const std::vector<int> &candidates, Rng &rng,
                     double threshold, int restarts)
{
    KSelection sel;
    std::vector<KmeansResult> runs;
    runs.reserve(candidates.size());
    for (int k : candidates) {
        runs.push_back(kmeansRestarts(points, k, rng, restarts));
        sel.scores.push_back(bicScore(points, runs.back()));
    }
    double best = *std::max_element(sel.scores.begin(), sel.scores.end());
    double worst = *std::min_element(sel.scores.begin(), sel.scores.end());
    double cut = worst + threshold * (best - worst);
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (sel.scores[i] >= cut) {
            sel.k = candidates[i];
            sel.best = std::move(runs[i]);
            return sel;
        }
    }
    sel.k = candidates.back();
    sel.best = std::move(runs.back());
    return sel;
}

} // namespace

KSelection
selectK(const std::vector<std::vector<double>> &points, int max_k, Rng &rng,
        double threshold, int restarts)
{
    YASIM_ASSERT(max_k >= 1);
    max_k = std::min<int>(max_k, static_cast<int>(points.size()));
    std::vector<int> candidates;
    for (int k = 1; k <= max_k; ++k)
        candidates.push_back(k);
    return selectFromCandidates(points, candidates, rng, threshold,
                                restarts);
}

KSelection
selectKLadder(const std::vector<std::vector<double>> &points, int max_k,
              Rng &rng, double threshold, int restarts)
{
    YASIM_ASSERT(max_k >= 1);
    max_k = std::min<int>(max_k, static_cast<int>(points.size()));
    std::vector<int> candidates;
    int k = 1;
    while (k < max_k) {
        candidates.push_back(k);
        int next = std::max(k + 1, k + k / 4);
        k = next;
    }
    candidates.push_back(max_k);
    return selectFromCandidates(points, candidates, rng, threshold,
                                restarts);
}

} // namespace yasim
