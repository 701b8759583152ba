/** @file Tests for k-means, BIC selection, and random projection. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "stats/kmeans.hh"
#include "stats/projection.hh"
#include "support/rng.hh"

namespace yasim {
namespace {

/** Three well-separated 2-D blobs. */
std::vector<std::vector<double>>
threeBlobs(int per_blob, Rng &rng)
{
    const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 12}};
    std::vector<std::vector<double>> points;
    for (int c = 0; c < 3; ++c)
        for (int i = 0; i < per_blob; ++i)
            points.push_back({centers[c][0] + rng.nextGaussian() * 0.5,
                              centers[c][1] + rng.nextGaussian() * 0.5});
    return points;
}

TEST(Kmeans, FindsThreeBlobs)
{
    Rng rng(42);
    auto points = threeBlobs(50, rng);
    KmeansResult result = kmeans(points, 3, rng);
    EXPECT_EQ(result.numClusters, 3);
    // Every blob's points share one label.
    for (int blob = 0; blob < 3; ++blob) {
        int label = result.assignment[static_cast<size_t>(blob * 50)];
        for (int i = 0; i < 50; ++i)
            EXPECT_EQ(result.assignment[static_cast<size_t>(
                          blob * 50 + i)],
                      label);
    }
    EXPECT_LT(result.distortion / static_cast<double>(points.size()),
              1.0);
}

TEST(Kmeans, KOneGivesGrandCentroid)
{
    Rng rng(7);
    std::vector<std::vector<double>> points = {{0}, {2}, {4}};
    KmeansResult result = kmeans(points, 1, rng);
    EXPECT_EQ(result.numClusters, 1);
    EXPECT_NEAR(result.centroids[0][0], 2.0, 1e-9);
}

TEST(Kmeans, KClampedToPointCount)
{
    Rng rng(9);
    std::vector<std::vector<double>> points = {{0}, {1}};
    KmeansResult result = kmeans(points, 10, rng);
    EXPECT_LE(result.centroids.size(), 2u);
    EXPECT_NEAR(result.distortion, 0.0, 1e-12);
}

TEST(Kmeans, DistortionDecreasesWithK)
{
    Rng rng(11);
    auto points = threeBlobs(30, rng);
    double prev = 1e300;
    for (int k = 1; k <= 4; ++k) {
        Rng seed_rng(static_cast<uint64_t>(100 + k));
        KmeansResult r = kmeans(points, k, seed_rng);
        EXPECT_LE(r.distortion, prev + 1e-9);
        prev = r.distortion;
    }
}

TEST(Bic, PrefersTrueClusterCount)
{
    Rng rng(123);
    auto points = threeBlobs(60, rng);
    KSelection sel = selectK(points, 8, rng);
    EXPECT_EQ(sel.k, 3);
}

TEST(Bic, SingleBlobPrefersKOne)
{
    Rng rng(321);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 100; ++i)
        points.push_back(
            {rng.nextGaussian() * 0.1, rng.nextGaussian() * 0.1});
    KSelection sel = selectK(points, 6, rng);
    EXPECT_LE(sel.k, 2); // the 90% threshold may admit k=2
}

TEST(Projection, PreservesRelativeDistances)
{
    Rng rng(55);
    const size_t in_dim = 500, out_dim = 15;
    RandomProjection proj(in_dim, out_dim, rng);

    // Two similar sparse vectors and one very different one.
    std::vector<double> a(in_dim, 0.0), b(in_dim, 0.0), c(in_dim, 0.0);
    for (size_t i = 0; i < 20; ++i) {
        a[i * 7] = 1.0;
        b[i * 7] = 1.1;
        c[i * 11 + 3] = 2.0;
    }
    auto pa = proj.project(a);
    auto pb = proj.project(b);
    auto pc = proj.project(c);
    ASSERT_EQ(pa.size(), out_dim);

    auto d2 = [](const std::vector<double> &x,
                 const std::vector<double> &y) {
        double acc = 0;
        for (size_t i = 0; i < x.size(); ++i)
            acc += (x[i] - y[i]) * (x[i] - y[i]);
        return acc;
    };
    EXPECT_LT(d2(pa, pb), d2(pa, pc));
}

TEST(Projection, SparseMatchesDense)
{
    Rng rng(77);
    RandomProjection proj(100, 10, rng);
    std::vector<double> dense(100, 0.0);
    std::vector<std::pair<size_t, double>> sparse;
    dense[3] = 2.5;
    dense[97] = -1.0;
    sparse = {{3, 2.5}, {97, -1.0}};
    auto pd = proj.project(dense);
    auto ps = proj.projectSparse(sparse);
    for (size_t i = 0; i < pd.size(); ++i)
        EXPECT_NEAR(pd[i], ps[i], 1e-12);
}

TEST(Projection, NormalizeL1)
{
    std::vector<double> v = {1.0, -3.0};
    normalizeL1(v);
    EXPECT_DOUBLE_EQ(v[0], 0.25);
    EXPECT_DOUBLE_EQ(v[1], -0.75);
    std::vector<double> zero = {0.0, 0.0};
    normalizeL1(zero); // must not divide by zero
    EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

/**
 * The k-means kernel as it was before its seeding and Lloyd loop were
 * made incremental: every pick recomputes each point's distance to
 * every centroid, and every assignment sums all dimensions. The
 * library must match it bit for bit. Counts records how often the
 * inputs reached the paths they are meant to cover.
 */
namespace oracle {

struct Counts
{
    /** Seeding picks taken in the total == 0 (all duplicates) branch. */
    int zeroTotal = 0;
    /** Assignments where a later centroid tied the best distance. */
    int ties = 0;
};

double
squaredDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        acc += (a[i] - b[i]) * (a[i] - b[i]);
    return acc;
}

std::vector<std::vector<double>>
seedCentroids(const std::vector<std::vector<double>> &points, int k, Rng &rng,
              Counts &counts)
{
    std::vector<std::vector<double>> centroids;
    centroids.push_back(points[rng.nextBelow(points.size())]);
    std::vector<double> d2(points.size());
    while (centroids.size() < static_cast<size_t>(k)) {
        double total = 0.0;
        for (size_t i = 0; i < points.size(); ++i) {
            double best = std::numeric_limits<double>::max();
            for (const auto &c : centroids)
                best = std::min(best, squaredDistance(points[i], c));
            d2[i] = best;
            total += best;
        }
        if (total == 0.0) {
            ++counts.zeroTotal;
            centroids.push_back(points[rng.nextBelow(points.size())]);
            continue;
        }
        double target = rng.nextDouble() * total;
        size_t pick = points.size() - 1;
        double acc = 0.0;
        for (size_t i = 0; i < points.size(); ++i) {
            acc += d2[i];
            if (acc >= target) {
                pick = i;
                break;
            }
        }
        centroids.push_back(points[pick]);
    }
    return centroids;
}

KmeansResult
kmeans(const std::vector<std::vector<double>> &points, int k, Rng &rng,
       Counts &counts)
{
    k = std::min<int>(k, static_cast<int>(points.size()));
    const size_t dim = points[0].size();
    KmeansResult result;
    result.centroids = seedCentroids(points, k, rng, counts);
    result.assignment.assign(points.size(), 0);
    for (int iter = 0; iter < 100; ++iter) {
        bool changed = false;
        for (size_t i = 0; i < points.size(); ++i) {
            int best = 0;
            double best_d = std::numeric_limits<double>::max();
            for (int c = 0; c < k; ++c) {
                double d = squaredDistance(points[i], result.centroids[c]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                } else if (d == best_d) {
                    ++counts.ties;
                }
            }
            if (result.assignment[i] != best) {
                result.assignment[i] = best;
                changed = true;
            }
        }
        std::vector<std::vector<double>> sums(
            static_cast<size_t>(k), std::vector<double>(dim, 0.0));
        std::vector<size_t> sizes(static_cast<size_t>(k), 0);
        for (size_t i = 0; i < points.size(); ++i) {
            auto c = static_cast<size_t>(result.assignment[i]);
            ++sizes[c];
            for (size_t d = 0; d < dim; ++d)
                sums[c][d] += points[i][d];
        }
        for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
            if (sizes[c] == 0)
                continue;
            for (size_t d = 0; d < dim; ++d)
                result.centroids[c][d] =
                    sums[c][d] / static_cast<double>(sizes[c]);
        }
        if (!changed && iter > 0)
            break;
    }
    std::vector<bool> used(static_cast<size_t>(k), false);
    for (size_t i = 0; i < points.size(); ++i) {
        auto c = static_cast<size_t>(result.assignment[i]);
        used[c] = true;
        result.distortion += squaredDistance(points[i], result.centroids[c]);
    }
    result.numClusters =
        static_cast<int>(std::count(used.begin(), used.end(), true));
    return result;
}

KmeansResult
kmeansRestarts(const std::vector<std::vector<double>> &points, int k,
               Rng &rng, int restarts, Counts &counts)
{
    KmeansResult best = kmeans(points, k, rng, counts);
    for (int r = 1; r < restarts; ++r) {
        KmeansResult candidate = kmeans(points, k, rng, counts);
        if (candidate.distortion < best.distortion)
            best = std::move(candidate);
    }
    return best;
}

/** selectK (ladder = false) or selectKLadder, threshold 0.9. */
KSelection
select(const std::vector<std::vector<double>> &points, int max_k, Rng &rng,
       int restarts, bool ladder, Counts &counts)
{
    max_k = std::min<int>(max_k, static_cast<int>(points.size()));
    std::vector<int> candidates;
    for (int k = 1; k < max_k; k = ladder ? std::max(k + 1, k + k / 4) : k + 1)
        candidates.push_back(k);
    candidates.push_back(max_k);
    KSelection sel;
    std::vector<KmeansResult> runs;
    for (int k : candidates) {
        runs.push_back(kmeansRestarts(points, k, rng, restarts, counts));
        sel.scores.push_back(bicScore(points, runs.back()));
    }
    double best = *std::max_element(sel.scores.begin(), sel.scores.end());
    double worst = *std::min_element(sel.scores.begin(), sel.scores.end());
    double cut = worst + 0.9 * (best - worst);
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

} // namespace oracle

/** Every bit of a clustering: assignment, count, distortion, centroids. */
std::vector<uint64_t>
bits(const KmeansResult &r)
{
    std::vector<uint64_t> out(r.assignment.begin(), r.assignment.end());
    out.push_back(static_cast<uint64_t>(r.numClusters));
    out.push_back(std::bit_cast<uint64_t>(r.distortion));
    for (const auto &c : r.centroids) {
        out.push_back(c.size());
        for (double x : c)
            out.push_back(std::bit_cast<uint64_t>(x));
    }
    return out;
}

std::vector<uint64_t>
bits(const KSelection &s)
{
    std::vector<uint64_t> out = bits(s.best);
    out.push_back(static_cast<uint64_t>(s.k));
    for (double x : s.scores)
        out.push_back(std::bit_cast<uint64_t>(x));
    return out;
}

/** @p blobs Gaussian blobs of @p per points each, in @p dim dimensions. */
std::vector<std::vector<double>>
gaussianBlobs(size_t dim, int blobs, int per, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> points;
    for (int b = 0; b < blobs; ++b) {
        std::vector<double> center(dim);
        for (double &x : center)
            x = rng.nextGaussian() * 5.0;
        for (int i = 0; i < per; ++i) {
            std::vector<double> p = center;
            for (double &x : p)
                x += rng.nextGaussian() * 0.5;
            points.push_back(std::move(p));
        }
    }
    return points;
}

struct OracleCase
{
    std::string name;
    std::vector<std::vector<double>> points;
};

std::vector<OracleCase>
oracleCases()
{
    std::vector<OracleCase> cases = {
        {"blobs dim 1", gaussianBlobs(1, 3, 20, 1)},
        {"blobs dim 2", gaussianBlobs(2, 4, 15, 2)},
        {"blobs dim 15", gaussianBlobs(15, 5, 12, 3)},
        // 0 is exactly as far from -1 as from 1, and the origin from
        // every arm of the cross.
        {"ties dim 1", {{-1}, {-1}, {1}, {1}, {0}, {0}}},
        {"ties dim 2",
         {{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {0, 0}, {2, 0}, {-2, 0}}},
        {"one point", {{0.25, -3.0}}},
    };
    // 48 copies of three points: seeding runs out of distinct points.
    OracleCase dups{"duplicates", {}};
    Rng rng(4);
    for (int i = 0; i < 48; ++i) {
        const double v = static_cast<double>(rng.nextBelow(3));
        dups.points.push_back({v, -v, 0.5 * v});
    }
    cases.push_back(std::move(dups));
    return cases;
}

TEST(KmeansOracle, KmeansAndRestartsMatchBitForBit)
{
    for (const OracleCase &c : oracleCases()) {
        SCOPED_TRACE(c.name);
        const int n = static_cast<int>(c.points.size());
        oracle::Counts counts;
        for (int k : {1, 2, 3, 5, 8, n, n + 3}) {
            for (uint64_t seed = 0; seed < 6; ++seed) {
                SCOPED_TRACE("k " + std::to_string(k) + " seed " +
                             std::to_string(seed));
                Rng got_rng(seed), want_rng(seed);
                EXPECT_EQ(bits(kmeans(c.points, k, got_rng)),
                          bits(oracle::kmeans(c.points, k, want_rng,
                                              counts)));
                EXPECT_EQ(bits(kmeansRestarts(c.points, k, got_rng, 3)),
                          bits(oracle::kmeansRestarts(c.points, k,
                                                      want_rng, 3, counts)));
                // Same draws from the generator, too.
                EXPECT_EQ(got_rng.next(), want_rng.next());
            }
        }
        // The inputs reach the paths they are named for.
        if (c.name.starts_with("ties")) {
            EXPECT_GT(counts.ties, 0);
        }
        if (c.name == "duplicates") {
            EXPECT_GT(counts.zeroTotal, 0);
        }
    }
}

TEST(KmeansOracle, SelectKAndLadderMatchBitForBit)
{
    for (const OracleCase &c : oracleCases()) {
        SCOPED_TRACE(c.name);
        oracle::Counts counts;
        for (int restarts : {1, 3}) {
            for (uint64_t seed = 0; seed < 3; ++seed) {
                SCOPED_TRACE("restarts " + std::to_string(restarts) +
                             " seed " + std::to_string(seed));
                Rng got_rng(seed), want_rng(seed);
                EXPECT_EQ(bits(selectK(c.points, 10, got_rng, 0.9,
                                       restarts)),
                          bits(oracle::select(c.points, 10, want_rng,
                                              restarts, false, counts)));
                EXPECT_EQ(bits(selectKLadder(c.points, 100, got_rng, 0.9,
                                             restarts)),
                          bits(oracle::select(c.points, 100, want_rng,
                                              restarts, true, counts)));
                EXPECT_EQ(got_rng.next(), want_rng.next());
            }
        }
    }
}

/** Property sweep: clustering is deterministic for a fixed seed. */
class KmeansDeterminism : public ::testing::TestWithParam<int>
{
};

TEST_P(KmeansDeterminism, SameSeedSameResult)
{
    int k = GetParam();
    Rng data_rng(1000);
    auto points = threeBlobs(40, data_rng);
    Rng r1(2000), r2(2000);
    KmeansResult a = kmeans(points, k, r1);
    KmeansResult b = kmeans(points, k, r2);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.distortion, b.distortion);
}

INSTANTIATE_TEST_SUITE_P(Ks, KmeansDeterminism,
                         ::testing::Values(1, 2, 3, 5, 8));

} // namespace
} // namespace yasim
