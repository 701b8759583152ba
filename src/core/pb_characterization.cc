#include "core/pb_characterization.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/config.hh"
#include "stats/distance.hh"
#include "support/logging.hh"

namespace yasim {

std::vector<SimConfig>
pbDesignConfigs(const PbDesign &design)
{
    std::vector<SimConfig> configs;
    configs.reserve(design.numRuns());
    for (size_t run = 0; run < design.numRuns(); ++run) {
        std::vector<int> levels(design.numFactors());
        for (size_t j = 0; j < design.numFactors(); ++j)
            levels[j] = design.level(run, j);
        configs.push_back(
            applyPbRow(levels, "pb-run" + std::to_string(run)));
    }
    return configs;
}

std::vector<PbOutcome>
runPbDesign(SimulationService &service,
            const std::vector<TechniquePtr> &techniques,
            const TechniqueContext &ctx, const PbDesign &design)
{
    const auto rows =
        runGrid(service, techniques, ctx, pbDesignConfigs(design));

    const size_t factors = numPbFactors();
    std::vector<PbOutcome> outcomes(techniques.size());
    for (size_t t = 0; t < techniques.size(); ++t) {
        PbOutcome &outcome = outcomes[t];
        outcome.technique = techniques[t]->name();
        outcome.permutation = techniques[t]->permutation();
        outcome.responses.reserve(design.numRuns());
        for (const TechniqueResult &result : rows[t]) {
            outcome.responses.push_back(result.cpi);
            outcome.workUnits += result.workUnits;
        }

        std::vector<double> all_effects =
            design.computeEffects(outcome.responses);
        // Only the real factors rank; any extra design columns are
        // dummy factors that merely estimate noise.
        outcome.effects.assign(all_effects.begin(),
                               all_effects.begin() +
                                   static_cast<long>(factors));
        outcome.ranks = rankByMagnitude(outcome.effects);
    }
    return outcomes;
}

double
pbDistance(const PbOutcome &technique, const PbOutcome &reference)
{
    return normalizedRankDistance(technique.ranks, reference.ranks);
}

std::vector<double>
pbDistanceDifference(const PbOutcome &a, const PbOutcome &b,
                     const PbOutcome &reference)
{
    const size_t n = reference.ranks.size();
    YASIM_ASSERT(a.ranks.size() == n && b.ranks.size() == n);

    // Parameters in ascending order of reference rank (most significant
    // first), as Figure 2 plots them.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
        return reference.ranks[i] < reference.ranks[j];
    });

    std::vector<double> series(n, 0.0);
    double acc_a = 0.0, acc_b = 0.0;
    for (size_t top = 0; top < n; ++top) {
        size_t p = order[top];
        double da = static_cast<double>(a.ranks[p] - reference.ranks[p]);
        double db = static_cast<double>(b.ranks[p] - reference.ranks[p]);
        acc_a += da * da;
        acc_b += db * db;
        series[top] = std::sqrt(acc_a) - std::sqrt(acc_b);
    }
    return series;
}

} // namespace yasim
