#include "core/svat_analysis.hh"

#include "stats/distance.hh"
#include "support/logging.hh"
#include "techniques/full_reference.hh"

namespace yasim {

std::vector<SvatPoint>
svatAnalysis(SimulationService &service, const TechniqueContext &ctx,
             const std::vector<TechniquePtr> &techniques,
             const std::vector<SimConfig> &configs)
{
    YASIM_ASSERT(!configs.empty());

    // The reference leads the grid: row 0.
    std::vector<TechniquePtr> grid = {std::make_shared<FullReference>()};
    grid.insert(grid.end(), techniques.begin(), techniques.end());
    const auto rows = runGrid(service, grid, ctx, configs);

    std::vector<double> ref_cpis;
    double ref_work = 0.0;
    for (const TechniqueResult &r : rows[0]) {
        ref_cpis.push_back(r.cpi);
        ref_work += r.workUnits;
    }

    std::vector<SvatPoint> points;
    for (size_t t = 0; t < techniques.size(); ++t) {
        SvatPoint point;
        point.technique = techniques[t]->name();
        point.permutation = techniques[t]->permutation();
        double work = 0.0;
        for (const TechniqueResult &r : rows[t + 1]) {
            point.cpis.push_back(r.cpi);
            work += r.workUnits;
        }
        point.speedPct = 100.0 * work / ref_work;
        point.cpiDistance = manhattanDistance(point.cpis, ref_cpis);
        points.push_back(std::move(point));
    }
    return points;
}

} // namespace yasim
