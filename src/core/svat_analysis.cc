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

    FullReference reference;
    std::vector<double> ref_cpis;
    double ref_work = 0.0;
    for (const SimConfig &config : configs) {
        TechniqueResult r = service.run(reference, ctx, config);
        ref_cpis.push_back(r.cpi);
        ref_work += r.workUnits;
    }

    std::vector<SvatPoint> points;
    for (const TechniquePtr &technique : techniques) {
        SvatPoint point;
        point.technique = technique->name();
        point.permutation = technique->permutation();
        double work = 0.0;
        for (const SimConfig &config : configs) {
            TechniqueResult r = service.run(*technique, ctx, config);
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
