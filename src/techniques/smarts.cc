#include "techniques/smarts.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "sim/sampling.hh"
#include "stats/summary.hh"
#include "support/logging.hh"
#include "techniques/trace_store.hh"

namespace yasim {

Smarts::Smarts(uint64_t unit_insts, uint64_t warmup_insts,
               double confidence, double interval, uint64_t initial_n)
    : unitInsts(unit_insts),
      warmupInsts(warmup_insts),
      confidence(confidence),
      interval(interval),
      initialN(initial_n)
{
    YASIM_ASSERT(unit_insts >= 1);
}

std::string
Smarts::permutation() const
{
    return "U=" + std::to_string(unitInsts) +
           " W=" + std::to_string(warmupInsts);
}

// The plan=grid marker separates grid-scheduled results from the
// legacy free-running pass, whose unit positions differed slightly.
// yasim-lint: key(tech) covers Smarts(techniques/smarts.hh)
std::string
Smarts::cacheKey() const
{
    return csprintf(
        "SMARTS|plan=grid|u=%llu|w=%llu|conf=%.17g|int=%.17g|n0=%llu",
        static_cast<unsigned long long>(unitInsts),
        static_cast<unsigned long long>(warmupInsts), confidence,
        interval, static_cast<unsigned long long>(initialN));
}

TechniqueResult
Smarts::run(const TechniqueContext &ctx, const SimConfig &config) const
{
    const SamplingPlan plan =
        SamplingPlan::make(unitInsts, warmupInsts, ctx.referenceLength);

    // Initial n: the paper's 10,000 scaled by our instruction budget
    // (DESIGN.md section 5), bounded to stay meaningful.
    uint64_t n = initialN;
    if (n == 0) {
        n = ctx.referenceLength / std::max<uint64_t>(plan.span() * 5, 1);
        n = std::clamp<uint64_t>(n, 50, 3000);
    }

    const std::shared_ptr<const ExecTrace> trace =
        openStream(ctx, InputSet::Reference).trace();

    TechniqueResult result;
    result.technique = name();
    result.permutation = permutation();

    // Units measured so far, by grid index. Escalation selections are
    // supersets, so nothing here is ever measured twice — re-runs pay
    // only for the *additional* units (and a fresh warming walk).
    std::map<uint64_t, UnitResult> units;
    uint64_t warm_charged = 0;
    uint64_t detailed_done = 0;
    std::vector<uint64_t> indices;

    try {
        for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
            indices = plan.indicesFor(n);

            std::vector<uint64_t> missing;
            for (uint64_t j : indices) {
                if (!units.count(j))
                    missing.push_back(j);
            }
            for (auto &unit :
                 walkUnits(trace, plan, config, missing, ctx.cancel)) {
                detailed_done += unit.warmupDone + unit.unitDone;
                units.emplace(unit.index, std::move(unit));
            }
            // Modeled warming cost: one conceptual pass through the
            // last selected unit's span, however often the walks
            // re-warm the prefix.
            warm_charged = std::max(
                warm_charged,
                std::min(plan.length,
                         plan.warmStart(indices.back()) + plan.span()));

            std::vector<double> cpis;
            for (uint64_t j : indices) {
                const auto &unit = units.at(j);
                if (unit.measured)
                    cpis.push_back(unit.stats.cpi());
            }
            if (cpis.size() < 2)
                break;
            double cv = coefficientOfVariation(cpis);
            size_t needed = requiredSamples(cv, confidence, interval);
            if (needed <= cpis.size())
                break; // CI satisfied
            // Even back-to-back units (the full grid) could not reach
            // the interval: the scaled budget simply cannot support
            // it, so keep the estimate rather than degenerate into a
            // full detailed run.
            if (needed > plan.maxUnits)
                break;
            if (plan.strideFor(needed) >= plan.strideFor(n))
                break; // already sampling as densely as possible
            n = needed;
        }
    } catch (CancelledError &cancelled) {
        // walkUnits() reports only its own partial walk; add the
        // completed attempts, then convert to work units here, where
        // the cost model lives.
        cancelled.warmedInsts += warm_charged;
        cancelled.detailedInsts += detailed_done;
        cancelled.partialWorkUnits =
            ctx.cost.functionalWarmPerInst *
                static_cast<double>(cancelled.warmedInsts) +
            ctx.cost.detailedPerInst *
                static_cast<double>(cancelled.detailedInsts);
        throw;
    }

    // Stitch in ascending grid order, always: escalated units were
    // measured by later walks, and their measurement order must never
    // reach the arithmetic.
    std::vector<double> unit_cpis;
    SimStats measured;
    std::vector<double> bbef;
    std::vector<double> bbv;
    uint64_t detailed_insts = 0;
    for (uint64_t j : indices) {
        const auto &unit = units.at(j);
        if (!unit.measured)
            continue;
        unit_cpis.push_back(unit.stats.cpi());
        measured += unit.stats;
        detailed_insts += unit.warmupDone + unit.unitDone;
        if (bbef.empty()) {
            bbef = unit.bbef;
            bbv = unit.bbv;
        } else {
            for (size_t b = 0; b < bbef.size(); ++b) {
                bbef[b] += unit.bbef[b];
                bbv[b] += unit.bbv[b];
            }
        }
    }

    YASIM_ASSERT(!unit_cpis.empty());
    result.cpi = mean(unit_cpis);
    result.metrics = measured.metricVector();
    result.detailed = measured;
    result.bbef = std::move(bbef);
    result.bbv = std::move(bbv);
    result.detailedInsts = detailed_insts;
    result.workUnits =
        ctx.cost.functionalWarmPerInst *
            static_cast<double>(warm_charged) +
        ctx.cost.detailedPerInst * static_cast<double>(detailed_done);
    return result;
}

} // namespace yasim
