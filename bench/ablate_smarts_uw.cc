/**
 * @file
 * Ablation: SMARTS accuracy and cost across the U x W grid.
 *
 * Section 6.1 observes that all nine SMARTS permutations land at very
 * similar accuracy; this bench reproduces that observation and shows
 * the cost side: larger units and warm-ups buy little accuracy while
 * inflating the detailed-simulation fraction.
 */

#include <cmath>
#include <iterator>
#include <utility>

#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"
#include "techniques/smarts.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        SimConfig config = architecturalConfig(2);

        Table table("Ablation: SMARTS CPI error and cost across U x W "
                    "(config #2; cost = work as % of reference)");
        table.setHeader({"benchmark", "U", "W", "CPI error", "cost %"});

        // The reference, then SMARTS at every (U, W = 2U or 20U), on
        // every benchmark in one batch.
        const std::pair<uint64_t, uint64_t> uw[] = {
            {100, 200},    {100, 2000},    {1000, 2000},
            {1000, 20000}, {10000, 20000}, {10000, 200000}};
        std::vector<TechniquePtr> techniques = {
            std::make_shared<FullReference>()};
        for (const auto &[u, w] : uw)
            techniques.push_back(std::make_shared<Smarts>(u, w));

        std::vector<TechniqueContext> contexts;
        for (const std::string &bench : driver.benchmarks())
            contexts.push_back(driver.context(bench));
        std::vector<GridJob> jobs;
        for (const TechniqueContext &ctx : contexts)
            for (const TechniquePtr &technique : techniques)
                jobs.push_back({technique.get(), &ctx, &config});
        const std::vector<TechniqueResult> results =
            driver.engine().runAll(jobs);

        for (size_t b = 0; b < contexts.size(); ++b) {
            const TechniqueResult *row = &results[b * techniques.size()];
            const TechniqueResult &ref = row[0];
            for (size_t i = 0; i < std::size(uw); ++i) {
                const TechniqueResult &r = row[i + 1];
                table.addRow(
                    {contexts[b].benchmark, std::to_string(uw[i].first),
                     std::to_string(uw[i].second),
                     Table::pct(std::fabs(r.cpi - ref.cpi) / ref.cpi *
                                    100.0,
                                2),
                     Table::num(100.0 * r.workUnits / ref.workUnits,
                                1)});
            }
            table.addRule();
        }

        driver.print(table);
    });
}
