/**
 * @file
 * Ablation: early simulation points [Perelman03], which the paper
 * cites as the remedy for SimPoint's checkpoint-generation cost ("the
 * cost of which is amortized by successive runs and can be decreased
 * by picking early simulation points"). Per cluster, the earliest
 * interval within a distance tolerance of the centroid-closest one is
 * chosen instead — the last checkpoint moves toward the front of the
 * program and generation cost falls, at a small accuracy price.
 */

#include <cmath>
#include <iterator>
#include <memory>

#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"
#include "techniques/simpoint.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        SimConfig config = architecturalConfig(2);

        Table table("Ablation: standard vs early SimPoints "
                    "(multiple 100M; last point position as % of the "
                    "run, total work as % of reference, CPI error)");
        table.setHeader({"benchmark", "variant", "last point @",
                         "cost %", "CPI error"});

        // The reference, then the standard and the early variant, on
        // every benchmark in one batch.
        const std::shared_ptr<const SimPoint> variants[] = {
            std::make_shared<SimPoint>(100.0, 10, 0.0, "multiple 100M"),
            std::make_shared<SimPoint>(100.0, 10, 0.0, "early 100M", 15,
                                       42, 3, true)};
        const std::vector<TechniquePtr> techniques = {
            std::make_shared<FullReference>(), variants[0], variants[1]};

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
            const TechniqueContext &ctx = contexts[b];
            const TechniqueResult *row = &results[b * techniques.size()];
            const TechniqueResult &ref = row[0];
            for (size_t v = 0; v < std::size(variants); ++v) {
                auto points = variants[v]->choosePoints(ctx);
                uint64_t last =
                    points.empty() ? 0 : points.back().startInst;
                const TechniqueResult &r = row[v + 1];
                table.addRow(
                    {ctx.benchmark, v == 1 ? "early" : "standard",
                     Table::pct(100.0 * static_cast<double>(last) /
                                    static_cast<double>(
                                        ctx.referenceLength),
                                1),
                     Table::num(100.0 * r.workUnits / ref.workUnits, 1),
                     Table::pct(std::fabs(r.cpi - ref.cpi) / ref.cpi *
                                    100.0,
                                2)});
            }
            table.addRule();
        }

        driver.print(table);
    });
}
