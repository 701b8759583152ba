/**
 * @file
 * Ablation: random sampling [Conte96] versus SMARTS.
 *
 * The paper excluded random sampling from its study; this extension
 * quantifies why that was no great loss. Plain random sampling skips
 * between samples with *stale* microarchitectural state, so its error
 * is dominated by cold-start bias; Conte et al.'s remedies — more
 * per-sample warm-up, more samples — help but never close the gap to
 * SMARTS, whose functional warming keeps caches and predictor live
 * through every skipped region.
 */

#include <cmath>

#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"
#include "techniques/random_sampling.hh"
#include "techniques/smarts.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        SimConfig config = architecturalConfig(2);

        Table table("Ablation: random sampling (Conte96) vs SMARTS "
                    "(config #2; error vs full reference CPI)");
        table.setHeader({"benchmark", "technique", "CPI error",
                         "cost %"});

        // The reference, then Conte's axes (more warm-up, then more
        // samples) and SMARTS, on every benchmark in one batch.
        const std::vector<TechniquePtr> techniques = {
            std::make_shared<FullReference>(),
            std::make_shared<RandomSampling>(50, 1000, 0),
            std::make_shared<RandomSampling>(50, 1000, 2000),
            std::make_shared<RandomSampling>(50, 1000, 10000),
            std::make_shared<RandomSampling>(200, 1000, 2000),
            std::make_shared<Smarts>(1000, 2000)};

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
            for (size_t t = 1; t < techniques.size(); ++t) {
                const TechniqueResult &r = row[t];
                table.addRow(
                    {contexts[b].benchmark,
                     techniques[t]->name() + " " +
                         techniques[t]->permutation(),
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
