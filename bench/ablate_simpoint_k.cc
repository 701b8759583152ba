/**
 * @file
 * Ablation: SimPoint accuracy versus max_k and the projected BBV
 * dimensionality.
 *
 * The paper attributes SimPoint's one weakness (underestimating gcc's
 * memory-latency bottleneck) to too-coarse clustering and notes that
 * raising max_k "can minimize or eliminate this problem"; this bench
 * quantifies that: CPI error against the reference on configuration #2
 * as max_k grows, and as the random projection keeps more dimensions.
 */

#include <cmath>
#include <iostream>
#include <iterator>

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

        Table k_table("Ablation: SimPoint CPI error vs max_k "
                      "(10M intervals, 15-dim projection, config #2)");
        std::vector<std::string> header = {"benchmark"};
        const int ks[] = {1, 5, 10, 30, 100};
        for (int k : ks)
            header.push_back("max_k=" + std::to_string(k));
        k_table.setHeader(header);

        Table d_table("Ablation: SimPoint CPI error vs projection "
                      "dimensionality (10M intervals, max_k=30)");
        std::vector<std::string> d_header = {"benchmark"};
        const size_t dims[] = {2, 5, 15, 50};
        for (size_t d : dims)
            d_header.push_back("dim=" + std::to_string(d));
        d_table.setHeader(d_header);

        // The reference, the max_k sweep, then the dimensionality
        // sweep, on every benchmark in one batch. "max_k=30" and
        // "dim=15" are one experiment: the batch computes it once.
        std::vector<TechniquePtr> techniques = {
            std::make_shared<FullReference>()};
        for (int k : ks)
            techniques.push_back(std::make_shared<SimPoint>(
                10.0, k, 1.0, "max_k=" + std::to_string(k)));
        for (size_t d : dims)
            techniques.push_back(std::make_shared<SimPoint>(
                10.0, 30, 1.0, "dim=" + std::to_string(d), d));

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
            const double ref_cpi = row[0].cpi;
            auto error = [&](size_t t) {
                return Table::pct(
                    std::fabs(row[t].cpi - ref_cpi) / ref_cpi * 100.0, 2);
            };
            std::vector<std::string> k_row = {contexts[b].benchmark};
            for (size_t i = 0; i < std::size(ks); ++i)
                k_row.push_back(error(1 + i));
            k_table.addRow(k_row);

            std::vector<std::string> d_row = {contexts[b].benchmark};
            for (size_t i = 0; i < std::size(dims); ++i)
                d_row.push_back(error(1 + std::size(ks) + i));
            d_table.addRow(d_row);
        }

        driver.print(k_table);
        if (!driver.options().csv)
            std::cout << "\n";
        driver.print(d_table);
    });
}
