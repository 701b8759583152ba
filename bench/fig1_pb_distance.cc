/**
 * @file
 * Regenerates Figure 1: the normalized Euclidean distance between each
 * technique's performance-bottleneck rank vector and the reference
 * input set's, per benchmark, with the per-family mean, minimum, and
 * maximum across permutations.
 *
 * The bottleneck ranks come from a 43-factor Plackett-Burman design
 * (one simulation per design row). By default each technique family is
 * represented by the permutations the paper's later figures highlight;
 * --full sweeps every Table-1 permutation (the paper's 40-CPU-year
 * experiment, scaled).
 *
 * Expected shape (paper section 5.1): reduced-input and truncated-
 * execution distances are large and erratic; SimPoint and SMARTS
 * distances are small, with SMARTS slightly ahead on most benchmarks.
 */

#include <iostream>
#include <map>

#include "core/pb_characterization.hh"
#include "engine/bench_driver.hh"
#include "stats/summary.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        PbDesign design =
            PbDesign::forFactors(numPbFactors(), /*foldover=*/false);

        Table table("Figure 1: normalized PB rank-vector distance from "
                    "the reference input set (mean [min..max] across "
                    "permutations; 0 = identical bottlenecks, 100 = "
                    "completely out of phase)");
        std::vector<std::string> header = {"benchmark"};
        for (const std::string &family : techniqueFamilies())
            header.push_back(family);
        table.setHeader(header);

        for (const std::string &bench : driver.benchmarks()) {
            TechniqueContext ctx = driver.context(bench);
            auto permutations = driver.options().full
                                    ? table1Permutations(bench)
                                    : representativePermutations(bench);
            // The reference leads the list: outcome 0 holds its ranks.
            std::vector<TechniquePtr> techniques = {
                std::make_shared<FullReference>()};
            techniques.insert(techniques.end(), permutations.begin(),
                              permutations.end());
            const std::vector<PbOutcome> outcomes =
                runPbDesign(driver.engine(), techniques, ctx, design);

            std::map<std::string, std::vector<double>>
                family_distances;
            for (size_t t = 1; t < outcomes.size(); ++t)
                family_distances[outcomes[t].technique].push_back(
                    pbDistance(outcomes[t], outcomes[0]));

            std::vector<std::string> row = {bench};
            for (const std::string &family : techniqueFamilies()) {
                auto it = family_distances.find(family);
                if (it == family_distances.end()) {
                    row.emplace_back("-");
                    continue;
                }
                const std::vector<double> &d = it->second;
                row.push_back(Table::num(mean(d), 1) + " [" +
                              Table::num(minOf(d), 1) + ".." +
                              Table::num(maxOf(d), 1) + "]");
            }
            std::cerr << "fig1: " + bench + " done\n";
            table.addRow(row);
        }

        driver.print(table);
    });
}
