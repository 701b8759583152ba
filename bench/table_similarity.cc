/**
 * @file
 * Extension: the [Eeckhout02] benchmark-similarity analysis from the
 * paper's related-work section — characteristic vectors (instruction
 * mix, branch predictability, cache behaviour, inherent parallelism)
 * for every benchmark's reference input *and* its most-reduced input,
 * z-scored and clustered.
 *
 * Two readings: (a) which suite benchmarks are statistically redundant
 * (same cluster); (b) whether a reduced input lands in its reference
 * input's cluster — the paper's reduced-input finding restated as a
 * clustering result (mcf/small famously does not).
 */

#include <iostream>

#include "core/similarity.hh"
#include "engine/bench_driver.hh"
#include "support/table.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv)
        .defaultRefInsts(300'000)
        .run([](BenchDriver &driver) {
            // Reference input of every benchmark, plus the smallest
            // available reduced input of each.
            std::vector<std::pair<std::string, InputSet>> pairs;
            for (const std::string &bench : driver.benchmarks()) {
                pairs.emplace_back(bench, InputSet::Reference);
                for (InputSet input : availableInputs(bench)) {
                    if (input != InputSet::Reference) {
                        pairs.emplace_back(bench, input);
                        break; // smallest comes first in ladder order
                    }
                }
            }

            SimilarityAnalysis analysis =
                analyzeSimilarity(pairs, driver.options().suite,
                                  *driver.engine().traceStore(), 8);

            Table table("Benchmark/input similarity (z-scored "
                        "characteristics, k-means/BIC clustering -> " +
                        std::to_string(analysis.numClusters) +
                        " clusters)");
            std::vector<std::string> header = {"pair", "cluster"};
            for (const std::string &name :
                 WorkloadCharacteristics::metricNames())
                header.push_back(name);
            table.setHeader(header);

            for (size_t i = 0; i < analysis.items.size(); ++i) {
                const WorkloadCharacteristics &wc = analysis.items[i];
                std::vector<std::string> row = {
                    wc.benchmark + "/" + inputSetName(wc.input),
                    std::to_string(analysis.cluster[i])};
                for (double v : wc.vec())
                    row.push_back(Table::num(v, 3));
                table.addRow(row);
            }
            driver.print(table);

            // Does each reduced input share its reference's cluster?
            Table verdicts("\nReduced input in the reference's cluster?");
            verdicts.setHeader({"benchmark", "reduced input",
                                "same cluster", "distance to reference"});
            for (size_t i = 0; i < analysis.items.size(); ++i) {
                if (analysis.items[i].input == InputSet::Reference)
                    continue;
                // Find this benchmark's reference entry.
                for (size_t j = 0; j < analysis.items.size(); ++j) {
                    if (analysis.items[j].benchmark ==
                            analysis.items[i].benchmark &&
                        analysis.items[j].input == InputSet::Reference) {
                        verdicts.addRow(
                            {analysis.items[i].benchmark,
                             inputSetName(analysis.items[i].input),
                             analysis.cluster[i] == analysis.cluster[j]
                                 ? "yes"
                                 : "NO",
                             Table::num(analysis.distance[i][j], 2)});
                    }
                }
            }
            verdicts.print(std::cout);
        });
}
