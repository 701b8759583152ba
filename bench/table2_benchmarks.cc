/**
 * @file
 * Regenerates Table 2: the benchmark suite and its input sets, with
 * measured dynamic instruction counts for every available input under
 * the current suite scaling (the paper's N/A holes stay N/A).
 */

#include <iostream>

#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/trace_store.hh"
#include "workloads/suite.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv)
        .defaultRefInsts(500'000)
        .run([](BenchDriver &driver) {
            Table table("Table 2: benchmarks and input sets (cells: "
                        "label / dynamic M-instructions at this scale)");
            std::vector<std::string> header = {"benchmark"};
            for (InputSet input : allInputSets())
                header.emplace_back(inputSetName(input));
            table.setHeader(header);

            for (const std::string &bench : driver.benchmarks()) {
                std::vector<std::string> row = {bench};
                for (InputSet input : allInputSets()) {
                    if (!hasInput(bench, input)) {
                        row.emplace_back("N/A");
                        continue;
                    }
                    // The recorded trace's length is the measurement.
                    const SuiteConfig &suite = driver.options().suite;
                    uint64_t len = driver.engine()
                                       .traceStore()
                                       ->get(bench, input, suite)
                                       ->length();
                    row.push_back(
                        buildWorkload(bench, input, suite).label + " / " +
                        Table::num(static_cast<double>(len) / 1e6, 2));
                }
                table.addRow(row);
            }
            driver.print(table);
        });
}
