/**
 * @file
 * Regenerates Figure 5: the configuration-dependence histograms. For
 * each technique the paper shows its worst and best permutation (by
 * the fraction of configurations within 0-3% CPI error); the exact
 * twelve permutations from the figure's x axis are reproduced here and
 * run across the envelope-of-the-hypercube configuration set, with CPI
 * errors pooled over all benchmarks.
 *
 * Expected shape (paper section 6.2): reduced inputs and truncated
 * execution pile into the >30% bin with sign-flipping errors; SMARTS
 * is almost entirely within +/-3%; SimPoint's best permutation nearly
 * so.
 */

#include <cmath>
#include <iostream>
#include <memory>

#include "core/config_dependence.hh"
#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/reduced_input.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"

using namespace yasim;

namespace {

/** The twelve x-axis permutations of Figure 5 (worst/best pairs). */
std::vector<std::pair<std::string, TechniquePtr>>
figurePermutations()
{
    return {
        {"SimPoint 1-100M",
         std::make_shared<SimPoint>(100.0, 1, 0.0, "single 100M")},
        {"SimPoint X-10M",
         std::make_shared<SimPoint>(10.0, 100, 1.0, "multiple 10M")},
        {"reduced test", std::make_shared<ReducedInput>(InputSet::Test)},
        {"reduced large",
         std::make_shared<ReducedInput>(InputSet::Large)},
        {"Run 1500M", std::make_shared<RunZ>(1500.0)},
        {"Run 500M", std::make_shared<RunZ>(500.0)},
        {"FF 1000M + Run 100M",
         std::make_shared<FfRunZ>(1000.0, 100.0)},
        {"FF 4000M + Run 100M",
         std::make_shared<FfRunZ>(4000.0, 100.0)},
        {"FF 999M + WU 1M + Run 1000M",
         std::make_shared<FfWuRunZ>(999.0, 1.0, 1000.0)},
        {"FF 3999M + WU 1M + Run 1000M",
         std::make_shared<FfWuRunZ>(3999.0, 1.0, 1000.0)},
        {"SMARTS U=100 W=200", std::make_shared<Smarts>(100, 200)},
        {"SMARTS U=10000 W=20000",
         std::make_shared<Smarts>(10000, 20000)},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        std::vector<SimConfig> configs = driver.configs();
        auto permutations = figurePermutations();

        // Pool the per-config CPI errors over every benchmark.
        std::vector<ConfigDependence> pooled;
        for (const auto &[label, technique] : permutations) {
            ConfigDependence d;
            d.technique = technique->name();
            d.permutation = label;
            pooled.push_back(std::move(d));
        }

        for (const std::string &bench : driver.benchmarks()) {
            TechniqueContext ctx = driver.context(bench);

            // The permutations this benchmark has an input for, and
            // their rows in the pooled table.
            std::vector<TechniquePtr> applicable;
            std::vector<size_t> rows;
            for (size_t i = 0; i < permutations.size(); ++i) {
                const TechniquePtr &technique = permutations[i].second;
                if (!hasInput(bench, technique->input()))
                    continue;
                applicable.push_back(technique);
                rows.push_back(i);
            }
            const std::vector<ConfigDependence> deps =
                configDependence(driver.engine(), applicable, ctx, configs);
            for (size_t a = 0; a < deps.size(); ++a) {
                ConfigDependence &row = pooled[rows[a]];
                for (double e : deps[a].signedErrors) {
                    row.signedErrors.push_back(e);
                    row.errorHistogram.add(std::fabs(e));
                }
            }
            std::cerr << "fig5: " << bench << " done\n";
        }

        Table table("Figure 5: configuration dependence - % of "
                    "configurations per |CPI error| bin, pooled over " +
                    std::to_string(driver.benchmarks().size()) +
                    " benchmarks and " + std::to_string(configs.size()) +
                    " configurations");
        std::vector<std::string> header = {"permutation"};
        const Histogram &shape = pooled[0].errorHistogram;
        for (size_t b = 0; b <= shape.numBins(); ++b)
            header.push_back(shape.label(b));
        header.emplace_back("consistency");
        table.setHeader(header);

        for (const ConfigDependence &d : pooled) {
            std::vector<std::string> row = {d.permutation};
            for (size_t b = 0; b <= d.errorHistogram.numBins(); ++b)
                row.push_back(
                    Table::pct(d.errorHistogram.fraction(b) * 100.0, 1));
            row.push_back(Table::num(d.errorConsistency(), 2));
            table.addRow(row);
        }

        driver.print(table);
    });
}
