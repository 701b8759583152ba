/**
 * @file
 * Regenerates Figure 2: the difference between SimPoint's and SMARTS's
 * Euclidean distances from the reference rank vector as progressively
 * less significant parameters are included (parameters sorted by
 * ascending reference rank). Positive values mean SMARTS is closer to
 * the reference for that prefix of parameters.
 *
 * Expected shape (paper section 5.1): near zero for the most
 * significant parameters on most benchmarks; gcc diverges early because
 * SimPoint underestimates the memory-latency bottleneck there.
 */

#include <iostream>

#include "core/pb_characterization.hh"
#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        PbDesign design = PbDesign::forFactors(numPbFactors(), false);

        // The reference, then the most accurate permutation of each
        // technique, as in the paper.
        const std::vector<TechniquePtr> techniques = {
            std::make_shared<FullReference>(),
            std::make_shared<SimPoint>(10.0, 100, 1.0, "multiple 10M"),
            std::make_shared<Smarts>(1000, 2000)};

        const std::vector<size_t> shown = {1, 2, 3, 4, 5, 6, 8,
                                           10, 15, 20, 30, 43};
        Table table("Figure 2: SimPoint minus SMARTS Euclidean distance "
                    "from the reference ranks, counting only the N most "
                    "significant reference parameters");
        std::vector<std::string> header = {"benchmark"};
        for (size_t n : shown)
            header.push_back("N=" + std::to_string(n));
        table.setHeader(header);

        for (const std::string &bench : driver.benchmarks()) {
            TechniqueContext ctx = driver.context(bench);
            const std::vector<PbOutcome> outcomes =
                runPbDesign(driver.engine(), techniques, ctx, design);
            const PbOutcome &ref = outcomes[0];
            const PbOutcome &sp = outcomes[1];
            const PbOutcome &sm = outcomes[2];
            std::vector<double> series =
                pbDistanceDifference(sp, sm, ref);

            std::vector<std::string> row = {bench};
            for (size_t n : shown)
                row.push_back(Table::num(series[n - 1], 2));
            table.addRow(row);

            // The gcc narrative: where does memory latency rank?
            for (size_t j = 0; j < pbFactors().size(); ++j) {
                if (pbFactors()[j].name == "memory latency (first)") {
                    std::cerr << "fig2: " << bench
                              << " memory-latency rank: reference "
                              << ref.ranks[j] << ", SimPoint "
                              << sp.ranks[j] << ", SMARTS "
                              << sm.ranks[j] << "\n";
                }
            }
        }

        driver.print(table);
    });
}
