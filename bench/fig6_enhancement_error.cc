/**
 * @file
 * Regenerates Figure 6: the difference between the apparent speedup
 * each technique reports for an enhancement and the speedup the
 * reference run reports — for next-line prefetching (the figure) and
 * trivial-computation simplification (discussed in section 7), on gcc
 * with processor configuration #2.
 *
 * Expected shape: reduced-input and truncated-execution speedup errors
 * are large and sign-inconsistent; SimPoint's multiple-10M permutation
 * is close; SMARTS's errors are fractions of a percent.
 */

#include <iostream>
#include <memory>

#include "core/enhancement_study.hh"
#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/reduced_input.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"

using namespace yasim;

namespace {

std::vector<TechniquePtr>
figurePermutations(const std::string &bench)
{
    std::vector<TechniquePtr> t;
    t.push_back(std::make_shared<SimPoint>(100.0, 1, 0.0, "single 100M"));
    t.push_back(
        std::make_shared<SimPoint>(100.0, 10, 0.0, "multiple 100M"));
    t.push_back(std::make_shared<SimPoint>(10.0, 1, 1.0, "single 10M"));
    t.push_back(
        std::make_shared<SimPoint>(10.0, 100, 1.0, "multiple 10M"));
    for (InputSet input :
         {InputSet::Small, InputSet::Medium, InputSet::Test,
          InputSet::Train}) {
        if (hasInput(bench, input))
            t.push_back(std::make_shared<ReducedInput>(input));
    }
    for (double z : {500.0, 1000.0, 2000.0})
        t.push_back(std::make_shared<RunZ>(z));
    for (double z : {100.0, 1000.0})
        t.push_back(std::make_shared<FfRunZ>(1000.0, z));
    for (double z : {100.0, 1000.0})
        t.push_back(std::make_shared<FfWuRunZ>(990.0, 10.0, z));
    for (uint64_t u : {100ULL, 1000ULL, 10000ULL})
        t.push_back(std::make_shared<Smarts>(u, 2 * u));
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        const BenchOptions &options = driver.options();
        const std::string bench = options.benchmarks.size() == 1
                                      ? options.benchmarks[0]
                                      : "gcc";
        TechniqueContext ctx = driver.context(bench);
        SimConfig config = architecturalConfig(2);

        const Enhancement enhancements[] = {
            Enhancement::NextLinePrefetch,
            Enhancement::TrivialComputation};

        auto techniques = figurePermutations(bench);
        std::vector<EnhancementImpact> impacts[2];
        for (int e = 0; e < 2; ++e)
            impacts[e] = evaluateEnhancement(driver.engine(), techniques,
                                             ctx, config, enhancements[e]);

        auto ref_gain = [&](int e) {
            return Table::num(
                (impacts[e].front().referenceSpeedup - 1.0) * 100.0, 2);
        };
        std::cout << "reference speedups on " << bench
                  << "/config2: NLP " << ref_gain(0) << "%, TC "
                  << ref_gain(1) << "%\n\n";

        Table table("Figure 6: apparent-speedup error "
                    "(technique minus reference, percentage points) "
                    "for " +
                    bench + " on configuration #2");
        table.setHeader({"technique", "permutation", "NLP error (pp)",
                         "TC error (pp)"});

        for (size_t t = 0; t < techniques.size(); ++t) {
            std::vector<std::string> row = {techniques[t]->name(),
                                            techniques[t]->permutation()};
            for (int e = 0; e < 2; ++e)
                row.push_back(
                    Table::num(impacts[e][t].speedupError() * 100.0, 2));
            table.addRow(row);
        }

        driver.print(table);
    });
}
