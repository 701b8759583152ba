/**
 * @file
 * Ablation: does the fold-over matter for the PB bottleneck ranks?
 *
 * The paper's methodology ancestor [Yi03] folds the PB design over
 * (doubling the runs) to unalias main effects from two-factor
 * interactions. This bench runs the reference input through both the
 * 44-run plain design and the 88-run folded design and reports the
 * normalized distance between the two rank vectors — small distances
 * mean the cheap design already ranks the bottlenecks faithfully.
 */

#include <iostream>

#include "core/pb_characterization.hh"
#include "engine/bench_driver.hh"
#include "stats/distance.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv)
        .defaultRefInsts(300'000)
        .run([](BenchDriver &driver) {
            PbDesign plain = PbDesign::forFactors(numPbFactors(), false);
            PbDesign folded = PbDesign::forFactors(numPbFactors(), true);

            Table table("Ablation: plain (44-run) vs folded-over "
                        "(88-run) PB design, reference input");
            table.setHeader({"benchmark", "rank distance",
                             "top-5 agree"});

            ExperimentEngine &engine = driver.engine();
            const std::vector<TechniquePtr> reference = {
                std::make_shared<FullReference>()};
            for (const std::string &bench : driver.benchmarks()) {
                TechniqueContext ctx = driver.context(bench);
                PbOutcome a = runPbDesign(engine, reference, ctx, plain)[0];
                PbOutcome b =
                    runPbDesign(engine, reference, ctx, folded)[0];

                // How many of the folded design's five biggest
                // bottlenecks also rank top-5 in the plain design?
                int agree = 0;
                for (size_t j = 0; j < a.ranks.size(); ++j)
                    if (b.ranks[j] <= 5 && a.ranks[j] <= 5)
                        ++agree;
                table.addRow(
                    {bench,
                     Table::num(normalizedRankDistance(a.ranks, b.ranks),
                                2),
                     std::to_string(agree) + "/5"});
                std::cerr << "foldover: " << bench << " done\n";
            }

            driver.print(table);
        });
}
