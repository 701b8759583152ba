/**
 * @file
 * Regenerates the section-5.2 results the paper describes in prose:
 * the execution-profile characterization (chi-squared comparison of
 * BBEF and BBV distributions against the reference) and the
 * architecture-level characterization (normalized metric-vector
 * distance over the four Table-3 configurations).
 *
 * Expected shape: almost every permutation passes the chi-squared
 * similarity test (the reference's enormous block counts make the
 * critical value generous), yet the chi-squared *values* for reduced
 * inputs and truncated execution dwarf those of SimPoint and SMARTS;
 * the architecture-level distances tell the same story.
 */

#include <iostream>

#include "core/arch_characterization.hh"
#include "core/profile_characterization.hh"
#include "engine/bench_driver.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        const std::vector<SimConfig> configs = architecturalConfigs();
        const size_t profile_config = 1; // config #2

        Table table("Execution-profile (chi2 on BBV/BBEF at config #2) "
                    "and architecture-level (normalized metric distance "
                    "over configs #1-#4) characterizations");
        table.setHeader({"benchmark", "technique", "permutation",
                         "chi2 BBV", "chi2 BBEF", "similar?",
                         "arch distance"});

        for (const std::string &bench : driver.benchmarks()) {
            TechniqueContext ctx = driver.context(bench);

            auto permutations =
                driver.options().full
                    ? table1Permutations(bench)
                    : representativePermutations(bench);
            // The reference leads the grid: row 0.
            std::vector<TechniquePtr> techniques = {
                std::make_shared<FullReference>()};
            techniques.insert(techniques.end(), permutations.begin(),
                              permutations.end());
            const auto rows =
                runGrid(driver.engine(), techniques, ctx, configs);

            const std::vector<TechniqueResult> &ref = rows[0];
            for (size_t t = 1; t < techniques.size(); ++t) {
                const std::vector<TechniqueResult> &arch = rows[t];
                ProfileComparison cmp = compareProfiles(
                    arch[profile_config], ref[profile_config]);
                double arch_dist = archDistanceOverConfigs(arch, ref);

                table.addRow({bench, techniques[t]->name(),
                              techniques[t]->permutation(),
                              Table::num(cmp.bbv.statistic, 1),
                              Table::num(cmp.bbef.statistic, 1),
                              cmp.bbv.similar ? "yes" : "no",
                              Table::num(arch_dist, 4)});
            }
            table.addRule();
            std::cerr << "profile/arch: " << bench << " done\n";
        }

        driver.print(table);
    });
}
