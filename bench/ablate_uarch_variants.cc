/**
 * @file
 * Ablation: microarchitectural design variants of the substrate — the
 * three direction-predictor organizations (bimodal, gshare, combined)
 * and the three cache replacement policies (LRU, FIFO, random) — on
 * every benchmark's reference input.
 *
 * Sanity expectations: the combined predictor is at least as accurate
 * as its better component (that's what the chooser buys); perlbmk's
 * dispatch loop punishes bimodal hardest; LRU >= FIFO >= random hit
 * rates on reuse-heavy workloads.
 */

#include <iostream>

#include "engine/bench_driver.hh"
#include "sim/ooo_core.hh"
#include "support/table.hh"
#include "techniques/trace_store.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv)
        .defaultRefInsts(300'000)
        .run([](BenchDriver &driver) {
            Table bp_table("Ablation: direction-predictor organization "
                           "(conditional-branch accuracy, config #2 "
                           "sizing)");
            bp_table.setHeader(
                {"benchmark", "bimodal", "gshare", "combined"});

            Table rp_table("Ablation: L1-D replacement policy "
                           "(hit rate, config #2 geometry)");
            rp_table.setHeader({"benchmark", "LRU", "FIFO", "random"});

            for (const std::string &bench : driver.benchmarks()) {
                // Through openStream: the six variant runs below
                // replay one shared recording instead of
                // re-interpreting the benchmark per variant.
                TechniqueContext ctx = driver.context(bench);

                std::vector<std::string> bp_row = {bench};
                for (PredictorKind kind :
                     {PredictorKind::Bimodal, PredictorKind::Gshare,
                      PredictorKind::Combined}) {
                    SimConfig cfg = architecturalConfig(2);
                    cfg.bp.kind = kind;
                    TraceReplayer src =
                        openStream(ctx, InputSet::Reference);
                    OooCore core(cfg);
                    core.run(src, ~0ULL);
                    bp_row.push_back(Table::pct(
                        core.snapshot().branchAccuracy() * 100.0, 2));
                }
                bp_table.addRow(bp_row);

                std::vector<std::string> rp_row = {bench};
                for (ReplacementPolicy policy :
                     {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                      ReplacementPolicy::Random}) {
                    SimConfig cfg = architecturalConfig(2);
                    cfg.mem.l1d.replacement = policy;
                    TraceReplayer src =
                        openStream(ctx, InputSet::Reference);
                    OooCore core(cfg);
                    core.run(src, ~0ULL);
                    rp_row.push_back(Table::pct(
                        core.snapshot().l1dHitRate() * 100.0, 2));
                }
                rp_table.addRow(rp_row);
                std::cerr << "uarch-variants: " << bench << " done\n";
            }

            driver.print(bp_table);
            if (!driver.options().csv)
                std::cout << "\n";
            driver.print(rp_table);
        });
}
