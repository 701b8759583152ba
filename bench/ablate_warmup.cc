/**
 * @file
 * Ablation: how much detailed warm-up does truncated execution need?
 *
 * FF X + Run Z leaves the machine cold; FF X + WU Y + Run Z pays Y M
 * detailed instructions to warm it. This bench sweeps Y at a fixed
 * measurement window on the memory-sensitive benchmarks, reporting the
 * CPI delta against a fully-warm measurement of the same window (the
 * cold-start bias the warm-up is buying down). It explains why the
 * paper finds FF+WU+Run only marginally better than FF+Run: warm-up
 * fixes state, not unrepresentativeness.
 */

#include <cmath>
#include <iostream>

#include "engine/bench_driver.hh"
#include "sim/ooo_core.hh"
#include "support/table.hh"
#include "techniques/trace_store.hh"

using namespace yasim;

namespace {

/** CPI of window [start, start+len) with Y-instruction detailed warm-up
 *  after an architectural fast-forward. */
double
windowCpi(const TechniqueContext &ctx, const SimConfig &config,
          uint64_t start, uint64_t warm, uint64_t len,
          bool functional_warming)
{
    TraceReplayer stream = openStream(ctx, InputSet::Reference);
    OooCore core(config);
    uint64_t ff = start >= warm ? start - warm : 0;
    if (functional_warming)
        stream.fastForwardWarm(ff, &core.memHierarchy(),
                               &core.predictor());
    else
        stream.fastForward(ff);
    if (warm > 0)
        core.run(stream, start - stream.instsExecuted());
    return core.runMeasured(stream, len).cpi();
}

} // namespace

int
main(int argc, char **argv)
{
    return BenchDriver(argc, argv).run([](BenchDriver &driver) {
        SimConfig config = architecturalConfig(2);

        Table table("Ablation: cold-start CPI bias of FF + [WU Y +] Run "
                    "(window = 500 scaled-M at 40% of the run; baseline "
                    "= functionally-warmed measurement of the same "
                    "window)");
        table.setHeader({"benchmark", "warm-up Y", "CPI",
                         "bias vs warm"});

        for (const std::string &bench : driver.benchmarks()) {
            TechniqueContext ctx = driver.context(bench);
            uint64_t start = ctx.scaledM(4000);
            uint64_t len = ctx.scaledM(500);

            double warm_cpi =
                windowCpi(ctx, config, start, 0, len, true);
            table.addRow({bench, "full warming",
                          Table::num(warm_cpi, 3), "-"});
            for (double y : {0.0, 1.0, 10.0, 100.0}) {
                uint64_t warm = y > 0 ? ctx.scaledM(y) : 0;
                double cpi =
                    windowCpi(ctx, config, start, warm, len, false);
                table.addRow(
                    {bench,
                     y == 0 ? "none (FF+Run)" : Table::num(y, 0) + "M",
                     Table::num(cpi, 3),
                     Table::pct((cpi - warm_cpi) / warm_cpi * 100.0,
                                2)});
            }
            table.addRule();
            std::cerr << "warmup: " << bench << " done\n";
        }

        driver.print(table);
    });
}
