/**
 * @file
 * Sampling deep dive: opens up the two sampling techniques' machinery.
 *
 * Part 1 maps a program's phases as SimPoint sees them: the chosen
 * simulation points, their weights, and the per-point CPI (so you can
 * see which phases exist and what each costs).
 *
 * Part 2 shows SMARTS's statistical engine: how the CPI estimate and
 * the confidence interval tighten as the sample count n grows — the
 * n >= (z * cv / eps)^2 rule in action.
 *
 * Usage: sampling_deep_dive [benchmark] [ref-insts]
 */

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "engine/engine.hh"
#include "sim/ooo_core.hh"
#include "stats/summary.hh"
#include "support/table.hh"
#include "techniques/full_reference.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/trace_store.hh"

using namespace yasim;

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "gcc";
    const uint64_t ref_insts =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500'000;

    SuiteConfig suite;
    suite.referenceInstructions = ref_insts;
    ExperimentEngine engine;
    TechniqueContext ctx = engine.context(benchmark, suite);
    SimConfig config = architecturalConfig(2);

    FullReference reference;
    TechniqueResult ref = engine.run(reference, ctx, config);
    std::cout << "reference CPI of " << benchmark << ": "
              << Table::num(ref.cpi, 4) << "\n\n";

    // ---- Part 1: SimPoint's phase map ----
    SimPoint simpoint(100.0, 10, 0.0, "multiple 100M");
    auto points = simpoint.choosePoints(ctx);

    Table phase_table("SimPoint phase map (" +
                      std::to_string(points.size()) +
                      " simulation points)");
    phase_table.setHeader({"point @ instruction", "weight",
                           "CPI of the interval"});
    for (const SimulationPoint &p : points) {
        // Each point replays the engine's one recording of the run.
        TraceReplayer stream = openStream(ctx, InputSet::Reference);
        OooCore core(config);
        stream.fastForwardWarm(p.startInst, &core.memHierarchy(),
                               &core.predictor());
        SimStats before = core.snapshot();
        core.run(stream, ctx.scaledM(100.0));
        SimStats delta = core.snapshot() - before;
        phase_table.addRow({Table::count(p.startInst),
                            Table::num(p.weight, 3),
                            Table::num(delta.cpi(), 4)});
    }
    phase_table.print(std::cout);

    // ---- Part 2: SMARTS's confidence interval vs n ----
    Table ci_table("\nSMARTS estimate vs sample count "
                   "(U=1000, W=2000, 99.7% confidence)");
    ci_table.setHeader({"n", "CPI estimate", "error", "CI half-width"});
    for (uint64_t n : {10ULL, 25ULL, 50ULL, 100ULL, 200ULL}) {
        // Disable the re-run loop so each row shows exactly n samples.
        Smarts smarts(1000, 2000, 0.997, 100.0, n);
        TechniqueResult r = engine.run(smarts, ctx, config);
        double err = (r.cpi - ref.cpi) / ref.cpi;
        // Reconstruct the half-width from the run's unit count: the
        // relative CI shrinks as 1/sqrt(n).
        ci_table.addRow({std::to_string(n), Table::num(r.cpi, 4),
                         Table::pct(err * 100.0, 2),
                         Table::pct(100.0 * 2.97 / std::sqrt((double)n),
                                    1)});
    }
    ci_table.print(std::cout);
    std::cout << "\n(the CI column shows the z/sqrt(n) scaling at unit "
                 "cv = 1; SMARTS's\nown rule recommends n >= "
                 "(z * cv / 0.03)^2 for +/-3%)\n";
    return 0;
}
