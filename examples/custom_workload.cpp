/**
 * @file
 * Custom workload: author your own program against the yasim ISA with
 * ProgramBuilder, record its execution once, then run the library's
 * machinery over replays of the recording — detailed simulation, BBV
 * profiling, and a hand-rolled SimPoint pipeline (interval BBVs ->
 * random projection -> k-means/BIC -> weighted simulation points)
 * built from the public stats API. This is the drop-to-the-lower-level
 * tour for users whose workload is not in the shipped suite.
 */

#include <iostream>

#include "isa/program_builder.hh"
#include "sim/memory.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "stats/kmeans.hh"
#include "stats/projection.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace yasim;

namespace {

/**
 * A two-phase toy workload: a pointer-chase phase (memory-bound) then
 * a hash-mix phase (ALU-bound), repeated twice.
 */
Program
buildTwoPhase()
{
    ProgramBuilder b("two-phase");
    b.movi(1, static_cast<int64_t>(heapBase));
    b.movi(2, 2654435761LL);
    b.movi(3, 0); // chase cursor
    b.movi(8, 0x12345);

    for (int rep = 0; rep < 2; ++rep) {
        // Phase A: serial chase over 2 MB.
        {
            Label top = b.newLabel();
            b.movi(9, 0);
            b.movi(10, 20000);
            b.bind(top);
            b.add(4, 1, 3);
            b.ld(5, 4, 0);
            b.add(3, 3, 5);
            b.mul(3, 3, 2);
            b.addi(3, 3, 0x4F1BCDC9LL * 8);
            b.andi(3, 3, (2 << 20) - 1);
            b.andi(3, 3, ~7LL);
            b.addi(9, 9, 1);
            b.blt(9, 10, top);
        }
        // Phase B: register hash mixing.
        {
            Label top = b.newLabel();
            b.movi(9, 0);
            b.movi(10, 30000);
            b.bind(top);
            b.mul(8, 8, 2);
            b.shri(11, 8, 31);
            b.xor_(8, 8, 11);
            b.addi(9, 9, 1);
            b.blt(9, 10, top);
        }
    }
    b.halt();
    return b.finish();
}

} // namespace

int
main()
{
    Program program = buildTwoPhase();
    std::cout << "custom program: " << program.size()
              << " static instructions, " << program.numBlocks()
              << " basic blocks\n";

    // One functional interpretation; every pass below replays it.
    auto trace = ExecTrace::record(program);

    // 1. Full detailed simulation (ground truth).
    SimConfig config = architecturalConfig(2);
    uint64_t total;
    double true_cpi;
    {
        TraceReplayer stream(trace);
        OooCore core(config);
        total = core.run(stream, ~0ULL);
        true_cpi = core.snapshot().cpi();
    }
    std::cout << "full run: " << Table::count(total)
              << " instructions, CPI " << Table::num(true_cpi, 4)
              << "\n\n";

    // 2. SimPoint by hand: profile interval BBVs...
    const uint64_t interval = 5000;
    Rng rng(42);
    RandomProjection projection(program.numBlocks(), 8, rng);
    std::vector<std::vector<double>> intervals;
    {
        TraceReplayer stream(trace);
        ExecRecord rec;
        std::vector<double> bbv(program.numBlocks(), 0.0);
        uint64_t in_interval = 0;
        while (stream.step(rec)) {
            bbv[program.blockOf(rec.pc)] += 1.0;
            if (++in_interval == interval) {
                normalizeL1(bbv);
                intervals.push_back(projection.project(bbv));
                std::fill(bbv.begin(), bbv.end(), 0.0);
                in_interval = 0;
            }
        }
    }
    // ... cluster with BIC-selected k ...
    KSelection sel = selectK(intervals, 8, rng);
    std::cout << "SimPoint-by-hand: " << intervals.size()
              << " intervals -> " << sel.best.numClusters
              << " clusters (the two phases x repeats)\n";

    // ... and estimate CPI from one representative per cluster.
    std::vector<uint64_t> population(sel.best.centroids.size(), 0);
    for (int c : sel.best.assignment)
        ++population[static_cast<size_t>(c)];
    double weighted_cpi = 0.0;
    for (size_t c = 0; c < sel.best.centroids.size(); ++c) {
        if (population[c] == 0)
            continue;
        // Representative: first interval of the cluster.
        uint64_t idx = 0;
        for (size_t i = 0; i < sel.best.assignment.size(); ++i) {
            if (sel.best.assignment[i] == static_cast<int>(c)) {
                idx = i;
                break;
            }
        }
        TraceReplayer stream(trace);
        OooCore core(config);
        stream.fastForwardWarm(idx * interval, &core.memHierarchy(),
                               &core.predictor());
        SimStats before = core.snapshot();
        core.run(stream, interval);
        SimStats delta = core.snapshot() - before;
        double weight = static_cast<double>(population[c]) /
                        static_cast<double>(intervals.size());
        weighted_cpi += weight * delta.cpi();
        std::cout << "  cluster " << c << ": weight "
                  << Table::num(weight, 3) << ", interval CPI "
                  << Table::num(delta.cpi(), 4) << "\n";
    }
    std::cout << "weighted estimate: CPI "
              << Table::num(weighted_cpi, 4) << " (true "
              << Table::num(true_cpi, 4) << ")\n";
    return 0;
}
