/**
 * @file
 * Fluent driver front end for the bench and example binaries.
 *
 * Every experiment regenerator used to open with the same boilerplate —
 * parseBenchOptions, setInformEnabled(false), a context per benchmark,
 * a csv-or-aligned print at the end — and none of it shared simulation
 * results. BenchDriver rolls that into one builder around an
 * ExperimentEngine:
 *
 *     int main(int argc, char **argv)
 *     {
 *         return BenchDriver(argc, argv)
 *             .defaultRefInsts(400'000)
 *             .run([](BenchDriver &driver) {
 *                 TechniqueContext ctx = driver.context("gcc");
 *                 ...
 *                 driver.print(table);
 *             });
 *     }
 *
 * The driver owns the engine (honouring --cache-dir, --workers,
 * --shards and --engine-stats). A body hands each grid to a core
 * analysis, or to runGrid() or engine().runAll() directly; either way
 * the grid runs as one batch on the pool and comes back in job order.
 * The SvAT figures collapse further to the
 * benchmark()/figure()/techniques() shortcut with a parameterless run().
 */

#ifndef YASIM_ENGINE_BENCH_DRIVER_HH
#define YASIM_ENGINE_BENCH_DRIVER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "engine/options.hh"
#include "techniques/technique.hh"

namespace yasim {

class Table;

/** Fluent experiment driver. See file comment. */
class BenchDriver
{
  public:
    /** Capture argv; parsing happens when run() is called. */
    BenchDriver(int argc, char **argv);
    ~BenchDriver();

    BenchDriver(const BenchDriver &) = delete;
    BenchDriver &operator=(const BenchDriver &) = delete;

    /** Default --ref-insts value (experiments scale from this). */
    BenchDriver &defaultRefInsts(uint64_t ref_insts);

    /** SvAT shortcut: the benchmark the figure plots. */
    BenchDriver &benchmark(std::string bench);

    /** SvAT shortcut: figure label, e.g. "Figure 3". */
    BenchDriver &figure(std::string figure);

    /** SvAT shortcut: the permutations to place on the graph. */
    BenchDriver &techniques(std::vector<TechniquePtr> techniques);

    /**
     * Parse options, build the engine, and run the experiment body.
     * Returns the process exit code (fatal option errors exit inside).
     */
    int run(const std::function<void(BenchDriver &)> &body);

    /**
     * Run the standard speed-versus-accuracy experiment configured via
     * benchmark()/figure()/techniques(): svatAnalysis() runs the whole
     * technique x configuration grid (plus the reference) as one batch
     * on the work-stealing pool, and the figure's table is assembled
     * from its results in job order — byte-identical to a serial run.
     */
    int run();

    /** Parsed options (valid inside the run() body). */
    const BenchOptions &options() const { return opts; }

    /** The memoized engine behind this driver. */
    ExperimentEngine &engine() { return *eng; }

    /** Benchmarks selected by --benchmarks (default: whole suite). */
    const std::vector<std::string> &benchmarks() const
    {
        return opts.benchmarks;
    }

    /** Context for @p bench through the engine's reference-length cache. */
    TechniqueContext context(const std::string &bench);

    /** The experiment's configuration set (--full: whole envelope). */
    std::vector<SimConfig> configs() const;

    /** Print to stdout as CSV (--csv) or an aligned table. */
    void print(const Table &table) const;

  private:
    /** Parse options and construct the engine (idempotent). */
    void setUp();
    void runSvat();

    int argCount;
    char **argValues;
    uint64_t refInsts = 400'000;

    std::string svatBenchmark;
    std::string svatFigure;
    std::vector<TechniquePtr> svatTechniques;

    BenchOptions opts;
    std::unique_ptr<ExperimentEngine> eng;
};

} // namespace yasim

#endif // YASIM_ENGINE_BENCH_DRIVER_HH
