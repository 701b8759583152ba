#include "engine/bench_driver.hh"

#include <algorithm>
#include <iostream>

#include "core/svat_analysis.hh"
#include "sim/config.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace yasim {

BenchDriver::BenchDriver(int argc, char **argv)
    : argCount(argc), argValues(argv)
{
}

BenchDriver::~BenchDriver() = default;

BenchDriver &
BenchDriver::defaultRefInsts(uint64_t ref_insts)
{
    refInsts = ref_insts;
    return *this;
}

BenchDriver &
BenchDriver::benchmark(std::string bench)
{
    svatBenchmark = std::move(bench);
    return *this;
}

BenchDriver &
BenchDriver::figure(std::string figure)
{
    svatFigure = std::move(figure);
    return *this;
}

BenchDriver &
BenchDriver::techniques(std::vector<TechniquePtr> techniques)
{
    svatTechniques = std::move(techniques);
    return *this;
}

void
BenchDriver::setUp()
{
    if (eng)
        return;
    opts = parseBenchOptions(argCount, argValues, refInsts);
    setInformEnabled(false);
    applyEngineRuntime(opts.engine);
    eng = std::make_unique<ExperimentEngine>(
        engineOptionsFrom(opts.engine));
}

int
BenchDriver::run(const std::function<void(BenchDriver &)> &body)
{
    setUp();
    body(*this);
    if (opts.engine.engineStats)
        eng->printStats(std::cerr);
    if (!opts.engine.engineStatsJson.empty())
        writeReportFile(eng->statsReport(),
                        opts.engine.engineStatsJson);
    return 0;
}

int
BenchDriver::run()
{
    YASIM_ASSERT(!svatBenchmark.empty() && !svatTechniques.empty());
    return run([](BenchDriver &driver) { driver.runSvat(); });
}

void
BenchDriver::runSvat()
{
    const std::string &bench = svatBenchmark;
    TechniqueContext ctx = context(bench);
    std::vector<SimConfig> config_set = configs();

    auto points = svatAnalysis(*eng, ctx, svatTechniques, config_set);
    std::sort(points.begin(), points.end(),
              [](const SvatPoint &a, const SvatPoint &b) {
                  return a.speedPct < b.speedPct;
              });

    Table table(svatFigure + ": speed vs accuracy trade-off for " +
                bench +
                " (speed = % of reference simulation work; accuracy = "
                "Manhattan distance of CPI vectors over " +
                std::to_string(config_set.size()) + " configs)");
    table.setHeader({"technique", "permutation", "speed %",
                     "CPI distance"});
    for (const SvatPoint &p : points) {
        table.addRow({p.technique, p.permutation,
                      Table::num(p.speedPct, 2),
                      Table::num(p.cpiDistance, 3)});
    }
    print(table);
}

TechniqueContext
BenchDriver::context(const std::string &bench)
{
    return eng->context(bench, opts.suite);
}

std::vector<SimConfig>
BenchDriver::configs() const
{
    return opts.full ? envelopeConfigs() : architecturalConfigs();
}

void
BenchDriver::print(const Table &table) const
{
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

} // namespace yasim
