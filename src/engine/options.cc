#include "engine/options.hh"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace yasim {

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--ref-insts N] [--benchmarks a,b,...] [--seed N]\n"
        "          [--csv] [--full]\n%s",
        argv0, engineCliUsage());
    std::exit(1);
}

const char *
nextValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("option '%s' needs a value", argv[i]);
    return argv[++i];
}

/**
 * @p text, the value of @p flag, as a whole decimal number no larger
 * than @p max; fatal otherwise.
 */
uint64_t
numberValue(const char *flag, const char *text, uint64_t max = UINT64_MAX)
{
    uint64_t value = 0;
    if (!parseDecimal(text, value))
        fatal("%s wants a number, got '%s'", flag, text);
    if (value > max)
        fatal("%s wants a number up to %llu, got '%s'", flag,
              static_cast<unsigned long long>(max), text);
    return value;
}

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= arg.size()) {
        size_t comma = arg.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(arg.substr(start));
            break;
        }
        out.push_back(arg.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace

const char *
engineCliUsage()
{
    return "          [--cache-dir DIR] [--cache-budget-mb N]\n"
           "          [--engine-stats] [--engine-stats-json FILE]\n"
           "          [--workers N]\n"
           "          [--shards N] [--shard-warmup M]\n"
           "          [--failpoints SPEC]\n";
}

const char *
toolFlagValue(const char *tool, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option '%s' needs a value\n", tool,
                     argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

uint64_t
toolFlagCount(const char *tool, int argc, char **argv, int &i,
              uint64_t max)
{
    const char *flag = argv[i];
    const char *text = toolFlagValue(tool, argc, argv, i);
    uint64_t value = 0;
    if (!parseDecimal(text, value)) {
        std::fprintf(stderr, "%s: %s wants a number, got '%s'\n", tool,
                     flag, text);
        std::exit(2);
    }
    if (value > max) {
        std::fprintf(stderr, "%s: %s wants a number up to %llu, got '%s'\n",
                     tool, flag, static_cast<unsigned long long>(max), text);
        std::exit(2);
    }
    return value;
}

bool
parseEngineCliOption(EngineCliOptions &options, int argc, char **argv,
                     int &i)
{
    const char *arg = argv[i];
    auto next = [&]() { return nextValue(argc, argv, i); };
    if (std::strcmp(arg, "--cache-dir") == 0) {
        options.cacheDir = next();
    } else if (std::strcmp(arg, "--cache-budget-mb") == 0) {
        // Held in bytes: a larger budget would wrap, 2^44 to 0
        // (unbounded).
        options.cacheBudgetMb = numberValue(arg, next(), UINT64_MAX >> 20);
    } else if (std::strcmp(arg, "--failpoints") == 0) {
        options.failpoints = next();
    } else if (std::strcmp(arg, "--engine-stats") == 0) {
        options.engineStats = true;
    } else if (std::strcmp(arg, "--engine-stats-json") == 0) {
        options.engineStatsJson = next();
    } else if (std::strcmp(arg, "--shards") == 0) {
        options.shards = uint32_t(numberValue(arg, next(), UINT32_MAX));
        if (options.shards == 0)
            fatal("--shards must be at least 1");
    } else if (std::strcmp(arg, "--shard-warmup") == 0) {
        options.shardWarmup = numberValue(arg, next());
    } else if (std::strcmp(arg, "--workers") == 0) {
        options.workers = unsigned(numberValue(arg, next(), UINT_MAX));
        if (options.workers == 0)
            fatal("--workers must be at least 1");
    } else {
        return false;
    }
    return true;
}

EngineOptions
engineOptionsFrom(const EngineCliOptions &options)
{
    EngineOptions engine_options;
    engine_options.cacheDir = options.cacheDir;
    engine_options.cacheBudgetBytes = options.cacheBudgetMb << 20;
    engine_options.shards.shards = options.shards;
    engine_options.shards.warmupInsts = options.shardWarmup;
    return engine_options;
}

void
applyEngineRuntime(const EngineCliOptions &options)
{
    if (options.workers)
        setParallelWorkers(options.workers);
    if (!options.failpoints.empty())
        failpoint::configure(options.failpoints);
}

BenchOptions
parseBenchOptions(int argc, char **argv, uint64_t default_ref_insts)
{
    BenchOptions options;
    options.suite.referenceInstructions = default_ref_insts;
    options.benchmarks = benchmarkNames();

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (parseEngineCliOption(options.engine, argc, argv, i))
            continue;
        auto next = [&]() { return nextValue(argc, argv, i); };
        if (std::strcmp(arg, "--ref-insts") == 0) {
            options.suite.referenceInstructions =
                numberValue(arg, next());
        } else if (std::strcmp(arg, "--seed") == 0) {
            options.suite.seed = numberValue(arg, next());
        } else if (std::strcmp(arg, "--benchmarks") == 0) {
            options.benchmarks = splitCommas(next());
            for (const std::string &bench : options.benchmarks)
                if (!isBenchmark(bench))
                    fatal("unknown benchmark '%s'", bench.c_str());
        } else if (std::strcmp(arg, "--csv") == 0) {
            options.csv = true;
        } else if (std::strcmp(arg, "--full") == 0) {
            options.full = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg);
            usage(argv[0]);
        }
    }
    if (options.suite.referenceInstructions < 100000)
        fatal("--ref-insts must be at least 100000");
    return options;
}

} // namespace yasim
