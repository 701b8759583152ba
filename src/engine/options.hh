/**
 * @file
 * Shared command-line option parsing for every yasim entry point.
 *
 * One parser serves the bench drivers (through BenchDriver), the
 * examples, the `yasimd` experiment daemon, the `yasim-client` CLI,
 * and the service load generator, so an engine knob added here appears
 * everywhere at once instead of in 24 copy-pasted flag loops:
 *
 *   --ref-insts N     reference-run dynamic length (scales everything)
 *   --benchmarks a,b  subset of the suite to run
 *   --seed N          suite data seed
 *   --csv             emit CSV instead of aligned text
 *   --full            full-fidelity mode (all permutations / configs)
 *   --cache-dir DIR   persist simulation results across invocations
 *   --cache-budget-mb N  bound the cache directory; evict oldest files
 *   --engine-stats    print ExperimentEngine counters to stderr
 *   --engine-stats-json FILE  write the counters as a versioned JSON
 *                     report (result_io.hh schema) instead of a table
 *   --workers N       bound the work-stealing pool at N workers
 *   --shards N        split the reference detailed run into N parallel
 *                     plan-aligned shards (see docs/perf.md)
 *   --shard-warmup M  functional-warming lead-in per shard, in
 *                     instructions (0 = warm the full prefix)
 *   --failpoints SPEC arm deterministic fault-injection sites
 *                     (see support/failpoint.hh for the grammar)
 */

#ifndef YASIM_ENGINE_OPTIONS_HH
#define YASIM_ENGINE_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "workloads/suite.hh"

namespace yasim {

/**
 * The engine-shaping flags every yasim binary accepts. Parsed either
 * through parseBenchOptions() (drivers) or one flag at a time through
 * parseEngineCliOption() (daemon / client / load-generator loops that
 * carry extra flags of their own).
 */
struct EngineCliOptions
{
    /** On-disk result cache directory ("" = memory-only memoization). */
    std::string cacheDir;
    /** Cache-directory budget in MiB (0 = unbounded). */
    uint64_t cacheBudgetMb = 0;
    /**
     * Failpoint schedule to arm before the run ("" = none beyond any
     * YASIM_FAILPOINTS environment schedule). Deterministic: the same
     * spec produces the same fault sequence every run.
     */
    std::string failpoints;
    /** Print ExperimentEngine counters to stderr after the run. */
    bool engineStats = false;
    /** Write the counters as a versioned JSON report to this path. */
    std::string engineStatsJson;
    /** Worker-pool bound (0 = auto-detect). */
    unsigned workers = 0;
    /** Reference-run shard count (1 = sequential; see docs/perf.md). */
    uint32_t shards = 1;
    /** Per-shard functional-warming bound (0 = full prefix). */
    uint64_t shardWarmup = 0;
};

/** Parsed common options for the bench/example drivers. */
struct BenchOptions
{
    /** Suite scaling derived from --ref-insts / --seed. */
    SuiteConfig suite;
    /** Benchmarks to run (defaults to the full suite). */
    std::vector<std::string> benchmarks;
    /** Emit CSV instead of the aligned table. */
    bool csv = false;
    /** Run the full-fidelity version of the experiment. */
    bool full = false;
    /** The shared engine flags. */
    EngineCliOptions engine;
};

/**
 * Try to consume the engine flag at argv[@p i] into @p options.
 * Returns true when the flag (and its value, if any) was consumed —
 * @p i then indexes the last consumed element. Missing or malformed
 * values are fatal(); unrecognized flags return false so the caller's
 * own loop can handle them.
 */
bool parseEngineCliOption(EngineCliOptions &options, int argc,
                          char **argv, int &i);

/** Usage text for the flags parseEngineCliOption() accepts. */
const char *engineCliUsage();

/**
 * The flag reader of the tools whose bad flags exit 2 (yasimd,
 * yasim-client, bench_service): the value after flag argv[@p i], which
 * @p i then indexes. "<tool>: option '<flag>' needs a value" and exit
 * 2 when there is none.
 */
const char *toolFlagValue(const char *tool, int argc, char **argv,
                          int &i);

/**
 * toolFlagValue() as a whole decimal number no larger than @p max, the
 * largest value the flag's field holds. "<tool>: <flag> wants a number
 * [up to <max>], got '<text>'" and exit 2 otherwise.
 */
uint64_t toolFlagCount(const char *tool, int argc, char **argv, int &i,
                       uint64_t max = UINT64_MAX);

/**
 * Translate parsed flags into engine construction knobs. Pure — does
 * not touch process-wide state (see applyEngineRuntime()).
 */
EngineOptions engineOptionsFrom(const EngineCliOptions &options);

/**
 * Apply the process-wide side of the flags: the worker-pool bound and
 * the failpoint schedule. Call once, before the first parallel batch.
 */
void applyEngineRuntime(const EngineCliOptions &options);

/**
 * Parse argv. Unknown options are fatal (with a usage message).
 * @param default_ref_insts experiment-appropriate default length
 */
BenchOptions parseBenchOptions(int argc, char **argv,
                               uint64_t default_ref_insts);

} // namespace yasim

#endif // YASIM_ENGINE_OPTIONS_HH
