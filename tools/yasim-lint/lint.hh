/**
 * @file
 * yasim-lint: token/pattern-level enforcement of project invariants.
 *
 * The paper's methodology depends on bit-reproducible comparisons
 * against a reference run, so the repository bans whole classes of
 * constructs that silently break reproducibility (entropy sources,
 * unordered-container iteration feeding output) or erode the layering
 * that makes the trace-replay guarantee auditable. This linter walks
 * the sources and enforces those invariants as named, suppressible
 * rules — no compiler front end required, so it runs in milliseconds
 * as a ctest and on every CI push.
 *
 * Rules (see docs/static-analysis.md for the full catalog):
 *   D1  no entropy or wall-clock sources in result-affecting code
 *   D2  no direct iteration over unordered containers
 *   L1  src/techniques/ and src/core/ replay a TraceReplayer
 *       (openStream), never FunctionalSim directly
 *   L2  bench drivers go through BenchDriver / SimulationService,
 *       never engine internals
 *   S1  raw serialization code must carry a format-version marker
 *   S2  library persistence goes through support/artifact_io, never
 *       raw ofstream+rename, and only artifact_io calls the framed
 *       reader, writer, quarantine and budget pass
 *
 * Suppression syntax (in comments):
 *   // yasim-lint: allow(D1)        this line (or next, if the
 *                                   comment stands alone)
 *   // yasim-lint: allow-file(D2)   whole file
 */

#ifndef YASIM_TOOLS_LINT_HH
#define YASIM_TOOLS_LINT_HH

#include <string>
#include <vector>

namespace yasim::lint {

/** One rule violation. */
struct Finding
{
    std::string file;
    int line = 0; ///< 1-based
    std::string rule;
    std::string message;
};

/** Linter knobs. */
struct Options
{
    /** Rules to run; empty = all. */
    std::vector<std::string> rules;
    /**
     * Honour the built-in allowlist (the designated seam files:
     * bench/microbench.cc and bench/bench_service.cc for D1/L2,
     * src/support/artifact_io.{hh,cc} for S2). Tests disable it to exercise
     * the raw rules.
     */
    bool builtinAllowlist = true;
    /** Extra "path-suffix:RULE" allowlist entries. */
    std::vector<std::string> extraAllow;
};

/** Static rule description for --list-rules and the docs. */
struct RuleInfo
{
    const char *id;
    const char *summary;
};

/** Catalog of every rule the linter knows. */
std::vector<RuleInfo> ruleCatalog();

/**
 * Lint one translation unit given its @p path (used both for layer
 * classification and reporting) and full @p text. Findings come back
 * in line order.
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text,
                                const Options &options = {});

/** Lint a file from disk. Unreadable files produce an "IO" finding. */
std::vector<Finding> lintFile(const std::string &path,
                              const Options &options = {});

/**
 * Recursively lint every .cc/.hh/.cpp/.h under @p roots (files listed
 * directly are linted unconditionally). Directories named
 * "lint_fixtures" are skipped — they hold deliberately-violating
 * linter test data. Traversal order is sorted, so output is stable.
 */
std::vector<Finding> lintTree(const std::vector<std::string> &roots,
                              const Options &options = {});

} // namespace yasim::lint

#endif // YASIM_TOOLS_LINT_HH
