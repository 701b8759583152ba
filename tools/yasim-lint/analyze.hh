/**
 * @file
 * yasim-analyze: whole-repo semantic analysis on top of the per-file
 * token rules (lint.hh).
 *
 * Where yasim-lint inspects one translation unit at a time, this layer
 * builds a project model — every source file masked and tokenized, a
 * resolved include graph, annotation-declared cache-key stamp sites and
 * serialization functions — and checks properties that only exist at
 * the whole-repo level:
 *
 *   G1  layering by reachability: src/techniques and src/core must not
 *       reach sim/functional.hh through any chain of includes except
 *       openStream's header (techniques/trace_store.hh); bench drivers
 *       must not reach engine/pool internals past the driver/service
 *       API headers. Computed on the transitive include graph, so a
 *       violation hidden three headers deep is still a violation.
 *   K1  cache-key completeness: every field of a config struct named
 *       by a `key(<key>) covers Struct(header)` annotation must be
 *       stamped inside the annotated key function, or carry a
 *       `key-exempt(<key>: reason)` annotation. An unstamped
 *       simulation-affecting field is a stale-cache correctness bug.
 *   V1  serialization drift: the bodies of functions annotated
 *       `serialized(<unit>)` are fingerprinted into
 *       tools/yasim-lint/serialization.lock together with the value of
 *       the unit's `version(<unit>)` constant; a fingerprint change
 *       without the matching k*FormatVersion bump is an error, so
 *       version ratcheting is mechanical (--update-lock) instead of
 *       remembered.
 *   C2  shared mutable state: non-const namespace-scope or
 *       static-local data in files reachable from the thread-pool /
 *       ServiceDaemon executors must carry a `guarded(<mutex>)`
 *       annotation naming its lock (or an explicit allow).
 *   H1  include hygiene: a directly-included project header none of
 *       whose declared symbols are used (and whose transitive
 *       closure's used symbols are all reachable through the file's
 *       other includes) is flagged, and removable with --fix.
 *
 * Analysis annotations (comments, same prefix as suppressions):
 *   // yasim-lint: key(result) covers CoreConfig(sim/config.hh)
 *   // yasim-lint: serialized(trace)
 *   // yasim-lint: version(trace)
 *   // yasim-lint: key-exempt(warm: latencies never shape tables)
 *   // yasim-lint: guarded(gStateMutex)
 *   // yasim-lint: keep
 *
 * Findings from unreadable files or a corrupt lock/baseline carry the
 * pseudo-rule "IO" so the driver can exit 2 (operational error) rather
 * than 1 (findings).
 */

#ifndef YASIM_TOOLS_ANALYZE_HH
#define YASIM_TOOLS_ANALYZE_HH

#include <string>
#include <vector>

#include "lint.hh"

namespace yasim::lint {

/** Whole-repo analysis knobs (extends the per-file Options). */
struct AnalyzeOptions
{
    /** Token-rule knobs; Options::rules filters *all* families. */
    Options lint;
    /** Remove flagged H1 includes in place. */
    bool fix = false;
    /** Regenerate serialization.lock instead of diffing against it. */
    bool updateLock = false;
    /** Lock path; empty = <root>/tools/yasim-lint/serialization.lock. */
    std::string lockPath;
    /** Baseline path; empty = <root>/tools/yasim-lint/baseline.txt
     *  (missing file = empty baseline). */
    std::string baselinePath;
    /** Subtrees to scan, relative to the root. */
    std::vector<std::string> roots = {"src", "bench", "tests"};
    /**
     * Diff-aware mode: when non-empty, only findings in these
     * root-relative files are reported (V1 and IO findings always
     * survive — the lock is whole-repo state).
     */
    std::vector<std::string> sinceFiles;
    /** Parse and lint files on the global thread pool. */
    bool parallel = true;
};

/** Whole-repo analysis outcome. */
struct AnalyzeResult
{
    /** All findings, sorted by (file, line, rule). */
    std::vector<Finding> findings;
    /** Include lines removed by --fix. */
    int fixedIncludes = 0;
    /** Files parsed into the project model. */
    size_t filesScanned = 0;
};

/** Token rules plus the semantic families, for --list-rules / SARIF. */
std::vector<RuleInfo> analyzeRuleCatalog();

/**
 * Analyze the repository rooted at @p root. Paths in findings are
 * root-relative with '/' separators.
 */
AnalyzeResult analyzeRepo(const std::string &root,
                          const AnalyzeOptions &options = {});

/** Render findings as a SARIF 2.1.0 log (one run, one driver). */
std::string sarifReport(const std::vector<Finding> &findings);

} // namespace yasim::lint

#endif // YASIM_TOOLS_ANALYZE_HH
