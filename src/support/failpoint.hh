/**
 * @file
 * Deterministic fault injection for artifact I/O.
 *
 * A failpoint is a named site in the code (e.g. "io.read.corrupt")
 * whose behaviour a test or a CI job can arm with a trigger. Sites are
 * evaluated with fire(): an unarmed site costs one branch and never
 * fires; an armed one consults its trigger. Triggers are driven by the
 * project's seeded Rng (support/rng.hh), never by entropy or wall
 * clock, so a schedule like "io.read.corrupt=1in8" reproduces the same
 * fault sequence on every run (lint rule D1 applies here too).
 *
 * Schedule grammar (comma-separated, whitespace-free):
 *
 *     site=1inN     fire pseudo-randomly with probability 1/N
 *     site=afterK   fire exactly once, on the (K+1)-th evaluation
 *     site=always   fire on every evaluation
 *     site=off      disarm the site
 *     seed=N        reseed the trigger Rng (default seed otherwise)
 *
 * The I/O sites live in support/artifact_io.cc:
 *
 *     io.open.transient   open() fails (reader/writer retries)
 *     io.read.corrupt     one bit of the read buffer flips
 *     io.write.short      the payload is silently truncated mid-write
 *     io.rename.fail      the atomic publish rename fails
 *     io.write.crash      the process _exit()s mid-write (torture tests)
 *     io.sync.fail        a batch's syncfs barrier fails
 *     io.publish.crash    the process _exit()s after the barrier,
 *                         before a rename (torture tests)
 *
 * The cancellation sites engine.cancel.token and engine.cancel.write
 * and the service sites svc.accept.transient, svc.read.corrupt and
 * svc.cancel.dispatch complete the canonical list; a schedule that
 * names any other site is fatal.
 *
 * Configuration comes from configure() or, lazily on the first fire(),
 * from the YASIM_FAILPOINTS environment variable — which is how the CI
 * fault-injection job subjects the whole test suite to a schedule
 * without touching any test. Each site draws from its own Rng stream
 * (seeded from the schedule seed and the site name), so arming one
 * site never perturbs another's fault sequence.
 */

#ifndef YASIM_SUPPORT_FAILPOINT_HH
#define YASIM_SUPPORT_FAILPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace yasim::failpoint {

/** Monotonic per-site counters. */
struct SiteStats
{
    uint64_t evaluations = 0;
    uint64_t fires = 0;
};

/**
 * Replace the active schedule with @p spec (see grammar above).
 * An empty spec disarms everything. Malformed specs and unknown site
 * names are fatal() — a schedule is user configuration, and a typo
 * must not silently run the suite without faults.
 */
void configure(const std::string &spec);

/** configure() from $YASIM_FAILPOINTS ("" when unset). */
void configureFromEnv();

/** Disarm every site and clear all counters. */
void reset();

/** True when any site is currently armed. Implies fire() may return
 *  true; tests use this to relax exact cache-counter assertions that
 *  deliberate fault injection perturbs. */
bool anyArmed();

/**
 * Evaluate the trigger of @p site. Returns false when the site is
 * unarmed. Thread-safe; the first call configures from the
 * environment if configure() was never called.
 */
bool fire(const char *site);

/** Counters for one site (zeros when never evaluated). */
SiteStats stats(const std::string &site);

/** Every site with counters, sorted by name (deterministic output). */
std::vector<std::pair<std::string, SiteStats>> allStats();

/** The currently active schedule spec (as last configured). */
std::string activeSpec();

/**
 * RAII schedule override for tests: configures @p spec on
 * construction and restores the previous schedule (including an
 * environment-provided one) on destruction.
 */
class ScopedSchedule
{
  public:
    explicit ScopedSchedule(const std::string &spec);
    ~ScopedSchedule();

    ScopedSchedule(const ScopedSchedule &) = delete;
    ScopedSchedule &operator=(const ScopedSchedule &) = delete;

  private:
    std::string saved;
};

} // namespace yasim::failpoint

#endif // YASIM_SUPPORT_FAILPOINT_HH
