/**
 * @file
 * clockProbeMs(): a fixed chain of dependent multiply-adds whose time
 * follows the host's core clock and nothing of yasim.
 */

#include <cstdint>
#include <vector>

#include "perfbench.hh"

namespace perfbench {

namespace {

constexpr long kProbeSteps = 20'000'000;

double
chainMs()
{
    uint64_t x = 1;
    const auto t0 = Clock::now();
    for (long i = 0; i < kProbeSteps; ++i)
        x = x * 6364136223846793005ull + 1;
    const double ms = 1e3 * secondsSince(t0);
    volatile uint64_t sink = x;
    (void)sink;
    return ms;
}

} // namespace

double
clockProbeMs()
{
    return median({chainMs(), chainMs(), chainMs()});
}

} // namespace perfbench
