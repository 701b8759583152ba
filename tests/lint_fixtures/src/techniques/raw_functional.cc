/**
 * @file
 * Lint fixture: L1 violation (a technique reaching for FunctionalSim
 * instead of replaying through openStream). Never compiled — linted by
 * test_lint only.
 */

#include "sim/functional.hh"

namespace yasim {

uint64_t
runDirectly()
{
    FunctionalSim sim;
    return sim.instsExecuted();
}

} // namespace yasim
