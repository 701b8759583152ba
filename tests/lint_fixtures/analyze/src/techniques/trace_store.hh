// Fixture: openStream's header, the sanctioned seam. It may include
// sim/functional.hh itself; G1's reachability walk stops here.
#ifndef FIXTURE_TECH_TRACE_STORE_HH
#define FIXTURE_TECH_TRACE_STORE_HH

#include "sim/functional.hh"

namespace yasim {

void openStream();

} // namespace yasim

#endif // FIXTURE_TECH_TRACE_STORE_HH
