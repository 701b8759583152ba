// Fixture: G1 negative. Consuming the seam header is the sanctioned
// way for a technique to obtain a replayed stream.
#include "techniques/trace_store.hh"

namespace yasim {

void
replayEverything()
{
    openStream();
}

} // namespace yasim
