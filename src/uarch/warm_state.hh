/**
 * @file
 * Format version and POD stream helpers for warmed-uarch state.
 *
 * Warmed-microarchitecture state (cache tag/LRU arrays, TLB entries,
 * branch-predictor tables) serializes as one composite blob, and only
 * a live-point (sim/livepoint.hh) carries it. The blob opens with
 * kWarmStateFormatVersion (written and checked by
 * MemoryHierarchy::serializeWarmState) and every component embeds its
 * geometry as a guard, so a stream produced under a different
 * configuration — or a different layout of any component — can never
 * be restored into a live structure.
 */

#ifndef YASIM_UARCH_WARM_STATE_HH
#define YASIM_UARCH_WARM_STATE_HH

#include <cstdint>
#include <istream>
#include <ostream>

namespace yasim {

/**
 * Layout version of the composite warmed-uarch blob. Bumped whenever
 * any component's serialized field set or ordering changes, or how a
 * component restores it; mismatched blobs fail deserialization and
 * callers re-warm from scratch. Version 2 keeps version 1's bytes: the
 * TLB's restore now rebuilds its lookup index and rejects entry arrays
 * no TLB could have written.
 */
// yasim-lint: version(warm)
constexpr uint32_t kWarmStateFormatVersion = 2;

namespace warmio {

template <typename T>
void
putPod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
getPod(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    return is.good();
}

} // namespace warmio

} // namespace yasim

#endif // YASIM_UARCH_WARM_STATE_HH
