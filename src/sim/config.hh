/**
 * @file
 * Full simulator configuration: the 43-parameter Plackett-Burman factor
 * space, the paper's Table-3 architecture-level presets, and helpers to
 * enumerate envelope-of-the-hypercube configurations.
 *
 * Every PB factor carries a low and a high setting chosen, as in the
 * paper, to bracket the range found in contemporary commercial processors
 * (values follow [Yi03]). Applying a PB design row to the default
 * configuration yields one corner configuration of the design hypercube.
 */

#ifndef YASIM_SIM_CONFIG_HH
#define YASIM_SIM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

namespace yasim {

/** Out-of-order core sizing and latencies. */
struct CoreConfig
{
    uint32_t fetchWidth = 4;
    uint32_t decodeWidth = 4;
    uint32_t issueWidth = 4;
    uint32_t commitWidth = 4;
    uint32_t fetchQueueEntries = 16;
    uint32_t robEntries = 64;
    uint32_t lsqEntries = 32;
    uint32_t iqEntries = 32;

    uint32_t intAlus = 4;
    uint32_t intMultDivUnits = 2;
    uint32_t fpAlus = 2;
    uint32_t fpMultDivUnits = 1;
    uint32_t memPorts = 2;

    uint32_t intAluLatency = 1;
    uint32_t intMulLatency = 3;
    uint32_t intDivLatency = 20;
    uint32_t fpAluLatency = 2;
    uint32_t fpMulLatency = 4;
    uint32_t fpDivLatency = 12;
    /** Dividers are typically unpipelined; ALUs/multipliers pipelined. */
    bool divPipelined = false;

    /** Decode-to-issue pipeline depth in cycles. */
    uint32_t frontendDepth = 4;
    /** Extra redirect cycles charged after a mispredicted branch resolves. */
    uint32_t mispredictPenalty = 3;

    /**
     * Enable the trivial-computation enhancement [Yi02]: operations whose
     * result is determined by one operand complete on an ALU in one pass.
     */
    bool trivialComputation = false;
};

/** Complete simulated-machine configuration. */
struct SimConfig
{
    // yasim-lint: key-exempt(result, warm: descriptive label only)
    // The name is never read by the simulator and never serialized
    // into results, so two configs differing only by name may share
    // cached results.
    std::string name = "default";
    // Core sizing is timing-only: it cannot change which lines the
    // architectural warm stream touches, so live-points are shared
    // across core sweeps.
    CoreConfig core; // yasim-lint: key-exempt(warm: timing-only)
    BranchPredictorConfig bp;
    MemoryConfig mem;
};

/** One Plackett-Burman factor: a named low/high toggle on SimConfig. */
struct PbFactor
{
    std::string name;
    /** Apply the low (false) or high (true) level to @p config. */
    std::function<void(SimConfig &config, bool high)> apply;
};

/**
 * The 43 PB factors of the processor-bottleneck characterization, in a
 * fixed canonical order (the rank-vector coordinate order).
 */
const std::vector<PbFactor> &pbFactors();

/** Number of PB factors (43, matching the paper's rank vectors). */
size_t numPbFactors();

/**
 * Build the corner configuration for one PB design row: factor @p j is
 * set high where levels[j] > 0 and low otherwise.
 *
 * @pre levels.size() == numPbFactors()
 */
SimConfig applyPbRow(const std::vector<int> &levels,
                     const std::string &name);

/** The paper's Table-3 architecture-level configurations (#1..#4). */
std::vector<SimConfig> architecturalConfigs();

/** Table-3 configuration @p index (1-based, 1..4). */
SimConfig architecturalConfig(int index);

/**
 * Envelope-of-the-hypercube configuration set used by the
 * configuration-dependence analysis: the rows of the (un-folded) PB
 * design plus the four Table-3 presets (48 configurations).
 */
std::vector<SimConfig> envelopeConfigs();

} // namespace yasim

#endif // YASIM_SIM_CONFIG_HH
