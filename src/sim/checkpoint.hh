/**
 * @file
 * The retired architectural-checkpoint format version.
 *
 * yasim once persisted full architectural checkpoints ("yasim-ckpt"
 * frames, *.ckpt). None are written any more: the trace is the
 * replayable stream and sim/livepoint.hh is the one persisted
 * entry-state format. Checkpoint generation survives only as a
 * modeled cost (CostModel::checkpointPerInst). The constant stays so
 * tools that audit old cache directories can still recognise the
 * frame version.
 */

#ifndef YASIM_SIM_CHECKPOINT_HH
#define YASIM_SIM_CHECKPOINT_HH

#include <cstdint>

namespace yasim {

/** Frame version of the last checkpoint files yasim wrote. */
constexpr uint32_t kCheckpointFormatVersion = 3;

} // namespace yasim

#endif // YASIM_SIM_CHECKPOINT_HH
