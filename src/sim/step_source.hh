/**
 * @file
 * The StepSource seam: the in-order dynamic instruction stream.
 *
 * This header is the boundary between the functional layer and every
 * consumer of its output. The architectural stream is
 * machine-configuration-independent, so it is interpreted once by
 * FunctionalSim inside ExecTrace::record (sim/trace.hh) and every
 * timing run replays the recording: OooCore::run, the techniques, and
 * the profilers all program against StepSource, and the interpreter
 * remains the oracle the replayer is tested against. Code above the
 * functional layer includes this header (or obtains a StepSource
 * through techniques/trace_store.hh); only the simulator's own layer
 * includes sim/functional.hh.
 *
 * Three execution modes cover every technique in the paper:
 *
 *  - step():            full record production, feeds detailed simulation
 *  - fastForward():     architectural state only (FF X in the truncated
 *                       techniques; skipped portions of SimPoint)
 *  - fastForwardWarm(): architectural state plus functional warming of the
 *                       caches and branch predictor (SMARTS)
 */

#ifndef YASIM_SIM_STEP_SOURCE_HH
#define YASIM_SIM_STEP_SOURCE_HH

#include <cstdint>

#include "isa/program.hh"

namespace yasim {

class MemoryHierarchy;
class CombinedPredictor;

/** Everything the timing model needs about one dynamic instruction. */
struct ExecRecord
{
    /** Static instruction (owned by the Program). */
    const Instruction *inst = nullptr;
    /** Instruction index of this dynamic instance. */
    uint64_t pc = 0;
    /** Instruction index executed next (branch fall-through or target). */
    uint64_t nextPc = 0;
    /** Effective byte address for loads/stores, else 0. */
    uint64_t memAddr = 0;
    /** Resolved direction for control instructions. */
    bool taken = false;
    /** Operand values make this a trivial computation (TC enhancement). */
    bool trivial = false;
};

/**
 * Producer of an in-order dynamic instruction stream. Implemented by
 * FunctionalSim (the recorder and oracle) and by TraceReplayer (every
 * timing run); both must produce bit-identical streams and warming
 * call sequences for the same program.
 */
class StepSource
{
  public:
    virtual ~StepSource() = default;

    /**
     * Produce one instruction into @p record.
     * @return false when the stream was already exhausted (Halt done).
     */
    virtual bool step(ExecRecord &record) = 0;

    /**
     * Produce up to @p n instructions into @p out — the batch face of
     * step(), paying one virtual call per span instead of one per
     * record. The records delivered are exactly the next n step()
     * results (bit-identical; the hot consumers are tested both ways).
     * @return the number produced; 0 iff the stream is exhausted or
     * @p n is 0.
     */
    virtual uint64_t stepBatch(ExecRecord *out, uint64_t n);

    /**
     * Advance up to @p count instructions with no record production.
     * @return the number actually advanced (less than count at Halt).
     */
    virtual uint64_t fastForward(uint64_t count) = 0;

    /**
     * Advance up to @p count instructions while functionally warming
     * @p mem (I and D sides) and @p bp (may each be null).
     * @return the number actually advanced.
     */
    virtual uint64_t fastForwardWarm(uint64_t count, MemoryHierarchy *mem,
                                     CombinedPredictor *bp) = 0;

    /** True once the stream has delivered its Halt. */
    virtual bool halted() const = 0;

    /** Dynamic instructions delivered so far (Halt included). */
    virtual uint64_t instsExecuted() const = 0;
};

} // namespace yasim

#endif // YASIM_SIM_STEP_SOURCE_HH
