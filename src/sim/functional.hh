/**
 * @file
 * Functional (architectural) simulator: the recorder's interpreter and
 * the oracle the replayer is tested against.
 *
 * Executes programs at architectural level only. ExecTrace::record
 * (sim/trace.hh) runs it once per program through stepBatch, and every
 * timing run replays that recording through a TraceReplayer (lint
 * rules L1 and G1 keep the techniques, the characterizations and the
 * bench drivers off this header). step, fastForward and
 * fastForwardWarm stay for the oracle tests, which hold the replayer's
 * records to them, and its warmed tables to the same tables up to LRU
 * stamp values.
 */

#ifndef YASIM_SIM_FUNCTIONAL_HH
#define YASIM_SIM_FUNCTIONAL_HH

#include <cstdint>

#include "isa/program.hh"
#include "sim/memory.hh"
#include "sim/trace.hh"

namespace yasim {

/** Architectural simulator for one program run. */
class FunctionalSim
{
  public:
    /**
     * Begin executing @p program from its entry point with zeroed
     * state. The program must outlive the simulator (only a reference
     * is kept); binding a temporary is a compile error.
     */
    explicit FunctionalSim(const Program &program);
    explicit FunctionalSim(Program &&) = delete;

    /** True once a Halt has executed. */
    bool halted() const { return isHalted; }

    /** Dynamic instructions executed so far (Halt included). */
    uint64_t instsExecuted() const { return icount; }

    /** Current instruction index. */
    uint64_t pc() const { return curPc; }

    /**
     * Execute one instruction and describe it in @p record.
     * @return false when the machine was already halted.
     */
    bool step(ExecRecord &record);

    /**
     * Execute up to @p n instructions, describing each in @p out: the
     * recorder's interpreter loop.
     * @return the number executed (less than n at Halt).
     */
    uint64_t stepBatch(ExecRecord *out, uint64_t n);

    /**
     * Execute up to @p count instructions with no record production.
     * @return the number actually executed (less than count at Halt).
     */
    uint64_t fastForward(uint64_t count);

    /**
     * Execute up to @p count instructions while functionally warming
     * @p mem (I and D sides) and @p bp (may each be null), one warming
     * call per instruction: the oracle for the replayer's
     * block-granular I-side warming.
     * @return the number actually executed.
     */
    uint64_t fastForwardWarm(uint64_t count, MemoryHierarchy *mem,
                             CombinedPredictor *bp);

    /** Read an integer register (r0 reads zero). */
    int64_t intReg(int idx) const { return intRegs[idx]; }

    /** Read an FP register. */
    double fpReg(int idx) const { return fpRegs[idx]; }

    /** The program's data memory. */
    SparseMemory &memory() { return mem; }

    /** The program being executed. */
    const Program &program() const { return prog; }

  private:
    /** Execute one instruction; the caller has checked !isHalted. */
    template <bool MakeRecord, bool Warm>
    void execOne(ExecRecord *record, MemoryHierarchy *hierarchy,
                 CombinedPredictor *bp);

    const Program &prog;
    /** prog's instruction array, hoisted out of the interpreter loop. */
    const Instruction *code;
    SparseMemory mem;
    int64_t intRegs[numIntRegs] = {};
    double fpRegs[numFpRegs] = {};
    uint64_t curPc = 0;
    uint64_t icount = 0;
    bool isHalted = false;
};

} // namespace yasim

#endif // YASIM_SIM_FUNCTIONAL_HH
