/**
 * @file
 * Execution-trace record/replay: run the functional interpreter once,
 * replay its ExecRecord stream many times.
 *
 * The architectural instruction stream depends only on the program, not
 * on the machine configuration, yet every technique historically
 * re-interpreted from instruction zero per configuration. An ExecTrace
 * captures one full interpretation into a chunked structure-of-arrays
 * buffer — 13 bytes per dynamic instruction in memory (4 pc + 8
 * memAddr + 1 flags; nextPc is derivable, see below), delta/byte-plane
 * compressed to ~1-2 bytes per instruction on disk — together with the
 * program and the full-run BBEF/BBV profile. A TraceReplayer is a
 * cursor over the recording, and the one stream type every consumer
 * takes (OooCore::run, the techniques, the profilers, sharded
 * warming):
 *
 *  - step() is an array load instead of interpretation,
 *  - stepBatch() serves whole chunk-resident SoA spans, one chunk
 *    lookup per span,
 *  - fastForward() is a cursor jump (O(1) instead of O(n)),
 *  - fastForwardWarm() leaves the live interpreter's warmed tables,
 *    the same tables up to LRU stamp values.
 *
 * The interpreter (sim/functional.hh) runs only inside record() and
 * as the oracle the replayer is tested against: its step, stepBatch
 * and fastForward produce bit-identical records, and its
 * fastForwardWarm the same tables up to LRU stamp values. nextPc is
 * not stored: FunctionalSim defines it as `taken ? inst.imm : pc + 1`,
 * so the replayer recomputes it exactly.
 *
 * Traces are immutable once recorded (or deserialized), so one
 * shared_ptr<const ExecTrace> is safely shared by any number of worker
 * threads, each with its own TraceReplayer cursor. Sharing and disk
 * spill live one layer up in techniques/trace_store.hh.
 */

#ifndef YASIM_SIM_TRACE_HH
#define YASIM_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

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
 * Bumped whenever the on-disk trace layout or the semantics of the
 * recorded stream change; stale spills then miss instead of replaying
 * a stream with different meaning. Version 5: the embedded ladder of
 * architectural checkpoints is gone (nothing read it), and with it the
 * header's spacing= and checkpoints= fields. Version 4: chunks are
 * serialized as delta/byte-plane encoded streams (varint + RLE, see
 * trace.cc) at roughly 1-2 bytes per instruction instead of the raw
 * 13-byte SoA rows.
 */
// yasim-lint: version(trace)
constexpr int kTraceFormatVersion = 5;

/** An immutable recording of one program's full execution. */
class ExecTrace
{
  public:
    /**
     * Record @p program's complete execution (one functional
     * interpretation — the single pass a whole configuration sweep
     * amortizes). The program is copied into the trace.
     */
    static std::shared_ptr<const ExecTrace> record(const Program &program);

    /** Dynamic length of the recording (Halt included). */
    uint64_t length() const { return total; }

    /** The recorded program (owned by the trace). */
    const Program &program() const { return prog; }

    /** Full-run block-entry profile (BbProfiler, weight 1.0). */
    const std::vector<double> &bbef() const { return bbefCounts; }

    /** Full-run basic-block vector (BbProfiler, weight 1.0). */
    const std::vector<double> &bbv() const { return bbvCounts; }

    /** Approximate in-memory footprint in bytes. */
    size_t footprintBytes() const;

    /**
     * Serialize to @p os: a text header carrying the format version
     * and @p key_text, then a native-endian binary payload. The spill
     * is a per-machine cache, not an interchange format.
     */
    void write(std::ostream &os, const std::string &key_text) const;

    /**
     * Deserialize a trace written by write(). Returns nullptr unless
     * the magic, version, and @p key_text all match and the payload is
     * structurally consistent with @p program.
     */
    static std::shared_ptr<const ExecTrace>
    read(std::istream &is, const std::string &key_text,
         const Program &program);

  private:
    friend class TraceReplayer;

    explicit ExecTrace(const Program &program) : prog(program) {}

    static constexpr uint32_t chunkShift = 16;
    static constexpr uint64_t chunkInsts = 1ULL << chunkShift;
    static constexpr uint64_t chunkMask = chunkInsts - 1;

    /** Structure-of-arrays storage for one run of chunkInsts records. */
    struct Chunk
    {
        std::vector<uint32_t> pc;
        std::vector<uint64_t> memAddr;
        /** bit 0 = taken, bit 1 = trivial. */
        std::vector<uint8_t> flags;
    };

    void appendBatch(const ExecRecord *recs, uint64_t n);

    Program prog;
    std::vector<Chunk> chunks;
    std::vector<double> bbefCounts;
    std::vector<double> bbvCounts;
    uint64_t total = 0;
};

/**
 * A replay cursor over an ExecTrace, keeping the trace alive: the
 * instruction stream every timing run consumes. Any number of
 * replayers may share one trace.
 */
class TraceReplayer
{
  public:
    explicit TraceReplayer(std::shared_ptr<const ExecTrace> trace);

    /**
     * Produce the next record into @p record.
     * @return false when the stream was already exhausted (Halt done).
     */
    bool step(ExecRecord &record);

    /**
     * Produce up to @p n records into @p out: exactly the next n
     * step() results, served as chunk-resident spans.
     * @return the number produced; 0 iff the stream is exhausted or
     * @p n is 0.
     */
    uint64_t stepBatch(ExecRecord *out, uint64_t n);

    /**
     * Advance up to @p count instructions with no record production.
     * @return the number actually advanced (less than count at Halt).
     */
    uint64_t fastForward(uint64_t count);

    /**
     * Advance up to @p count instructions while functionally warming
     * @p mem (I and D sides) and @p bp (may each be null), leaving the
     * same tables as the interpreter's warming up to LRU stamp values:
     * the I side is warmed once per run of instructions in one L1-I
     * block, which changes no hit, miss or victim.
     * @return the number actually advanced.
     */
    uint64_t fastForwardWarm(uint64_t count, MemoryHierarchy *mem,
                             CombinedPredictor *bp);

    /** True once the stream has delivered its Halt. */
    bool halted() const { return cursor >= end; }

    /** Dynamic instructions delivered so far (Halt included). */
    uint64_t instsExecuted() const { return cursor; }

    /** Jump the cursor to absolute position @p position (clamped). */
    void seek(uint64_t position);

    /** The trace being replayed. */
    const std::shared_ptr<const ExecTrace> &trace() const { return src; }

  private:
    std::shared_ptr<const ExecTrace> src;
    /** src->prog's instruction array, hoisted out of the replay loop. */
    const Instruction *code;
    uint64_t cursor = 0;
    uint64_t end;
};

} // namespace yasim

#endif // YASIM_SIM_TRACE_HH
