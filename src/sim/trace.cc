#include "sim/trace.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>

#include "sim/bb_profiler.hh"
#include "sim/functional.hh"
#include "support/check.hh"
#include "support/codec.hh"
#include "support/logging.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

namespace yasim {

namespace {

constexpr char kTraceMagic[] = "yasim-trace";
/** Trailing sentinel guarding against truncated binary payloads. */
constexpr uint64_t kTraceEndMark = 0x59415349'4d454e44ULL;

template <typename T>
void
putRaw(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
getRaw(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    return is.good();
}

template <typename T>
void
putVec(std::ostream &os, const std::vector<T> &v)
{
    os.write(reinterpret_cast<const char *>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
bool
getVec(std::istream &is, std::vector<T> &v, size_t n)
{
    v.resize(n);
    is.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    return is.good();
}

// --- v4 chunk planes --------------------------------------------------------
//
// Each chunk serializes as three independently RLE'd byte planes, all
// chunk-local (delta state resets per chunk, so chunks decode
// independently):
//
//  pc plane:   varint(zigzag(pc[i] - pc[i-1] - 1)) — sequential
//              execution encodes as 0x00, so the RLE collapses the
//              overwhelmingly-common fall-through runs;
//  mem plane:  varint(zigzag(memAddr delta vs the previous memory
//              op)) for load/store records only — mem-ness is
//              derivable from the pc's static instruction, and
//              strided access patterns yield tiny repeated deltas;
//  flag plane: the raw taken/trivial bytes (values 0..3), RLE'd.

/** Write @p plane RLE-compressed with a u64 byte-length prefix. */
void
putPlane(std::ostream &os, const std::string &plane)
{
    std::string rle;
    rleEncode(plane, rle);
    putRaw(os, static_cast<uint64_t>(rle.size()));
    os.write(rle.data(), static_cast<std::streamsize>(rle.size()));
}

/**
 * Read one RLE'd plane back; @p max_out bounds the decoded size (the
 * caller's structural limit) and implies a bound on the stored size
 * (RLE expands a plane by at most 1.5x). Returns false on truncation,
 * malformed RLE, or a plane past the bound.
 */
bool
getPlane(std::istream &is, std::string &plane, size_t max_out)
{
    uint64_t stored = 0;
    if (!getRaw(is, stored) || stored > max_out + max_out / 2 + 16)
        return false;
    std::string rle(stored, '\0');
    is.read(rle.data(), static_cast<std::streamsize>(stored));
    if (!is.good())
        return false;
    plane.clear();
    return rleDecode(rle, plane, max_out);
}

/** Serialize one chunk's SoA columns as delta/byte planes. */
// yasim-lint: serialized(trace)
void
encodeChunkPlanes(const std::vector<uint32_t> &pcs,
                  const std::vector<uint64_t> &addrs,
                  const std::vector<uint8_t> &flags,
                  const Instruction *code, std::ostream &os)
{
    const size_t n = pcs.size();
    std::string pc_plane, mem_plane;
    pc_plane.reserve(n);
    uint64_t prev_pc = 0;
    uint64_t last_mem = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t pc = pcs[i];
        putVarint(pc_plane,
                  zigzagEncode(static_cast<int64_t>(pc) -
                               static_cast<int64_t>(prev_pc) - 1));
        prev_pc = pc;
        const Instruction &inst = code[pc];
        if (inst.isLoad() || inst.isStore()) {
            putVarint(mem_plane,
                      zigzagEncode(static_cast<int64_t>(addrs[i]) -
                                   static_cast<int64_t>(last_mem)));
            last_mem = addrs[i];
        } else {
            // Non-memory records carry memAddr 0 by the ExecRecord
            // contract; the decoder reconstructs the zeros for free.
            YASIM_DCHECK_EQ(addrs[i], uint64_t(0));
        }
    }
    const std::string flag_plane(
        reinterpret_cast<const char *>(flags.data()), n);
    putRaw(os, static_cast<uint64_t>(n));
    putPlane(os, pc_plane);
    putPlane(os, mem_plane);
    putPlane(os, flag_plane);
}

/**
 * Decode one chunk of @p n records into the SoA columns. Every
 * reconstructed pc is validated against @p prog_size before its static
 * instruction is consulted, and all three planes must be consumed
 * exactly. Returns false on any structural violation.
 */
// yasim-lint: serialized(trace)
bool
decodeChunkPlanes(std::istream &is, size_t n, const Instruction *code,
                  size_t prog_size, std::vector<uint32_t> &pcs,
                  std::vector<uint64_t> &addrs,
                  std::vector<uint8_t> &flags)
{
    std::string plane;
    if (!getPlane(is, plane, n * 10))
        return false;
    pcs.resize(n);
    size_t at = 0;
    uint64_t prev_pc = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t z = 0;
        if (!getVarint(plane, at, z))
            return false;
        const uint64_t pc = static_cast<uint64_t>(
            static_cast<int64_t>(prev_pc) + 1 + zigzagDecode(z));
        if (pc >= prog_size)
            return false;
        pcs[i] = static_cast<uint32_t>(pc);
        prev_pc = pc;
    }
    if (at != plane.size())
        return false;

    std::string mem_plane;
    if (!getPlane(is, mem_plane, n * 10))
        return false;

    if (!getPlane(is, plane, n) || plane.size() != n)
        return false;
    flags.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const uint8_t f = static_cast<uint8_t>(plane[i]);
        if (f > 3)
            return false;
        flags[i] = f;
    }

    addrs.resize(n);
    at = 0;
    uint64_t last_mem = 0;
    for (size_t i = 0; i < n; ++i) {
        const Instruction &inst = code[pcs[i]];
        if (inst.isLoad() || inst.isStore()) {
            uint64_t z = 0;
            if (!getVarint(mem_plane, at, z))
                return false;
            last_mem = static_cast<uint64_t>(
                static_cast<int64_t>(last_mem) + zigzagDecode(z));
            addrs[i] = last_mem;
        } else {
            addrs[i] = 0;
        }
    }
    return at == mem_plane.size();
}

} // namespace

// --- ExecTrace: recording ---------------------------------------------------

void
ExecTrace::appendBatch(const ExecRecord *recs, uint64_t n)
{
    uint64_t i = 0;
    while (i < n) {
        if ((total & chunkMask) == 0) {
            chunks.emplace_back();
            Chunk &fresh = chunks.back();
            fresh.pc.reserve(chunkInsts);
            fresh.memAddr.reserve(chunkInsts);
            fresh.flags.reserve(chunkInsts);
        }
        Chunk &c = chunks.back();
        const uint64_t run =
            std::min(n - i, chunkInsts - (total & chunkMask));
        for (uint64_t k = 0; k < run; ++k) {
            const ExecRecord &r = recs[i + k];
            c.pc.push_back(static_cast<uint32_t>(r.pc));
            c.memAddr.push_back(r.memAddr);
            c.flags.push_back(static_cast<uint8_t>(
                (r.taken ? 1 : 0) | (r.trivial ? 2 : 0)));
        }
        total += run;
        i += run;
    }
}

std::shared_ptr<const ExecTrace>
ExecTrace::record(const Program &program)
{
    YASIM_CHECK(program.size() <= UINT32_MAX,
                "program too large to trace (%zu static instructions)",
                program.size());
    std::shared_ptr<ExecTrace> trace(new ExecTrace(program));

    FunctionalSim sim(trace->prog);
    BbProfiler profiler(trace->prog);
    // Batched recording: one interpreter span, one profiler pass, one
    // SoA append per batch.
    constexpr uint64_t kRecordBatch = 4096;
    std::vector<ExecRecord> batch(kRecordBatch);
    while (const uint64_t n = sim.stepBatch(batch.data(), kRecordBatch)) {
        profiler.recordBatch(batch.data(), n);
        trace->appendBatch(batch.data(), n);
    }
    trace->total = sim.instsExecuted();
    trace->bbefCounts = profiler.bbef();
    trace->bbvCounts = profiler.bbv();
    return trace;
}

size_t
ExecTrace::footprintBytes() const
{
    size_t bytes = sizeof(*this);
    for (const Chunk &c : chunks) {
        bytes += c.pc.capacity() * sizeof(uint32_t) +
                 c.memAddr.capacity() * sizeof(uint64_t) +
                 c.flags.capacity() * sizeof(uint8_t);
    }
    bytes += (bbefCounts.capacity() + bbvCounts.capacity()) *
             sizeof(double);
    bytes += prog.size() * sizeof(Instruction);
    return bytes;
}

// --- ExecTrace: serialization ----------------------------------------------

// yasim-lint: serialized(trace)
void
ExecTrace::write(std::ostream &os, const std::string &key_text) const
{
    os << kTraceMagic << " " << kTraceFormatVersion << "\n";
    os << "key " << key_text << "\n";
    os << "meta length=" << total << " program=" << prog.size()
       << " blocks=" << prog.numBlocks() << "\n";
    for (const Chunk &c : chunks)
        encodeChunkPlanes(c.pc, c.memAddr, c.flags, prog.code(), os);
    putVec(os, bbefCounts);
    putVec(os, bbvCounts);
    putRaw(os, kTraceEndMark);
}

// yasim-lint: serialized(trace)
std::shared_ptr<const ExecTrace>
ExecTrace::read(std::istream &is, const std::string &key_text,
                const Program &program)
{
    std::string line;
    if (!std::getline(is, line) ||
        line != csprintf("%s %d", kTraceMagic, kTraceFormatVersion)) {
        return nullptr;
    }
    if (!std::getline(is, line) || line != "key " + key_text)
        return nullptr;
    uint64_t length = 0, prog_size = 0, blocks = 0;
    if (!std::getline(is, line) ||
        std::sscanf(line.c_str(),
                    "meta length=%" SCNu64 " program=%" SCNu64
                    " blocks=%" SCNu64,
                    &length, &prog_size, &blocks) != 3) {
        return nullptr;
    }
    if (prog_size != program.size() || blocks != program.numBlocks())
        return nullptr;

    std::shared_ptr<ExecTrace> trace(new ExecTrace(program));
    trace->total = length;
    uint64_t remaining = length;
    while (remaining > 0) {
        // Chunk-at-a-time: each compressed chunk decodes straight into
        // the SoA buffers the replay kernels serve spans from.
        uint64_t n = 0;
        if (!getRaw(is, n) || n == 0 || n > chunkInsts || n > remaining)
            return nullptr;
        trace->chunks.emplace_back();
        Chunk &c = trace->chunks.back();
        if (!decodeChunkPlanes(is, n, program.code(), prog_size, c.pc,
                               c.memAddr, c.flags)) {
            return nullptr;
        }
        remaining -= n;
    }
    if (!getVec(is, trace->bbefCounts, blocks) ||
        !getVec(is, trace->bbvCounts, blocks)) {
        return nullptr;
    }
    uint64_t end_mark = 0;
    if (!getRaw(is, end_mark) || end_mark != kTraceEndMark)
        return nullptr;
    return trace;
}

// --- TraceReplayer ----------------------------------------------------------

TraceReplayer::TraceReplayer(std::shared_ptr<const ExecTrace> trace)
    : src(std::move(trace)), code(src->prog.code()), end(src->total)
{
}

bool
TraceReplayer::step(ExecRecord &record)
{
    if (cursor >= end)
        return false;
    YASIM_DCHECK_LT(cursor >> ExecTrace::chunkShift,
                    src->chunks.size());
    const ExecTrace::Chunk &chunk =
        src->chunks[cursor >> ExecTrace::chunkShift];
    const size_t off = cursor & ExecTrace::chunkMask;
    const uint64_t pc = chunk.pc[off];
    const uint8_t flags = chunk.flags[off];
    YASIM_DCHECK_LT(pc, src->prog.size());
    const Instruction &inst = code[pc];
    const bool taken = (flags & 1) != 0;
    record.inst = &inst;
    record.pc = pc;
    // Exactly FunctionalSim's definition: branch target or fall-through.
    record.nextPc = taken ? static_cast<uint64_t>(inst.imm) : pc + 1;
    record.memAddr = chunk.memAddr[off];
    record.taken = taken;
    record.trivial = (flags & 2) != 0;
    ++cursor;
    return true;
}

uint64_t
TraceReplayer::stepBatch(ExecRecord *out, uint64_t n)
{
    // Serve whole chunk-resident SoA spans: the chunk lookup, bounds
    // work, and pointer arithmetic are paid once per span instead of
    // once per record. The nextPc select may compile to a branch on
    // the taken bit; taken bits follow the program's loops, and a
    // forced mask select measured slower.
    uint64_t done = 0;
    while (done < n && cursor < end) {
        const ExecTrace::Chunk &chunk =
            src->chunks[cursor >> ExecTrace::chunkShift];
        const size_t off = cursor & ExecTrace::chunkMask;
        const uint64_t run =
            std::min({n - done, end - cursor,
                      static_cast<uint64_t>(chunk.pc.size() - off)});
        const uint32_t *pcs = chunk.pc.data() + off;
        const uint64_t *addrs = chunk.memAddr.data() + off;
        const uint8_t *flags = chunk.flags.data() + off;
        const size_t prog_size = src->prog.size();
        ExecRecord *recs = out + done;
        for (uint64_t i = 0; i < run; ++i) {
            const uint64_t pc = pcs[i];
            const uint8_t f = flags[i];
            YASIM_DCHECK_LT(pc, prog_size);
            const Instruction &inst = code[pc];
            const bool taken = (f & 1) != 0;
            ExecRecord &r = recs[i];
            r.inst = &inst;
            r.pc = pc;
            // Exactly FunctionalSim's successor definition.
            r.nextPc =
                taken ? static_cast<uint64_t>(inst.imm) : pc + 1;
            r.memAddr = addrs[i];
            r.taken = taken;
            r.trivial = (f & 2) != 0;
        }
        cursor += run;
        done += run;
    }
    return done;
}

uint64_t
TraceReplayer::fastForward(uint64_t count)
{
    // The whole point: skipping recorded instructions costs nothing.
    const uint64_t advanced = std::min(count, end - cursor);
    cursor += advanced;
    return advanced;
}

uint64_t
TraceReplayer::fastForwardWarm(uint64_t count, MemoryHierarchy *hierarchy,
                               CombinedPredictor *bp)
{
    // Must leave the same tables, up to LRU stamp values, as the live
    // interpreter's warming (FunctionalSim::execOne<_, true>). The
    // I side is warmed once per run of instructions in one L1-I block:
    // a skipped warmInst would hit the line, and the I-TLB tail entry
    // (a 4 KiB page holds whole blocks), that the previous instruction
    // just made most recent, and nothing between touches the L1-I or
    // I-TLB. So every hit, miss and victim stays the same; only stamp
    // values shrink. Processed as chunk-resident spans: the chunk
    // lookup and column pointers are hoisted out of the per-record
    // warming loop.
    const unsigned l1i_shift =
        hierarchy ? std::countr_zero(hierarchy->config().l1i.blockBytes)
                  : 0;
    uint64_t last_block = ~0ULL;
    uint64_t done = 0;
    while (done < count && cursor < end) {
        const ExecTrace::Chunk &chunk =
            src->chunks[cursor >> ExecTrace::chunkShift];
        const size_t off = cursor & ExecTrace::chunkMask;
        const uint64_t run =
            std::min({count - done, end - cursor,
                      static_cast<uint64_t>(chunk.pc.size() - off)});
        const uint32_t *pcs = chunk.pc.data() + off;
        const uint64_t *addrs = chunk.memAddr.data() + off;
        const uint8_t *flags = chunk.flags.data() + off;
        for (uint64_t i = 0; i < run; ++i) {
            const uint64_t pc = pcs[i];
            const Instruction &inst = code[pc];
            const bool taken = (flags[i] & 1) != 0;
            const uint64_t next_pc =
                taken ? static_cast<uint64_t>(inst.imm) : pc + 1;
            if (hierarchy) {
                const uint64_t pc_addr = Program::pcAddress(pc);
                if (pc_addr >> l1i_shift != last_block) {
                    hierarchy->warmInst(pc_addr);
                    last_block = pc_addr >> l1i_shift;
                }
                if (inst.isLoad() || inst.isStore())
                    hierarchy->warmData(addrs[i]);
            }
            if (bp && inst.isControl()) {
                bp->warmUpdate(Program::pcAddress(pc),
                               inst.isCondBranch(), taken,
                               Program::pcAddress(next_pc));
            }
        }
        cursor += run;
        done += run;
    }
    return done;
}

void
TraceReplayer::seek(uint64_t position)
{
    cursor = std::min(position, end);
}

} // namespace yasim
