#include "sim/functional.hh"

#include "sim/trivial.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

namespace yasim {

FunctionalSim::FunctionalSim(const Program &program)
    : prog(program), code(program.code())
{
}

template <bool MakeRecord, bool Warm>
void
FunctionalSim::execOne(ExecRecord *record, MemoryHierarchy *hierarchy,
                       CombinedPredictor *bp)
{
    const uint64_t pc = curPc;
    const Instruction &inst = code[pc];
    uint64_t next_pc = pc + 1;
    uint64_t mem_addr = 0;
    bool taken = false;
    bool trivial = false;

    auto write_int = [&](int rd, int64_t v) {
        if (rd != 0) // r0 is hardwired to zero
            intRegs[rd] = v;
    };

    const int64_t a = inst.rs1 != noReg ? intRegs[inst.rs1] : 0;
    const int64_t b = inst.rs2 != noReg ? intRegs[inst.rs2] : 0;
    // The simulated ISA is two's-complement with wraparound semantics;
    // add/sub/mul go through uint64_t so the wrap is defined behavior.
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);

    switch (inst.op) {
      case Opcode::Add:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, static_cast<int64_t>(ua + ub));
        break;
      case Opcode::Sub:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, static_cast<int64_t>(ua - ub));
        break;
      case Opcode::And:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, a & b);
        break;
      case Opcode::Or:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, a | b);
        break;
      case Opcode::Xor:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, a ^ b);
        break;
      case Opcode::Shl:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, a << (b & 63));
        break;
      case Opcode::Shr:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd,
                  static_cast<int64_t>(static_cast<uint64_t>(a) >> (b & 63)));
        break;
      case Opcode::Slt:
        write_int(inst.rd, a < b ? 1 : 0);
        break;
      case Opcode::AddI:
        write_int(inst.rd, static_cast<int64_t>(
                               ua + static_cast<uint64_t>(inst.imm)));
        break;
      case Opcode::AndI:
        write_int(inst.rd, a & inst.imm);
        break;
      case Opcode::OrI:
        write_int(inst.rd, a | inst.imm);
        break;
      case Opcode::XorI:
        write_int(inst.rd, a ^ inst.imm);
        break;
      case Opcode::ShlI:
        write_int(inst.rd, a << (inst.imm & 63));
        break;
      case Opcode::ShrI:
        write_int(inst.rd, static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                                (inst.imm & 63)));
        break;
      case Opcode::SltI:
        write_int(inst.rd, a < inst.imm ? 1 : 0);
        break;
      case Opcode::MovI:
        write_int(inst.rd, inst.imm);
        break;
      case Opcode::Mul:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, static_cast<int64_t>(ua * ub));
        break;
      case Opcode::Div:
        // b == -1 wraps (INT64_MIN / -1 overflows); negate via the
        // unsigned domain instead of dividing.
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, b == 0    ? 0
                           : b == -1 ? static_cast<int64_t>(0 - ua)
                                     : a / b);
        break;
      case Opcode::Rem:
        trivial = isTrivialInt(inst.op, a, b);
        write_int(inst.rd, b == 0 ? 0 : b == -1 ? 0 : a % b);
        break;

      case Opcode::FAdd: {
        double x = fpRegs[inst.rs1], y = fpRegs[inst.rs2];
        trivial = isTrivialFp(inst.op, x, y);
        fpRegs[inst.rd] = x + y;
        break;
      }
      case Opcode::FSub: {
        double x = fpRegs[inst.rs1], y = fpRegs[inst.rs2];
        trivial = isTrivialFp(inst.op, x, y);
        fpRegs[inst.rd] = x - y;
        break;
      }
      case Opcode::FMul: {
        double x = fpRegs[inst.rs1], y = fpRegs[inst.rs2];
        trivial = isTrivialFp(inst.op, x, y);
        fpRegs[inst.rd] = x * y;
        break;
      }
      case Opcode::FDiv: {
        double x = fpRegs[inst.rs1], y = fpRegs[inst.rs2];
        trivial = isTrivialFp(inst.op, x, y);
        fpRegs[inst.rd] = y == 0.0 ? 0.0 : x / y;
        break;
      }
      case Opcode::FCvt:
        fpRegs[inst.rd] = static_cast<double>(a);
        break;
      case Opcode::FMov:
        fpRegs[inst.rd] = fpRegs[inst.rs1];
        break;

      case Opcode::Ld:
        mem_addr = ua + static_cast<uint64_t>(inst.imm);
        write_int(inst.rd, mem.read(mem_addr));
        break;
      case Opcode::St:
        mem_addr = ua + static_cast<uint64_t>(inst.imm);
        mem.write(mem_addr, b);
        break;
      case Opcode::FLd:
        mem_addr = ua + static_cast<uint64_t>(inst.imm);
        fpRegs[inst.rd] = mem.readDouble(mem_addr);
        break;
      case Opcode::FSt:
        mem_addr = ua + static_cast<uint64_t>(inst.imm);
        mem.writeDouble(mem_addr, fpRegs[inst.rs2]);
        break;

      case Opcode::Beq:
        taken = a == b;
        break;
      case Opcode::Bne:
        taken = a != b;
        break;
      case Opcode::Blt:
        taken = a < b;
        break;
      case Opcode::Bge:
        taken = a >= b;
        break;
      case Opcode::Jmp:
        taken = true;
        break;

      case Opcode::Nop:
        break;
      case Opcode::Halt:
        isHalted = true;
        break;
    }

    if (taken)
        next_pc = static_cast<uint64_t>(inst.imm);

    if constexpr (Warm) {
        if (hierarchy) {
            hierarchy->warmInst(Program::pcAddress(pc));
            if (inst.isLoad() || inst.isStore())
                hierarchy->warmData(mem_addr);
        }
        if (bp && inst.isControl()) {
            bp->warmUpdate(Program::pcAddress(pc), inst.isCondBranch(),
                           taken, Program::pcAddress(next_pc));
        }
    }

    if constexpr (MakeRecord) {
        record->inst = &inst;
        record->pc = pc;
        record->nextPc = next_pc;
        record->memAddr = mem_addr;
        record->taken = taken;
        record->trivial = trivial;
    }

    curPc = next_pc;
    ++icount;
}

bool
FunctionalSim::step(ExecRecord &record)
{
    if (isHalted)
        return false;
    execOne<true, false>(&record, nullptr, nullptr);
    return true;
}

uint64_t
FunctionalSim::stepBatch(ExecRecord *out, uint64_t n)
{
    uint64_t done = 0;
    while (done < n && !isHalted) {
        execOne<true, false>(&out[done], nullptr, nullptr);
        ++done;
    }
    return done;
}

uint64_t
FunctionalSim::fastForward(uint64_t count)
{
    // The halt flag only changes inside execOne, so the batch loop
    // needs no per-instruction re-entry check beyond it.
    uint64_t done = 0;
    while (done < count && !isHalted) {
        execOne<false, false>(nullptr, nullptr, nullptr);
        ++done;
    }
    return done;
}

uint64_t
FunctionalSim::fastForwardWarm(uint64_t count, MemoryHierarchy *hierarchy,
                               CombinedPredictor *bp)
{
    uint64_t done = 0;
    while (done < count && !isHalted) {
        execOne<false, true>(nullptr, hierarchy, bp);
        ++done;
    }
    return done;
}

} // namespace yasim
