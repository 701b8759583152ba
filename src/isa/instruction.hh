/**
 * @file
 * The yasim RISC instruction set.
 *
 * A small load/store architecture in the SimpleScalar/MIPS mould: 32
 * integer registers (r0 hardwired to zero), 32 floating-point registers,
 * 64-bit integer and double-precision FP data paths, byte-addressed
 * memory accessed through 8-byte loads and stores, and compare-and-branch
 * conditional control flow. It is deliberately minimal — just rich enough
 * that synthetic workloads exercise every functional-unit class, every
 * branch-predictor structure, and the trivial-computation patterns the
 * TC enhancement targets.
 */

#ifndef YASIM_ISA_INSTRUCTION_HH
#define YASIM_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

namespace yasim {

/** Number of architected integer registers (r0 reads as zero). */
constexpr int numIntRegs = 32;
/** Number of architected floating-point registers. */
constexpr int numFpRegs = 32;
/** Sentinel for "no register operand". */
constexpr int noReg = -1;
/** Bytes per instruction for I-cache/BTB addressing purposes. */
constexpr uint64_t instBytes = 4;
/** Base virtual address of the text segment. */
constexpr uint64_t textBase = 0x10000;

/** Operation codes. */
enum class Opcode : uint8_t
{
    // Integer ALU
    Add, Sub, And, Or, Xor, Shl, Shr, Slt,
    AddI, AndI, OrI, XorI, ShlI, ShrI, SltI, MovI,
    // Integer multiply/divide
    Mul, Div, Rem,
    // Floating point
    FAdd, FSub, FMul, FDiv, FCvt /* int reg -> fp reg */, FMov,
    // Memory
    Ld, St, FLd, FSt,
    // Control
    Beq, Bne, Blt, Bge, Jmp,
    // Misc
    Nop, Halt,
};

/** Functional-unit class an instruction executes on. */
enum class FuClass : uint8_t
{
    IntAlu,
    IntMult,
    IntDiv,
    FpAlu,
    FpMult,
    FpDiv,
    MemRead,
    MemWrite,
    Branch,
    None, // Nop/Halt
};

/**
 * One decoded instruction. Register fields index the integer file except
 * where the opcode dictates the FP file (FAdd..FMov use FP for all
 * register operands except FCvt's source and FLd/FSt's address base).
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    /** Destination register or noReg. */
    int rd = noReg;
    /** First source register or noReg. */
    int rs1 = noReg;
    /** Second source register or noReg. */
    int rs2 = noReg;
    /** Immediate: ALU constant, memory displacement, or branch target
     *  (absolute instruction index for branches and jumps). */
    int64_t imm = 0;

    // The predicates are defined inline below: the timing model and
    // the warming loops call several of them per instruction.

    /** True for conditional branches and unconditional jumps. */
    bool isControl() const;
    /** True for Beq/Bne/Blt/Bge only. */
    bool isCondBranch() const;
    /** True for Ld/FLd. */
    bool isLoad() const;
    /** True for St/FSt. */
    bool isStore() const;
    /** True when any register operand lives in the FP file. */
    bool isFp() const;
    /** True when rd names an FP register rather than an integer one. */
    bool writesFpReg() const;
    /** Functional-unit class for the timing model. */
    FuClass fuClass() const;
    /** Disassemble for debugging and traces. */
    std::string toString() const;
};

/** Printable opcode mnemonic. */
const char *opcodeName(Opcode op);

/** Panic on an opcode outside the enum (kept out of line). */
[[noreturn]] void unreachableOpcode(Opcode op);

inline bool
Instruction::isControl() const
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jmp:
        return true;
      default:
        return false;
    }
}

inline bool
Instruction::isCondBranch() const
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        return true;
      default:
        return false;
    }
}

inline bool
Instruction::isLoad() const
{
    return op == Opcode::Ld || op == Opcode::FLd;
}

inline bool
Instruction::isStore() const
{
    return op == Opcode::St || op == Opcode::FSt;
}

inline bool
Instruction::isFp() const
{
    switch (op) {
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FCvt:
      case Opcode::FMov:
      case Opcode::FLd:
      case Opcode::FSt:
        return true;
      default:
        return false;
    }
}

inline bool
Instruction::writesFpReg() const
{
    switch (op) {
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FCvt:
      case Opcode::FMov:
      case Opcode::FLd:
        return rd != noReg;
      default:
        return false;
    }
}

inline FuClass
Instruction::fuClass() const
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Slt:
      case Opcode::AddI:
      case Opcode::AndI:
      case Opcode::OrI:
      case Opcode::XorI:
      case Opcode::ShlI:
      case Opcode::ShrI:
      case Opcode::SltI:
      case Opcode::MovI:
        return FuClass::IntAlu;
      case Opcode::Mul:
        return FuClass::IntMult;
      case Opcode::Div:
      case Opcode::Rem:
        return FuClass::IntDiv;
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FCvt:
      case Opcode::FMov:
        return FuClass::FpAlu;
      case Opcode::FMul:
        return FuClass::FpMult;
      case Opcode::FDiv:
        return FuClass::FpDiv;
      case Opcode::Ld:
      case Opcode::FLd:
        return FuClass::MemRead;
      case Opcode::St:
      case Opcode::FSt:
        return FuClass::MemWrite;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jmp:
        return FuClass::Branch;
      case Opcode::Nop:
      case Opcode::Halt:
        return FuClass::None;
    }
    unreachableOpcode(op);
}

} // namespace yasim

#endif // YASIM_ISA_INSTRUCTION_HH
