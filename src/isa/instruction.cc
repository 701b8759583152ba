#include "isa/instruction.hh"

#include "support/logging.hh"

namespace yasim {

void
unreachableOpcode(Opcode op)
{
    panic("unreachable opcode %d", static_cast<int>(op));
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::Slt: return "slt";
      case Opcode::AddI: return "addi";
      case Opcode::AndI: return "andi";
      case Opcode::OrI: return "ori";
      case Opcode::XorI: return "xori";
      case Opcode::ShlI: return "shli";
      case Opcode::ShrI: return "shri";
      case Opcode::SltI: return "slti";
      case Opcode::MovI: return "movi";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::FAdd: return "fadd";
      case Opcode::FSub: return "fsub";
      case Opcode::FMul: return "fmul";
      case Opcode::FDiv: return "fdiv";
      case Opcode::FCvt: return "fcvt";
      case Opcode::FMov: return "fmov";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::FLd: return "fld";
      case Opcode::FSt: return "fst";
      case Opcode::Beq: return "beq";
      case Opcode::Bne: return "bne";
      case Opcode::Blt: return "blt";
      case Opcode::Bge: return "bge";
      case Opcode::Jmp: return "jmp";
      case Opcode::Nop: return "nop";
      case Opcode::Halt: return "halt";
    }
    return "???";
}

std::string
Instruction::toString() const
{
    std::string s = opcodeName(op);
    auto reg = [&](int r) {
        return (isFp() && op != Opcode::FCvt) ? "f" + std::to_string(r)
                                              : "r" + std::to_string(r);
    };
    if (rd != noReg)
        s += " " + reg(rd);
    if (rs1 != noReg)
        s += (rd != noReg ? ", " : " ") + reg(rs1);
    if (rs2 != noReg)
        s += ", " + reg(rs2);
    if (isControl() || imm != 0 || op == Opcode::MovI ||
        op == Opcode::AddI || isLoad() || isStore()) {
        s += ", " + std::to_string(imm);
    }
    return s;
}

} // namespace yasim
