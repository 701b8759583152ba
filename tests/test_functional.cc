/** @file Tests for the functional simulator, memory, and TC detection. */

#include <gtest/gtest.h>

#include "isa/program_builder.hh"
#include "sim/functional.hh"
#include "sim/memory.hh"
#include "sim/trivial.hh"

namespace yasim {
namespace {

TEST(SparseMemory, ReadsZeroWhenUntouched)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read(heapBase), 0);
    EXPECT_EQ(mem.read(heapBase + 0x123450), 0);
    EXPECT_EQ(mem.readDouble(heapBase + 0x230000), 0.0);
    // Reads of unwritten memory allocate nothing.
    EXPECT_EQ(mem.pagesTouched(), 0u);
}

TEST(SparseMemory, UnwrittenPageReadBetweenWritesKeepsBothValues)
{
    // A read of an unwritten page must not disturb the page the writes
    // go to.
    SparseMemory mem;
    mem.write(heapBase, 11);
    EXPECT_EQ(mem.read(heapBase + 0x500000), 0);
    mem.write(heapBase + 8, 22);
    EXPECT_EQ(mem.read(heapBase), 11);
    EXPECT_EQ(mem.read(heapBase + 8), 22);
    EXPECT_EQ(mem.pagesTouched(), 1u);
}

TEST(SparseMemory, ReadBack)
{
    SparseMemory mem;
    mem.write(heapBase, 42);
    mem.write(heapBase + 8, -7);
    EXPECT_EQ(mem.read(heapBase), 42);
    EXPECT_EQ(mem.read(heapBase + 8), -7);
}

TEST(SparseMemory, CrossPageAccesses)
{
    SparseMemory mem;
    const uint64_t far_apart[] = {0x0, 0x10000, 0x20000000, 0x7fff0000};
    for (uint64_t a : far_apart)
        mem.write(a, static_cast<int64_t>(a + 1));
    for (uint64_t a : far_apart)
        EXPECT_EQ(mem.read(a), static_cast<int64_t>(a + 1));
    EXPECT_GE(mem.pagesTouched(), 4u);
}

TEST(SparseMemory, DoubleRoundTrip)
{
    SparseMemory mem;
    mem.writeDouble(heapBase, 3.14159);
    EXPECT_DOUBLE_EQ(mem.readDouble(heapBase), 3.14159);
}

TEST(SparseMemory, ClearForgets)
{
    SparseMemory mem;
    mem.write(heapBase, 1);
    mem.clear();
    EXPECT_EQ(mem.read(heapBase), 0);
}

TEST(Functional, ArithmeticSemantics)
{
    ProgramBuilder b("t");
    b.movi(1, 6);
    b.movi(2, 7);
    b.mul(3, 1, 2);   // 42
    b.add(4, 3, 1);   // 48
    b.sub(5, 4, 2);   // 41
    b.div(6, 3, 2);   // 6
    b.rem(7, 3, 1);   // 0
    b.xor_(8, 1, 2);  // 1
    b.shli(9, 1, 2);  // 24
    b.slt(10, 1, 2);  // 1
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    ExecRecord rec;
    while (sim.step(rec)) {
    }
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.intReg(3), 42);
    EXPECT_EQ(sim.intReg(4), 48);
    EXPECT_EQ(sim.intReg(5), 41);
    EXPECT_EQ(sim.intReg(6), 6);
    EXPECT_EQ(sim.intReg(7), 0);
    EXPECT_EQ(sim.intReg(8), 1);
    EXPECT_EQ(sim.intReg(9), 24);
    EXPECT_EQ(sim.intReg(10), 1);
}

TEST(Functional, RegisterZeroIsHardwired)
{
    ProgramBuilder b("t");
    b.movi(0, 99); // write to r0 must be discarded
    b.add(1, 0, 0);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    sim.fastForward(10);
    EXPECT_EQ(sim.intReg(0), 0);
    EXPECT_EQ(sim.intReg(1), 0);
}

TEST(Functional, DivisionByZeroYieldsZero)
{
    ProgramBuilder b("t");
    b.movi(1, 5);
    b.div(2, 1, 0);
    b.rem(3, 1, 0);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    sim.fastForward(10);
    EXPECT_EQ(sim.intReg(2), 0);
    EXPECT_EQ(sim.intReg(3), 0);
}

TEST(Functional, LoadStoreRoundTrip)
{
    ProgramBuilder b("t");
    b.movi(1, static_cast<int64_t>(heapBase));
    b.movi(2, 1234);
    b.st(1, 2, 16);
    b.ld(3, 1, 16);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    ExecRecord rec;
    sim.step(rec);
    sim.step(rec);
    sim.step(rec); // store
    EXPECT_EQ(rec.memAddr, heapBase + 16);
    sim.step(rec); // load
    EXPECT_EQ(rec.memAddr, heapBase + 16);
    EXPECT_TRUE(rec.inst->isLoad());
    sim.step(rec);
    EXPECT_EQ(sim.intReg(3), 1234);
}

TEST(Functional, FpPipeline)
{
    ProgramBuilder b("t");
    b.movi(1, 3);
    b.movi(2, 4);
    b.fcvt(1, 1); // f1 = 3.0
    b.fcvt(2, 2); // f2 = 4.0
    b.fmul(3, 1, 2);
    b.fadd(4, 3, 1);
    b.fdiv(5, 4, 2);
    b.movi(3, static_cast<int64_t>(heapBase));
    b.fst(3, 5, 0);
    b.fld(6, 3, 0);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    sim.fastForward(100);
    EXPECT_DOUBLE_EQ(sim.fpReg(3), 12.0);
    EXPECT_DOUBLE_EQ(sim.fpReg(4), 15.0);
    EXPECT_DOUBLE_EQ(sim.fpReg(5), 3.75);
    EXPECT_DOUBLE_EQ(sim.fpReg(6), 3.75);
}

TEST(Functional, BranchTakenAndNotTaken)
{
    ProgramBuilder b("t");
    Label skip = b.newLabel();
    Label end = b.newLabel();
    b.movi(1, 1);
    b.beq(1, 0, skip); // not taken
    b.movi(2, 10);
    b.jmp(end); // taken
    b.bind(skip);
    b.movi(2, 20);
    b.bind(end);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    ExecRecord rec;
    sim.step(rec);
    sim.step(rec);
    EXPECT_FALSE(rec.taken);
    EXPECT_EQ(rec.nextPc, 2u);
    sim.step(rec); // movi 10
    sim.step(rec); // jmp
    EXPECT_TRUE(rec.taken);
    sim.fastForward(10);
    EXPECT_EQ(sim.intReg(2), 10);
}

TEST(Functional, LoopExecutesExactTripCount)
{
    ProgramBuilder b("t");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, 100);
    b.bind(top);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    uint64_t n = sim.fastForward(~0ULL);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.intReg(1), 100);
    // 2 setup + 100 * 2 loop body + 1 halt.
    EXPECT_EQ(n, 2 + 200 + 1u);
    EXPECT_EQ(sim.instsExecuted(), n);
}

TEST(Functional, StepAndFastForwardAgree)
{
    auto build = [] {
        ProgramBuilder b("t");
        Label top = b.newLabel();
        b.movi(1, 0);
        b.movi(2, 50);
        b.movi(3, static_cast<int64_t>(heapBase));
        b.bind(top);
        b.st(3, 1, 0);
        b.ld(4, 3, 0);
        b.add(5, 5, 4);
        b.addi(1, 1, 1);
        b.blt(1, 2, top);
        b.halt();
        return b.finish();
    };
    Program p1 = build(), p2 = build();
    FunctionalSim stepper(p1), skipper(p2);
    ExecRecord rec;
    while (stepper.step(rec)) {
    }
    skipper.fastForward(~0ULL);
    EXPECT_EQ(stepper.instsExecuted(), skipper.instsExecuted());
    for (int r = 0; r < numIntRegs; ++r)
        EXPECT_EQ(stepper.intReg(r), skipper.intReg(r)) << "r" << r;
}

TEST(Functional, HaltStopsExecution)
{
    ProgramBuilder b("t");
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    ExecRecord rec;
    EXPECT_TRUE(sim.step(rec));
    EXPECT_TRUE(sim.halted());
    EXPECT_FALSE(sim.step(rec));
    EXPECT_EQ(sim.fastForward(10), 0u);
}

TEST(Trivial, IntegerRules)
{
    EXPECT_TRUE(isTrivialInt(Opcode::Add, 0, 5));
    EXPECT_TRUE(isTrivialInt(Opcode::Add, 5, 0));
    EXPECT_FALSE(isTrivialInt(Opcode::Add, 2, 3));
    EXPECT_TRUE(isTrivialInt(Opcode::Mul, 1, 9));
    EXPECT_TRUE(isTrivialInt(Opcode::Mul, 9, 0));
    EXPECT_FALSE(isTrivialInt(Opcode::Mul, 2, 3));
    EXPECT_TRUE(isTrivialInt(Opcode::Div, 9, 1));
    EXPECT_TRUE(isTrivialInt(Opcode::Div, 7, 7));
    EXPECT_FALSE(isTrivialInt(Opcode::Div, 7, 2));
    EXPECT_TRUE(isTrivialInt(Opcode::Sub, 4, 4));
    EXPECT_TRUE(isTrivialInt(Opcode::Xor, 3, 3));
    EXPECT_FALSE(isTrivialInt(Opcode::Slt, 0, 0)); // not a TC target
}

TEST(Trivial, FpRules)
{
    EXPECT_TRUE(isTrivialFp(Opcode::FMul, 1.0, 2.5));
    EXPECT_TRUE(isTrivialFp(Opcode::FMul, 2.5, 0.0));
    EXPECT_FALSE(isTrivialFp(Opcode::FMul, 2.0, 3.0));
    EXPECT_TRUE(isTrivialFp(Opcode::FDiv, 5.0, 1.0));
    EXPECT_TRUE(isTrivialFp(Opcode::FAdd, 0.0, 7.0));
    EXPECT_FALSE(isTrivialFp(Opcode::FSub, 1.0, 2.0));
}

TEST(Functional, TrivialFlagInRecords)
{
    ProgramBuilder b("t");
    b.movi(1, 5);
    b.movi(2, 1);
    b.mul(3, 1, 2); // x * 1: trivial
    b.mul(4, 1, 1); // 5 * 5: not trivial
    b.halt();
    Program prog_sim = b.finish();
    FunctionalSim sim(prog_sim);
    ExecRecord rec;
    sim.step(rec);
    sim.step(rec);
    sim.step(rec);
    EXPECT_TRUE(rec.trivial);
    sim.step(rec);
    EXPECT_FALSE(rec.trivial);
}

} // namespace
} // namespace yasim
