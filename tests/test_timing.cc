/**
 * @file
 * Cycle-level timing and UPC-accounting tests: stall durations match
 * the 11/780 model, the monitor is passive, and every cycle lands in
 * exactly one histogram bucket with a valid classification.
 */

#include <gtest/gtest.h>

#include "tests/sim_test_util.hh"
#include "upc/analyzer.hh"

namespace vax::test
{

using Op = Operand;

namespace
{

/** Cycles to run an image to HALT (no monitor required). */
uint64_t
cyclesToHalt(Assembler &a, Cpu780 &cpu, UpcMonitor *mon = nullptr)
{
    auto image = a.finish();
    cpu.mem().setMapEnable(false);
    cpu.mem().phys().load(a.base(), image);
    if (mon)
        cpu.setCycleSink(mon);
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x20000);
    EXPECT_TRUE(cpu.run(1000000));
    return cpu.cycles();
}

} // anonymous namespace

TEST(Timing, ReadMissCostsPenaltyOverHit)
{
    // Two identical reads of the same longword: the first misses,
    // the second hits; their cycle difference is the miss penalty.
    auto build = [](bool twice) {
        auto a = std::make_unique<Assembler>(0x1000);
        a->instr(op::MOVL, {Op::imm(0x8000), Op::reg(R2)});
        a->instr(op::MOVL, {Op::regDef(R2), Op::reg(R1)});
        if (twice)
            a->instr(op::MOVL, {Op::regDef(R2), Op::reg(R1)});
        a->instr(op::HALT);
        return a;
    };
    Cpu780 c1, c2;
    auto a1 = build(false), a2 = build(true);
    uint64_t one = cyclesToHalt(*a1, c1);
    uint64_t two = cyclesToHalt(*a2, c2);
    // The second (hitting) read instruction adds hit-cost cycles only:
    // decode + spec read (2 cycles: issue+move) + store. No stall.
    uint64_t hit_cost = two - one;
    EXPECT_LE(hit_cost, 6u);

    // Now a version whose second read misses (different block, cold).
    Cpu780 c3;
    auto a3 = std::make_unique<Assembler>(0x1000);
    a3->instr(op::MOVL, {Op::imm(0x8000), Op::reg(R2)});
    a3->instr(op::MOVL, {Op::regDef(R2), Op::reg(R1)});
    a3->instr(op::MOVL, {Op::disp(0x100, R2), Op::reg(R1)});
    a3->instr(op::HALT);
    uint64_t miss = cyclesToHalt(*a3, c3);
    EXPECT_EQ(miss - two, c3.mem().config().readMissPenalty);
}

TEST(Timing, BackToBackWritesStall)
{
    // Two writes far apart in time don't stall; adjacent ones do.
    auto build = [](bool pad) {
        auto a = std::make_unique<Assembler>(0x1000);
        a->instr(op::MOVL, {Op::imm(0x8000), Op::reg(R2)});
        a->instr(op::MOVL, {Op::imm(1), Op::regDef(R2)});
        if (pad) {
            for (int i = 0; i < 8; ++i)
                a->instr(op::INCL, {Op::reg(R3)});
        }
        a->instr(op::MOVL, {Op::imm(2), Op::disp(4, R2)});
        if (!pad) {
            for (int i = 0; i < 8; ++i)
                a->instr(op::INCL, {Op::reg(R3)});
        }
        a->instr(op::HALT);
        return a;
    };
    Cpu780 c1, c2;
    auto a1 = build(true), a2 = build(false);
    uint64_t spaced = cyclesToHalt(*a1, c1);
    uint64_t adjacent = cyclesToHalt(*a2, c2);
    // Same instructions, different order: the adjacent version pays
    // write-buffer stalls.
    EXPECT_GT(adjacent, spaced);
    EXPECT_LE(adjacent - spaced, c2.mem().config().writeDrainCycles);
}

TEST(Timing, MonitorIsPassive)
{
    // Identical machines, one monitored: cycle-for-cycle identical.
    auto build = []() {
        auto a = std::make_unique<Assembler>(0x1000);
        a->instr(op::MOVL, {Op::imm(30), Op::reg(R3)});
        a->label("l");
        a->instr(op::ADDL2, {Op::rel("d"), Op::reg(R1)});
        a->instr(op::SOBGTR, {Op::reg(R3), Op::branch("l")});
        a->instr(op::HALT);
        a->align(4);
        a->label("d");
        a->lword(3);
        return a;
    };
    Cpu780 plain, monitored;
    UpcMonitor mon;
    auto a1 = build(), a2 = build();
    uint64_t c_plain = cyclesToHalt(*a1, plain);
    uint64_t c_mon = cyclesToHalt(*a2, monitored, &mon);
    EXPECT_EQ(c_plain, c_mon);
    EXPECT_EQ(plain.ebox().gpr(R1), monitored.ebox().gpr(R1));
    EXPECT_EQ(mon.histogram().cycles(), c_mon);
}

TEST(Timing, EveryCycleIsClassified)
{
    BareMachine m;
    auto &a = m.asmblr;
    // R7 survives MOVC3 (which clobbers R0-R5).
    a.instr(op::MOVL, {Op::imm(20), Op::reg(R7)});
    a.label("l");
    a.instr(op::MOVC3, {Op::imm(24), Op::rel("s"), Op::rel("d")});
    a.instr(op::CALLS, {Op::lit(0), Op::rel("p")});
    a.instr(op::SOBGTR, {Op::reg(R7), Op::branch("l")});
    a.instr(op::HALT);
    a.label("p");
    a.entryMask(1u << 2 | 1u << 3 | 1u << 4);
    a.instr(op::MULL2, {Op::imm(17), Op::reg(R2)});
    a.instr(op::RET);
    a.align(4);
    a.label("s");
    a.ascii("abcdefghijklmnopqrstuvwx");
    a.label("d");
    a.space(24);
    ASSERT_TRUE(m.run());

    // Row x column totals equal the machine's cycle count exactly
    // (the analyzer panics on any unclassifiable stall).
    HistogramAnalyzer an(m.cpu->controlStore(), m.monitor.histogram());
    EXPECT_EQ(an.totalCycles(), m.cpu->cycles());
    double sum = 0;
    for (unsigned r = 0; r < static_cast<unsigned>(Row::NumRows); ++r)
        sum += an.rowTotal(static_cast<Row>(r));
    EXPECT_NEAR(sum, an.cyclesPerInstruction(), 1e-9);
    double csum = 0;
    for (unsigned c = 0;
         c < static_cast<unsigned>(TimeCol::NumCols); ++c)
        csum += an.colTotal(static_cast<TimeCol>(c));
    EXPECT_NEAR(csum, an.cyclesPerInstruction(), 1e-9);
}

TEST(Timing, DecodeRowComputeIsExactlyOnePerInstruction)
{
    BareMachine m;
    auto &a = m.asmblr;
    for (int i = 0; i < 25; ++i)
        a.instr(op::ADDL2, {Op::lit(1), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    HistogramAnalyzer an(m.cpu->controlStore(), m.monitor.histogram());
    EXPECT_DOUBLE_EQ(an.cell(Row::Decode, TimeCol::Compute), 1.0);
}

TEST(Timing, ReadCountsMatchHardware)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(40), Op::reg(R3)});
    a.instr(op::MOVL, {Op::imm(0x9000), Op::reg(R2)});
    a.label("l");
    a.instr(op::MOVL, {Op::regDef(R2), Op::reg(R1)});
    a.instr(op::MOVL, {Op::reg(R1), Op::disp(0x80, R2)});
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch("l")});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    HistogramAnalyzer an(m.cpu->controlStore(), m.monitor.histogram());
    // Histogram-derived reads/writes equal the memory system's
    // hardware counts (every issued operation is one normal cycle of
    // a memory microword).
    uint64_t instr = an.instructions();
    EXPECT_EQ(static_cast<uint64_t>(
                  an.totalReadsPerInstr() * instr + 0.5),
              m.cpu->mem().dataReads());
    EXPECT_EQ(static_cast<uint64_t>(
                  an.totalWritesPerInstr() * instr + 0.5),
              m.cpu->mem().dataWrites());
}

TEST(Timing, TakenBranchCostsTwoExtraCycles)
{
    // Not-taken: 1 execute cycle.  Taken: bdisp fetch + redirect.
    auto build = [](bool taken) {
        auto a = std::make_unique<Assembler>(0x1000);
        a->instr(op::MOVL, {Op::imm(1), Op::reg(R1)});
        a->instr(op::TSTL, {Op::reg(R1)});
        // BNEQ taken, BEQL not taken (same shape).
        a->instr(taken ? op::BNEQ : op::BEQL,
                 {Op::branch("next")});
        a->label("next");
        a->instr(op::HALT);
        return a;
    };
    Cpu780 c1, c2;
    auto a1 = build(false), a2 = build(true);
    uint64_t nt = cyclesToHalt(*a1, c1);
    uint64_t tk = cyclesToHalt(*a2, c2);
    // Taken costs the B-DISP cycle + redirect cycle, plus refill
    // effects; branching to the next instruction refetches it.
    EXPECT_GT(tk, nt);
    EXPECT_LE(tk - nt, 8u);
}

TEST(Timing, MonitorGatingStopsCounting)
{
    BareMachine m;
    auto &a = m.asmblr;
    for (int i = 0; i < 10; ++i)
        a.instr(op::INCL, {Op::reg(R1)});
    a.instr(op::HALT);
    auto image = a.finish();
    m.cpu->mem().phys().load(a.base(), image);
    m.cpu->reset(a.base());
    m.cpu->ebox().setGpr(SP, 0x20000);
    m.monitor.stop();
    m.cpu->run(100000);
    EXPECT_EQ(m.monitor.histogram().cycles(), 0u);
    EXPECT_GT(m.cpu->cycles(), 0u);
}

TEST(Timing, AbortCyclesMatchMicrotraps)
{
    BareMachine m;
    auto &a = m.asmblr;
    // Unaligned accesses cause microtraps; each costs one abort cycle.
    a.instr(op::MOVL, {Op::imm(0x8001), Op::reg(R2)});
    a.instr(op::MOVL, {Op::imm(5), Op::regDef(R2)});
    a.instr(op::MOVL, {Op::regDef(R2), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    uint64_t aborts =
        m.monitor.normalCount(m.cpu->controlStore().entries.abort);
    EXPECT_EQ(aborts, m.cpu->hw().microTraps);
    EXPECT_GE(aborts, 2u);
}

} // namespace vax::test
