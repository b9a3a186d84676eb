/**
 * @file
 * UPC monitor and analyzer unit tests: the Unibus command interface,
 * histogram accumulation, the EBOX's per-cycle counting into the
 * monitor's banks, and analyzer classification rules on synthetic
 * histograms.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "cpu/cpu.hh"
#include "support/trace.hh"
#include "tests/sim_test_util.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

namespace vax::test
{

// The attached EBOX holds raw pointers into a monitor's banks, so a
// board must never be copied or moved out from under it.
static_assert(!std::is_copy_constructible_v<UpcMonitor>);
static_assert(!std::is_copy_assignable_v<UpcMonitor>);
static_assert(!std::is_move_constructible_v<UpcMonitor>);
static_assert(!std::is_move_assignable_v<UpcMonitor>);

TEST(Monitor, CountsByBank)
{
    UpcMonitor m;
    m.count(10, false);
    m.count(10, false);
    m.count(10, true);
    EXPECT_EQ(m.normalCount(10), 2u);
    EXPECT_EQ(m.stalledCount(10), 1u);
    EXPECT_EQ(m.histogram().cycles(), 3u);
}

TEST(Monitor, UnibusCommands)
{
    UpcMonitor m;
    m.count(5, false);
    m.unibusWrite(UpcMonitor::cmdStop);
    EXPECT_FALSE(m.collecting());
    m.count(5, false);
    EXPECT_EQ(m.normalCount(5), 1u); // not counted while stopped
    m.unibusWrite(UpcMonitor::cmdStart);
    m.count(5, false);
    EXPECT_EQ(m.normalCount(5), 2u);
    m.unibusWrite(UpcMonitor::cmdClear);
    EXPECT_EQ(m.normalCount(5), 0u);
    EXPECT_EQ(m.histogram().cycles(), 0u);
}

TEST(Monitor, HistogramAccumulation)
{
    Histogram a, b;
    a.normal[3] = 7;
    a.stalled[3] = 2;
    b.normal[3] = 1;
    b.normal[9] = 5;
    a.add(b);
    EXPECT_EQ(a.normal[3], 8u);
    EXPECT_EQ(a.stalled[3], 2u);
    EXPECT_EQ(a.normal[9], 5u);
    EXPECT_EQ(a.cycles(), 15u);
}

// ============ MonitorCounting: the EBOX's one count path ============

namespace
{

/** An endless loop over a walking read and write, so normal, read-,
 *  write- and IB-stall cycles all recur. */
void
assembleWalk(Assembler &a)
{
    a.instr(op::MOVL, {Operand::imm(0x8000), Operand::reg(R2)});
    a.label("loop");
    a.instr(op::MOVL, {Operand::regDef(R2), Operand::reg(R3)});
    a.instr(op::MOVL, {Operand::reg(R3), Operand::disp(64, R2)});
    a.instr(op::ADDL2, {Operand::imm(256), Operand::reg(R2)});
    a.instr(op::BRW, {Operand::branch("loop")});
}

/** A halting version of the walk, 200 iterations. */
void
assembleFiniteWalk(Assembler &a)
{
    a.instr(op::MOVL, {Operand::imm(0x8000), Operand::reg(R2)});
    a.instr(op::MOVL, {Operand::imm(200), Operand::reg(R4)});
    a.label("loop");
    a.instr(op::MOVL, {Operand::regDef(R2), Operand::reg(R3)});
    a.instr(op::MOVL, {Operand::reg(R3), Operand::disp(64, R2)});
    a.instr(op::ADDL2, {Operand::imm(256), Operand::reg(R2)});
    a.instr(op::SOBGTR, {Operand::reg(R4), Operand::branch("loop")});
    a.instr(op::HALT);
}

void
tick(Cpu780 &cpu, int n)
{
    for (int i = 0; i < n; ++i)
        cpu.tick();
}

} // anonymous namespace

TEST(MonitorCounting, BanksEqualTheCycleCounterAfterEveryTick)
{
    BareMachine m;
    assembleWalk(m.asmblr);
    m.load();
    const Histogram &h = m.monitor.histogram();
    for (int i = 1; i <= 3000; ++i) {
        m.cpu->tick();
        ASSERT_EQ(h.cycles(), m.cpu->cycles()) << "after tick " << i;
    }
    // At several cycles per instruction most of those checks fell
    // mid-instruction, and the stalled bank was exercised.
    EXPECT_LT(3 * m.cpu->hw().instructions, m.cpu->cycles());
    EXPECT_GT(h.stalledCycles(), 0u);
}

TEST(MonitorCounting, CsrStopAndStartCountExactlyTheCollectingCycles)
{
    BareMachine m;
    assembleWalk(m.asmblr);
    m.load();
    // Irregular spans, so the CSR flips mid-instruction and mid-stall.
    const int spans[] = {37, 11, 250, 3, 1, 1, 120, 77, 5, 64};
    uint64_t expected = 0;
    bool on = true;
    for (int n : spans) {
        m.monitor.unibusWrite(on ? UpcMonitor::cmdStart
                                 : UpcMonitor::cmdStop);
        tick(*m.cpu, n);
        if (on)
            expected += n;
        EXPECT_EQ(m.monitor.histogram().cycles(), expected);
        on = !on;
    }
    // Stopped now; a clear wipes the earlier counts and a start
    // resumes counting from zero.
    ASSERT_FALSE(m.monitor.collecting());
    m.monitor.unibusWrite(UpcMonitor::cmdClear);
    tick(*m.cpu, 9);
    EXPECT_EQ(m.monitor.histogram().cycles(), 0u);
    m.monitor.unibusWrite(UpcMonitor::cmdStart);
    tick(*m.cpu, 13);
    EXPECT_EQ(m.monitor.histogram().cycles(), 13u);
}

TEST(MonitorCounting, StrictAndTracedRunsCountLikeThePlainRun)
{
    BareMachine plain;
    assembleFiniteWalk(plain.asmblr);
    ASSERT_TRUE(plain.run());

    SimConfig strict_cfg;
    strict_cfg.strict = true;
    BareMachine strict(0x1000, strict_cfg);
    ASSERT_TRUE(strict.cpu->ebox().flowCheck());
    assembleFiniteWalk(strict.asmblr);
    ASSERT_TRUE(strict.run());

    trace::BufferSink buf;
    BareMachine traced;
    assembleFiniteWalk(traced.asmblr);
    {
        struct RestoreMask
        {
            uint32_t saved = trace::g_mask;
            ~RestoreMask() { trace::g_mask = saved; }
        } restore;
        trace::ScopedSink scoped(&buf);
        trace::enableList("all");
        ASSERT_TRUE(traced.run());
    }
    EXPECT_NE(buf.text().find(":idecode: "), std::string::npos);

    const Histogram &want = plain.monitor.histogram();
    EXPECT_EQ(want.cycles(), plain.cpu->cycles());
    for (const BareMachine *m : {&strict, &traced}) {
        EXPECT_EQ(m->cpu->cycles(), plain.cpu->cycles());
        EXPECT_EQ(m->monitor.histogram().normal, want.normal);
        EXPECT_EQ(m->monitor.histogram().stalled, want.stalled);
    }
}

TEST(MonitorCounting, MonitorDestroyedBeforeItsMachine)
{
    BareMachine m;
    assembleWalk(m.asmblr);
    m.load();
    auto mon = std::make_unique<UpcMonitor>();
    m.cpu->setCycleSink(mon.get());
    tick(*m.cpu, 500);
    EXPECT_EQ(mon->histogram().cycles(), 500u);
    // The dying board detaches itself: the EBOX must not touch its
    // freed banks (ASan reports a use after free if it does).
    mon.reset();
    tick(*m.cpu, 500);
    EXPECT_EQ(m.cpu->cycles(), 1000u);
    EXPECT_EQ(m.monitor.histogram().cycles(), 0u);
}

TEST(MonitorCounting, SecondMonitorTakesOverTheCounting)
{
    BareMachine m;
    assembleWalk(m.asmblr);
    m.load();
    tick(*m.cpu, 100);
    UpcMonitor second;
    m.cpu->setCycleSink(&second);
    tick(*m.cpu, 50);
    EXPECT_EQ(m.monitor.histogram().cycles(), 100u);
    EXPECT_EQ(second.histogram().cycles(), 50u);
    // The first board's CSR no longer steers this machine: stopping
    // it does not stop the counting, and starting it does not bring
    // the counts back.
    m.monitor.unibusWrite(UpcMonitor::cmdStop);
    tick(*m.cpu, 10);
    m.monitor.unibusWrite(UpcMonitor::cmdStart);
    tick(*m.cpu, 10);
    EXPECT_EQ(m.monitor.histogram().cycles(), 100u);
    EXPECT_EQ(second.histogram().cycles(), 70u);
    // Attaching the board to another machine detaches it from this
    // one, which then counts nowhere.
    Cpu780 other;
    other.setCycleSink(&second);
    tick(*m.cpu, 10);
    EXPECT_EQ(second.histogram().cycles(), 70u);
}

class AnalyzerSyntheticTest : public ::testing::Test
{
  protected:
    AnalyzerSyntheticTest()
    {
        cs = &cpu.controlStore();
    }

    /** Find a control-store address by annotation name. */
    UAddr
    addrOf(const char *name) const
    {
        for (UAddr a = 0; a < cs->size(); ++a) {
            if (std::string(cs->annotation(a).name) == name)
                return a;
        }
        ADD_FAILURE() << "no microword named " << name;
        return 0;
    }

    Cpu780 cpu;
    const ControlStore *cs = nullptr;
    Histogram hist;
};

TEST_F(AnalyzerSyntheticTest, InstructionCountFromIid)
{
    hist.normal[cs->entries.iid] = 1000;
    HistogramAnalyzer an(*cs, hist);
    EXPECT_EQ(an.instructions(), 1000u);
    EXPECT_DOUBLE_EQ(an.cell(Row::Decode, TimeCol::Compute), 1.0);
}

TEST_F(AnalyzerSyntheticTest, IbStallClassification)
{
    hist.normal[cs->entries.iid] = 100;
    hist.stalled[cs->entries.iid] = 60;
    HistogramAnalyzer an(*cs, hist);
    EXPECT_DOUBLE_EQ(an.cell(Row::Decode, TimeCol::IbStall), 0.6);
    EXPECT_DOUBLE_EQ(an.colTotal(TimeCol::IbStall), 0.6);
}

TEST_F(AnalyzerSyntheticTest, ReadAndStallColumns)
{
    hist.normal[cs->entries.iid] = 100;
    UAddr rd = addrOf("SPEC1.(Rn).r");
    hist.normal[rd] = 50;
    hist.stalled[rd] = 30;
    HistogramAnalyzer an(*cs, hist);
    EXPECT_DOUBLE_EQ(an.cell(Row::Spec1, TimeCol::Read), 0.5);
    EXPECT_DOUBLE_EQ(an.cell(Row::Spec1, TimeCol::RStall), 0.3);
    EXPECT_DOUBLE_EQ(an.readsPerInstr(Row::Spec1), 0.5);
}

TEST_F(AnalyzerSyntheticTest, StallAtPlainWordPanics)
{
    hist.normal[cs->entries.iid] = 10;
    // A stall recorded at a compute-only, non-IB microword is a
    // simulator bug; the analyzer must catch it.
    UAddr plain = addrOf("NOP");
    hist.stalled[plain] = 1;
    EXPECT_DEATH({ HistogramAnalyzer an(*cs, hist); (void)an; },
                 "stalled cycles");
}

TEST_F(AnalyzerSyntheticTest, GroupFrequenciesFromFlowEntries)
{
    hist.normal[cs->entries.iid] = 100;
    hist.normal[cs->entries.exec[static_cast<size_t>(
        ExecFlow::Mov)]] = 60;
    hist.normal[cs->entries.exec[static_cast<size_t>(
        ExecFlow::MovC3)]] = 40;
    HistogramAnalyzer an(*cs, hist);
    EXPECT_DOUBLE_EQ(an.groupFraction(Group::Simple), 0.6);
    EXPECT_DOUBLE_EQ(an.groupFraction(Group::Character), 0.4);
}

TEST_F(AnalyzerSyntheticTest, TakenFractions)
{
    hist.normal[cs->entries.iid] = 100;
    hist.normal[cs->entries.exec[static_cast<size_t>(
        ExecFlow::BCond)]] = 40;
    hist.normal[addrOf("BCOND.taken")] = 25;
    HistogramAnalyzer an(*cs, hist);
    EXPECT_DOUBLE_EQ(an.pcChangeFraction(PcChangeKind::SimpleCond),
                     0.4);
    EXPECT_DOUBLE_EQ(an.takenFraction(PcChangeKind::SimpleCond),
                     0.625);
    // Unconditional kinds report 100% without a marker.
    hist.normal[cs->entries.exec[static_cast<size_t>(
        ExecFlow::Jmp)]] = 10;
    HistogramAnalyzer an2(*cs, hist);
    EXPECT_DOUBLE_EQ(an2.takenFraction(PcChangeKind::Uncond), 1.0);
}

TEST_F(AnalyzerSyntheticTest, SpecifierPositionAccounting)
{
    hist.normal[cs->entries.iid] = 100;
    // 30 register SPEC1 entries, 20 register SPEC2-6 entries,
    // 10 indexed first specifiers (index word + SPEC2-6 base entry).
    hist.normal[cs->entries.spec[static_cast<size_t>(
        AddrMode::Register)][0][0]] = 30;
    hist.normal[cs->entries.spec[static_cast<size_t>(
        AddrMode::Register)][1][0]] = 20;
    hist.normal[cs->entries.indexPrefix[0]] = 10;
    hist.normal[cs->entries.spec[static_cast<size_t>(
        AddrMode::ByteDisp)][1][0]] = 10; // their base processing
    HistogramAnalyzer an(*cs, hist);
    EXPECT_DOUBLE_EQ(an.spec1PerInstr(), 0.40);  // 30 + 10 indexed
    EXPECT_DOUBLE_EQ(an.spec26PerInstr(), 0.20); // 30 - 10 routed
    EXPECT_NEAR(an.indexedFraction(2), 10.0 / 60.0, 1e-9);
}

TEST_F(AnalyzerSyntheticTest, HeadwaysFromMarks)
{
    hist.normal[cs->entries.iid] = 6000;
    hist.normal[cs->entries.interrupt] = 10;
    hist.normal[addrOf("LDPCTX")] = 2;
    hist.normal[addrOf("MTPR.sirr")] = 3;
    HistogramAnalyzer an(*cs, hist);
    EXPECT_DOUBLE_EQ(an.headwayInterrupts(), 600.0);
    EXPECT_DOUBLE_EQ(an.headwayContextSwitches(), 3000.0);
    EXPECT_DOUBLE_EQ(an.headwaySwIntRequests(), 2000.0);
}

TEST_F(AnalyzerSyntheticTest, TbMissAccounting)
{
    hist.normal[cs->entries.iid] = 1000;
    hist.normal[cs->entries.tbMissD] = 20;
    hist.normal[cs->entries.tbMissI] = 10;
    // Service cycles spread over the MemMgmt row.
    hist.normal[addrOf("MM.pteread")] = 20;
    hist.stalled[addrOf("MM.pteread")] = 70;
    HistogramAnalyzer an(*cs, hist);
    EXPECT_DOUBLE_EQ(an.tbMissPerInstr(), 0.03);
    EXPECT_DOUBLE_EQ(an.tbMissPerInstrD(), 0.02);
    EXPECT_DOUBLE_EQ(an.tbMissPerInstrI(), 0.01);
    // 30 entry cycles + 90 pteread cycles over 30 misses = 4.
    EXPECT_DOUBLE_EQ(an.tbServiceCyclesPerMiss(), 4.0);
    EXPECT_NEAR(an.tbServiceStallPerMiss(), 70.0 / 30.0, 1e-9);
}

TEST_F(AnalyzerSyntheticTest, HottestSorted)
{
    UAddr rd = addrOf("SPEC1.(Rn).r");
    hist.normal[cs->entries.iid] = 100;
    hist.normal[rd] = 300;
    hist.stalled[rd] = 50;
    hist.normal[addrOf("NOP")] = 200;
    HistogramAnalyzer an(*cs, hist);
    auto hot = an.hottest(2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].addr, rd);
    EXPECT_EQ(hot[0].cycles, 350u);
    EXPECT_EQ(hot[1].addr, addrOf("NOP"));
}

TEST(ControlStoreLayout, FitsHistogramBoard)
{
    Cpu780 cpu;
    EXPECT_LE(cpu.controlStore().size(), ControlStore::capacity);
    EXPECT_GT(cpu.controlStore().size(), 400u);
    // Every implemented opcode has a live execute entry.
    for (unsigned i = 0; i < 256; ++i) {
        const OpcodeInfo &info = opcodeInfo(static_cast<uint8_t>(i));
        if (!info.valid)
            continue;
        EXPECT_NE(cpu.controlStore().entries.exec[static_cast<size_t>(
                      info.flow)],
                  kInvalidUAddr)
            << info.mnemonic;
    }
}

TEST(ControlStoreLayout, MachinesShareOneRom)
{
    Cpu780 a, b;
    EXPECT_EQ(&a.controlStore(), &microcodeRom());
    EXPECT_EQ(&b.controlStore(), &microcodeRom());
}

TEST(ControlStoreLayout, AnnotationsComplete)
{
    Cpu780 cpu;
    const ControlStore &cs = cpu.controlStore();
    for (UAddr a = 0; a < cs.size(); ++a) {
        const UAnnotation &ann = cs.annotation(a);
        EXPECT_LT(static_cast<unsigned>(ann.row),
                  static_cast<unsigned>(Row::NumRows));
        EXPECT_NE(ann.name, nullptr);
        EXPECT_NE(std::string(ann.name), "");
        // Stalled cycles must be classifiable: a stall can only occur
        // at a word that references memory or requests IB bytes.
        // (Displacement-mode read words do both; their stalled bank
        // is attributed to the memory column, a two-bank limitation
        // the real monitor shared.)
        if (ann.row == Row::Abort) {
            EXPECT_EQ(ann.mem, UMemKind::None) << ann.name;
        }
    }
}

} // namespace vax::test
