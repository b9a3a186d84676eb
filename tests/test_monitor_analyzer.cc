/**
 * @file
 * UPC monitor and analyzer unit tests: the Unibus command interface,
 * histogram accumulation, and analyzer classification rules on
 * synthetic histograms.
 */

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

namespace vax::test
{

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
