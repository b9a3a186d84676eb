/**
 * @file
 * Histogram analysis: reconstructs every metric of the paper from the
 * raw UPC histogram plus the static control-store annotations -- the
 * same inputs Emer & Clark had (counts + the microcode listings).
 *
 * The analyzer never looks at simulator internals; the hardware event
 * counters (cache misses, IB references) that the paper also could not
 * see through the UPC technique are reported separately by the bench
 * harness, clearly labelled as coming from the "separate study" path.
 */

#ifndef UPC780_UPC_ANALYZER_HH
#define UPC780_UPC_ANALYZER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "ucode/control_store.hh"
#include "upc/monitor.hh"

namespace vax
{

// TimeCol and the shared Row x TimeCol classification helper
// (timeColsFor) live in ucode/annotations.hh, next to Row, so the
// static verifier and this analyzer agree on one mapping.

class HistogramAnalyzer
{
  public:
    HistogramAnalyzer(const ControlStore &cs, const Histogram &hist);

    /** Instructions executed (count of the IID microword). */
    uint64_t instructions() const { return instructions_; }

    /** Total classified cycles. */
    uint64_t totalCycles() const { return totalCycles_; }

    double
    cyclesPerInstruction() const
    {
        return perInstr(totalCycles_);
    }

    // ---- Table 8 ----
    /** Cycles per average instruction at (row, col). */
    double cell(Row r, TimeCol c) const;
    double rowTotal(Row r) const;
    double colTotal(TimeCol c) const;

    /** Raw cycle count at (row, col) -- the integer quantity behind
     *  cell(), so conservation checks can sum without rounding. */
    uint64_t
    cellCycles(Row r, TimeCol c) const
    {
        return cycles_[static_cast<size_t>(r)][static_cast<size_t>(c)];
    }

    // ---- Table 1 ----
    /** Fraction of instructions in the given group. */
    double groupFraction(Group g) const;

    // ---- Table 2 ----
    /** Fraction of instructions in the given PC-changing class. */
    double pcChangeFraction(PcChangeKind k) const;
    /** Fraction of that class that actually changed the PC. */
    double takenFraction(PcChangeKind k) const;

    // ---- Table 3 ----
    double spec1PerInstr() const;
    double spec26PerInstr() const;
    double bdispPerInstr() const;

    // ---- Table 4 ----
    /** Share of specifiers (in the position class) in the category.
     *  pos: 0 = SPEC1, 1 = SPEC2-6, 2 = total. */
    double specCategoryFraction(SpecCategory cat, int pos) const;
    double indexedFraction(int pos) const;

    // ---- Table 5 ----
    double readsPerInstr(Row r) const;
    double writesPerInstr(Row r) const;
    double totalReadsPerInstr() const;
    double totalWritesPerInstr() const;

    // ---- Table 7 ----
    double headwaySwIntRequests() const;
    double headwayInterrupts() const;
    double headwayContextSwitches() const;

    // ---- Section 4.2 ----
    double tbMissPerInstr() const;
    double tbMissPerInstrD() const;
    double tbMissPerInstrI() const;
    double tbServiceCyclesPerMiss() const;
    double tbServiceStallPerMiss() const;

    // ---- Section 3.3 ----
    double unalignedPerInstr() const;

    /** Hottest control-store locations (microcode profiling). */
    struct HotSpot
    {
        UAddr addr;
        const char *name;
        uint64_t cycles;
    };
    std::vector<HotSpot> hottest(size_t n) const;

  private:
    double
    perInstr(double v) const
    {
        return instructions_ ? v / static_cast<double>(instructions_)
                             : 0.0;
    }

    void classify();

    const ControlStore &cs_;
    const Histogram &hist_;

    uint64_t instructions_ = 0;
    uint64_t totalCycles_ = 0;

    static constexpr size_t numRows = static_cast<size_t>(Row::NumRows);
    static constexpr size_t numCols =
        static_cast<size_t>(TimeCol::NumCols);
    std::array<std::array<uint64_t, numCols>, numRows> cycles_{};
    std::array<uint64_t, numRows> reads_{};
    std::array<uint64_t, numRows> writes_{};

    std::array<uint64_t, static_cast<size_t>(ExecFlow::NumFlows)>
        flowEntries_{};
    std::array<uint64_t,
               static_cast<size_t>(PcChangeKind::NumKinds)> taken_{};

    // [mode][pos] specifier-routine entry counts.
    uint64_t specEntries_[static_cast<size_t>(AddrMode::NumModes)][2] =
        {};
    uint64_t indexEntries_[2] = {};

    uint64_t swIntRequests_ = 0;
    uint64_t interrupts_ = 0;
    uint64_t contextSwitches_ = 0;
    uint64_t tbMissD_ = 0;
    uint64_t tbMissI_ = 0;
    uint64_t tbServiceCycles_ = 0;
    uint64_t tbServiceStalls_ = 0;
    uint64_t unaligned_ = 0;
};

} // namespace vax

#endif // UPC780_UPC_ANALYZER_HH
