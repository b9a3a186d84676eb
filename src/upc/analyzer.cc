#include "upc/analyzer.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace vax
{

namespace
{

/** PC-changing class of a flow (mirrors the opcode table). */
PcChangeKind
flowPck(ExecFlow f)
{
    switch (f) {
      case ExecFlow::BCond:    return PcChangeKind::SimpleCond;
      case ExecFlow::Sob:
      case ExecFlow::Aob:
      case ExecFlow::Acb:      return PcChangeKind::LoopBranch;
      case ExecFlow::Blb:      return PcChangeKind::LowBitTest;
      case ExecFlow::Bsb:
      case ExecFlow::Jsb:
      case ExecFlow::Rsb:      return PcChangeKind::SubrCallRet;
      case ExecFlow::Jmp:      return PcChangeKind::Uncond;
      case ExecFlow::Case:     return PcChangeKind::CaseBranch;
      case ExecFlow::BitBr:
      case ExecFlow::BitBrMod: return PcChangeKind::BitBranch;
      case ExecFlow::CallG:
      case ExecFlow::CallS:
      case ExecFlow::Ret:      return PcChangeKind::ProcCallRet;
      case ExecFlow::Chmk:
      case ExecFlow::Rei:      return PcChangeKind::SystemBr;
      default:                 return PcChangeKind::None;
    }
}

/** Classes whose members branch unconditionally (taken == entered). */
bool
alwaysTaken(PcChangeKind k)
{
    switch (k) {
      case PcChangeKind::SubrCallRet:
      case PcChangeKind::Uncond:
      case PcChangeKind::CaseBranch:
      case PcChangeKind::ProcCallRet:
      case PcChangeKind::SystemBr:
        return true;
      default:
        return false;
    }
}

/** Flows whose instructions carry a branch displacement field. */
bool
flowHasBdisp(ExecFlow f)
{
    switch (f) {
      case ExecFlow::BCond:
      case ExecFlow::Sob:
      case ExecFlow::Aob:
      case ExecFlow::Acb:
      case ExecFlow::Blb:
      case ExecFlow::Bsb:
      case ExecFlow::BitBr:
      case ExecFlow::BitBrMod:
        return true;
      default:
        return false;
    }
}

bool
isAlignmentWord(const UAnnotation &a)
{
    return a.row == Row::MemMgmt &&
        std::strncmp(a.name, "MM.align", 8) == 0;
}

} // anonymous namespace

HistogramAnalyzer::HistogramAnalyzer(const ControlStore &cs,
                                     const Histogram &hist)
    : cs_(cs), hist_(hist)
{
    classify();
}

void
HistogramAnalyzer::classify()
{
    for (UAddr a = 0; a < cs_.size(); ++a) {
        uint64_t n = hist_.normal[a];
        uint64_t s = hist_.stalled[a];
        // Everything below adds n or s; a word that never ran adds
        // nothing (a short run touches a few dozen of the words).
        if (!n && !s)
            continue;
        const UAnnotation &ann = cs_.annotation(a);
        size_t row = static_cast<size_t>(ann.row);

        // Classify cycles into the Table 8 columns via the shared
        // Row x TimeCol mapping (ucode/annotations.hh), the same one
        // the static verifier proves total over the reachable store.
        TimeColPair cols = timeColsFor(ann);
        cycles_[row][static_cast<size_t>(cols.normal)] += n;
        if (s) {
            if (!cols.stallLegal) {
                panic("stalled cycles at %s, which neither references "
                      "memory nor requests IB bytes", ann.name);
            }
            cycles_[row][static_cast<size_t>(cols.stalled)] += s;
        }
        totalCycles_ += n + s;

        // Memory operations per row (Table 5): every normal cycle of
        // a memory microword is one reference.
        if (ann.mem == UMemKind::Read)
            reads_[row] += n;
        else if (ann.mem == UMemKind::Write)
            writes_[row] += n;

        if (ann.row == Row::MemMgmt && !isAlignmentWord(ann)) {
            tbServiceCycles_ += n + s;
            tbServiceStalls_ += s;
        }

        // Event marks.
        switch (ann.mark) {
          case UMark::Iid:
            instructions_ += n;
            break;
          case UMark::SpecModeEntry:
            specEntries_[static_cast<size_t>(ann.specMode)]
                [ann.spec1 ? 0 : 1] += n;
            break;
          case UMark::SpecIndexed:
            indexEntries_[ann.spec1 ? 0 : 1] += n;
            break;
          case UMark::ExecEntry:
            flowEntries_[static_cast<size_t>(ann.flow)] += n;
            break;
          case UMark::CtxSwitch:
            // LDPCTX: both the flow entry and the context switch.
            flowEntries_[static_cast<size_t>(ann.flow)] += n;
            contextSwitches_ += n;
            break;
          case UMark::BranchTaken:
            taken_[static_cast<size_t>(ann.pck)] += n;
            break;
          case UMark::SwIntRequest:
            swIntRequests_ += n;
            break;
          case UMark::InterruptEntry:
            interrupts_ += n;
            break;
          case UMark::TbMissD:
            tbMissD_ += n;
            break;
          case UMark::TbMissI:
            tbMissI_ += n;
            break;
          case UMark::UnalignedEntry:
            unaligned_ += n;
            break;
          default:
            break;
        }
    }
}

double
HistogramAnalyzer::cell(Row r, TimeCol c) const
{
    return perInstr(static_cast<double>(
        cycles_[static_cast<size_t>(r)][static_cast<size_t>(c)]));
}

double
HistogramAnalyzer::rowTotal(Row r) const
{
    uint64_t sum = 0;
    for (size_t c = 0; c < numCols; ++c)
        sum += cycles_[static_cast<size_t>(r)][c];
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::colTotal(TimeCol c) const
{
    uint64_t sum = 0;
    for (size_t r = 0; r < numRows; ++r)
        sum += cycles_[r][static_cast<size_t>(c)];
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::groupFraction(Group g) const
{
    uint64_t sum = 0;
    const auto &table = opcodeTable();
    // Collect the flows belonging to the group once.
    std::array<bool, static_cast<size_t>(ExecFlow::NumFlows)> in{};
    for (const auto &info : table)
        if (info.valid && info.group == g)
            in[static_cast<size_t>(info.flow)] = true;
    for (size_t f = 0; f < in.size(); ++f)
        if (in[f])
            sum += flowEntries_[f];
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::pcChangeFraction(PcChangeKind k) const
{
    uint64_t sum = 0;
    for (size_t f = 0;
         f < static_cast<size_t>(ExecFlow::NumFlows); ++f) {
        if (flowPck(static_cast<ExecFlow>(f)) == k)
            sum += flowEntries_[f];
    }
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::takenFraction(PcChangeKind k) const
{
    double entered = pcChangeFraction(k);
    if (entered == 0.0)
        return 0.0;
    if (alwaysTaken(k))
        return 1.0;
    double took = perInstr(
        static_cast<double>(taken_[static_cast<size_t>(k)]));
    return took / entered;
}

double
HistogramAnalyzer::spec1PerInstr() const
{
    // Indexed first specifiers dispatch through the SPEC1 index word
    // but are processed by the SPEC2-6 base routine (microcode
    // sharing); count them as first specifiers here.
    uint64_t sum = indexEntries_[0];
    for (size_t m = 0;
         m < static_cast<size_t>(AddrMode::NumModes); ++m)
        sum += specEntries_[m][0];
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::spec26PerInstr() const
{
    uint64_t sum = 0;
    for (size_t m = 0;
         m < static_cast<size_t>(AddrMode::NumModes); ++m)
        sum += specEntries_[m][1];
    // Subtract the indexed first specifiers routed into the SPEC2-6
    // base routines.
    sum -= indexEntries_[0];
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::bdispPerInstr() const
{
    uint64_t sum = 0;
    for (size_t f = 0;
         f < static_cast<size_t>(ExecFlow::NumFlows); ++f) {
        if (flowHasBdisp(static_cast<ExecFlow>(f)))
            sum += flowEntries_[f];
    }
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::specCategoryFraction(SpecCategory cat, int pos) const
{
    uint64_t in_cat = 0;
    uint64_t total = 0;
    for (size_t m = 0;
         m < static_cast<size_t>(AddrMode::NumModes); ++m) {
        SpecCategory c = specCategory(static_cast<AddrMode>(m));
        for (int p = 0; p < 2; ++p) {
            if (pos != 2 && p != pos)
                continue;
            total += specEntries_[m][p];
            if (c == cat)
                in_cat += specEntries_[m][p];
        }
    }
    return total ? static_cast<double>(in_cat) / total : 0.0;
}

double
HistogramAnalyzer::indexedFraction(int pos) const
{
    uint64_t idx = 0;
    uint64_t total = 0;
    for (int p = 0; p < 2; ++p) {
        if (pos != 2 && p != pos)
            continue;
        idx += indexEntries_[p];
    }
    for (size_t m = 0;
         m < static_cast<size_t>(AddrMode::NumModes); ++m) {
        for (int p = 0; p < 2; ++p) {
            if (pos != 2 && p != pos)
                continue;
            total += specEntries_[m][p];
        }
    }
    // Indexed specifiers pass through both the index word and a base
    // routine entry, so the base-entry total already includes them.
    return total ? static_cast<double>(idx) / total : 0.0;
}

double
HistogramAnalyzer::readsPerInstr(Row r) const
{
    return perInstr(
        static_cast<double>(reads_[static_cast<size_t>(r)]));
}

double
HistogramAnalyzer::writesPerInstr(Row r) const
{
    return perInstr(
        static_cast<double>(writes_[static_cast<size_t>(r)]));
}

double
HistogramAnalyzer::totalReadsPerInstr() const
{
    uint64_t sum = 0;
    for (size_t r = 0; r < numRows; ++r)
        sum += reads_[r];
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::totalWritesPerInstr() const
{
    uint64_t sum = 0;
    for (size_t r = 0; r < numRows; ++r)
        sum += writes_[r];
    return perInstr(static_cast<double>(sum));
}

double
HistogramAnalyzer::headwaySwIntRequests() const
{
    return swIntRequests_
        ? static_cast<double>(instructions_) / swIntRequests_ : 0.0;
}

double
HistogramAnalyzer::headwayInterrupts() const
{
    return interrupts_
        ? static_cast<double>(instructions_) / interrupts_ : 0.0;
}

double
HistogramAnalyzer::headwayContextSwitches() const
{
    return contextSwitches_
        ? static_cast<double>(instructions_) / contextSwitches_ : 0.0;
}

double
HistogramAnalyzer::tbMissPerInstr() const
{
    return perInstr(static_cast<double>(tbMissD_ + tbMissI_));
}

double
HistogramAnalyzer::tbMissPerInstrD() const
{
    return perInstr(static_cast<double>(tbMissD_));
}

double
HistogramAnalyzer::tbMissPerInstrI() const
{
    return perInstr(static_cast<double>(tbMissI_));
}

double
HistogramAnalyzer::tbServiceCyclesPerMiss() const
{
    uint64_t misses = tbMissD_ + tbMissI_;
    return misses ? static_cast<double>(tbServiceCycles_) / misses
                  : 0.0;
}

double
HistogramAnalyzer::tbServiceStallPerMiss() const
{
    uint64_t misses = tbMissD_ + tbMissI_;
    return misses ? static_cast<double>(tbServiceStalls_) / misses
                  : 0.0;
}

double
HistogramAnalyzer::unalignedPerInstr() const
{
    return perInstr(static_cast<double>(unaligned_));
}

std::vector<HistogramAnalyzer::HotSpot>
HistogramAnalyzer::hottest(size_t n) const
{
    std::vector<HotSpot> all;
    all.reserve(cs_.size());
    for (UAddr a = 0; a < cs_.size(); ++a) {
        uint64_t cyc = hist_.normal[a] + hist_.stalled[a];
        if (cyc)
            all.push_back({a, cs_.annotation(a).name, cyc});
    }
    std::sort(all.begin(), all.end(),
              [](const HotSpot &x, const HotSpot &y) {
                  return x.cycles > y.cycles;
              });
    if (all.size() > n)
        all.resize(n);
    return all;
}

} // namespace vax
