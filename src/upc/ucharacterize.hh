/**
 * @file
 * Per-instruction characterization: the measurement, report and
 * comparison layer of the `ucharacterize` suite.
 *
 * The paper characterizes the 780 per instruction *group* (Table 8);
 * this subsystem produces the per-opcode edition: every implemented
 * opcode x legal specifier class runs as an auto-generated
 * steady-state microbenchmark through the UPC monitor, and the
 * histogram is reduced to raw, exactly reproducible integers --
 * cycles, microwords, and the stall anatomy columns.  The approach is
 * uops.info/nanoBench's: a calibration loop with an empty body is
 * measured once, and every variant's cost is the delta against it.
 *
 * Layering: this file knows how to *run* one generated program and
 * how to render/compare reports; the corpus generator (which opcode x
 * mode variants exist and what code each assembles to) lives in
 * src/workload/uchar_corpus, above this layer.  Parallel fan-out is
 * injected through the ParallelFor hook so the driver's SimPool can
 * supply workers without a dependency cycle.
 *
 * Determinism contract: every quantity stored in a report is a raw
 * simulated-cycle integer, so a report is byte-identical across
 * hosts, runs and worker counts.  That is what lets the committed
 * UCHAR_baseline.json act as a zero-tolerance cycle-accuracy gate.
 */

#ifndef UPC780_UPC_UCHARACTERIZE_HH
#define UPC780_UPC_UCHARACTERIZE_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/specifiers.hh"
#include "ucode/annotations.hh"

namespace vax
{

namespace stats
{
class Registry;
} // namespace stats

/** Fixed parameters of one suite run (part of the baseline key). */
struct UcharParams
{
    /** Steady-state loop iterations per microbenchmark. */
    uint32_t iters = 16;
    /** Copies of the measured instruction unrolled per iteration. */
    uint32_t unroll = 8;
    /** Per-variant cycle budget (a variant that neither halts nor
     *  stays inside it is reported as skipped, never hangs). */
    uint64_t maxCycles = 2'000'000;
};

/** One operand specifier of a profiled instruction (branch
 *  displacements are not specifiers and are not recorded). */
struct UcharSpecUse
{
    AddrMode mode = AddrMode::Register;
    bool indexed = false;

    bool operator==(const UcharSpecUse &o) const = default;
};

/**
 * One distinct (opcode, specifier shape) the generated image contains,
 * with its exact dynamic execution count in a clean run.  The static
 * bound analyzer composes per-instruction cycle ranges from these, so
 * a program's whole-run measurement can be checked against
 * sum(count x bound) without re-decoding the image.
 */
struct UcharProfileEntry
{
    uint8_t opcode = 0;
    uint64_t count = 0; ///< dynamic executions in the clean run
    std::vector<UcharSpecUse> specs;
};

/** One data region loaded into physical memory before a run.  The
 *  bytes are immutable and may be shared: a corpus builds each
 *  fill-region image once and every program that uses it points at
 *  the same buffer. */
struct UcharPoke
{
    uint32_t addr = 0;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
};

/**
 * One generated microbenchmark: the assembled image plus the data
 * regions to poke into physical memory and the exact dynamic
 * instruction count the clean run must retire.
 */
struct UcharProgram
{
    std::string op;      ///< mnemonic ("MOVL")
    std::string mode;    ///< specifier-class key ("(Rn)", "none"...)
    uint32_t ipc = 1;    ///< dynamic instructions per unrolled copy
    uint32_t base = 0;   ///< load/start address
    uint32_t sp = 0;     ///< initial stack pointer
    uint64_t expectedInstructions = 0; ///< clean-run retire count
    std::vector<uint8_t> image;
    /** Data regions loaded into physical memory before the run. */
    std::vector<UcharPoke> pokes;
    /** Image offsets of each measured-instruction copy (round-trip
     *  and disassembly checks anchor here). */
    std::vector<uint32_t> targetOffsets;
    /** Static instruction profile of the image; the counts sum to
     *  expectedInstructions exactly (generator invariant). */
    std::vector<UcharProfileEntry> profile;
};

/** Raw measurement of one program run: integers only, no division,
 *  so baseline comparison is exact. */
struct UcharRun
{
    uint64_t cycles = 0;       ///< classified cycles (analyzer total)
    uint64_t instructions = 0; ///< IID count
    /** Microwords executed: the normal bank's total, which is the
     *  Compute + Read + Write sum (every normal cycle classifies into
     *  exactly one of those three columns). */
    uint64_t uwords = 0;
    /** Table 8 column sums: Compute, Read, RStall, Write, WStall,
     *  IbStall (cache/read stalls are RStall, write-buffer stalls
     *  are WStall). */
    std::array<uint64_t, static_cast<size_t>(TimeCol::NumCols)> cols{};
    /** TB-service cycles (Row::MemMgmt total: the TB share of the
     *  stall anatomy; zero in the unmapped harness). */
    uint64_t tbService = 0;

    bool operator==(const UcharRun &o) const = default;
};

/** Result of running one UcharProgram. */
struct UcharOutcome
{
    bool ok = false;
    UcharRun run;
    std::string reason; ///< failure description when !ok
};

/**
 * Run one generated microbenchmark on a fresh bare machine (mapping
 * off, UPC monitor attached) and reduce its histogram.
 *
 * The run is guarded: a panic()/fatal() raised by an unsupported
 * variant becomes a reason string, not a process abort.  A run that
 * does not halt, or halts with the wrong dynamic instruction count
 * (e.g. it faulted through the zeroed SCB), is also classified as
 * failed -- the no-silent-skips contract.  So is a run whose
 * classified cycles differ from the machine's cycle count: a count
 * outside the control store would make the row's column sums lie.
 */
UcharOutcome runUcharProgram(const UcharProgram &prog,
                             const UcharParams &params);

/** One published row: a variant that ran cleanly. */
struct UcharRow
{
    std::string op;
    std::string mode;
    uint32_t ipc = 1;
    UcharRun run;
    /**
     * Static whole-program cycle bounds for this variant, filled by
     * the bound analyzer (tools/ucode_bounds): the clean run must
     * satisfy bcc <= run.cycles <= wcc.  Absent (hasBounds == false)
     * in reports produced by the measurement tool alone; the JSON
     * round-trips them when present and ucharCompare ignores them
     * (bounds are derived data, not measurement).
     */
    uint64_t bcc = 0;
    uint64_t wcc = 0;
    bool hasBounds = false;
};

/** One skipped variant, with the reason on the record. */
struct UcharSkip
{
    std::string op;
    std::string mode;
    std::string reason;
};

/** The full suite result. */
struct UcharReport
{
    UcharParams params;
    UcharRun calibration; ///< shared empty-body loop measurement
    std::vector<UcharRow> rows;
    std::vector<UcharSkip> skipped;

    /** Cost of one unrolled copy (scaffold included) beyond the
     *  calibration loop, in cycles -- the human-facing number. */
    double perCopyCycles(const UcharRow &r) const;
};

/**
 * Deterministic parallel-for hook: run fn(0..n-1), each exactly
 * once, in any order.  An empty function means serial.  SimPool
 * provides the pooled implementation (SimPool::forEach); the suite
 * stores every result by index, so any schedule yields byte-identical
 * reports.
 */
using ParallelFor =
    std::function<void(size_t n, const std::function<void(size_t)> &)>;

/** @{ Report rendering: aligned text, CSV, and JSON.  All three are
 *  deterministic byte-for-byte for a given report. */
std::string ucharText(const UcharReport &rep);
std::string ucharCsv(const UcharReport &rep);
std::string ucharJson(const UcharReport &rep);
/** @} */

/**
 * Parse a report previously written by ucharJson().
 * @return False with *err set on malformed input.
 */
bool ucharParseJson(const std::string &text, UcharReport *out,
                    std::string *err);

/** Comparison verdict: empty messages == identical. */
struct UcharDiff
{
    bool ok() const { return messages.empty(); }
    std::vector<std::string> messages;
};

/**
 * Compare two reports with zero tolerance: parameters, calibration,
 * the row key set, every row's raw integers, and the skip list must
 * all match.  Every difference names its opcode/mode, so a CI
 * failure reads as "MOVL (Rn)+: uwords 2816 -> 2824 (+8)".
 */
UcharDiff ucharCompare(const UcharReport &baseline,
                       const UcharReport &current);

/** Register suite-level stats under prefix (e.g. "uchar."):
 *  row/skip counts, calibration cost, aggregate cycles. */
void regUcharStats(stats::Registry &r, const std::string &prefix,
                   const UcharReport &rep);

/**
 * Register the static-bound section (`<prefix>.bounds.*`): how many
 * rows carry bounds, how many measurements violate them, and the
 * aggregate floor/measured/ceiling cycle totals.  No-op when no row
 * has bounds attached.
 */
void regUcharBounds(stats::Registry &r, const std::string &prefix,
                    const UcharReport &rep);

} // namespace vax

#endif // UPC780_UPC_UCHARACTERIZE_HH
