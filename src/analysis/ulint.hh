/**
 * @file
 * ulint: a static verifier for the assembled control store.
 *
 * The UPC monitor's whole methodology rests on the microcode being a
 * closed, fully classified object: every histogram bucket must map to
 * exactly one Table 8 cell, every dispatch must land on real
 * microcode, and the machine must never be able to wedge in a
 * micro-loop the histogram cannot attribute.  Emer & Clark got that
 * assurance from DEC's microcode listings; we get it from this linter,
 * which walks the declared micro-CFG (UFlow successor declarations,
 * EntryPoints dispatch tables, the decode-ROM spec entries and the
 * implicit microtrap edges) and reports anything that breaks the
 * closure.
 *
 * Six checks:
 *   1. bad-target      -- every branch/dispatch/fall edge resolves to
 *                         a defined microword (no dangling labels, no
 *                         out-of-range absolute targets).
 *   2. classification  -- every reachable word carries a Table 8 Row
 *                         consistent with the dispatch slot(s) that
 *                         reach it, so row/column conservation holds
 *                         by construction.
 *   3. mem-annotation  -- UMemKind/IB annotations agree with the
 *                         microtrap service paths: every service entry
 *                         reaches a trap-return, every trap-return is
 *                         on a service path, reserved words claim no
 *                         memory behaviour.
 *   4. entry-point     -- every EntryPoints slot the decode hardware
 *                         can select is explicitly set (the spec table
 *                         legality matrix exempts the short-literal
 *                         and immediate write/modify/address slots,
 *                         which fault at decode instead).
 *   5. micro-loop      -- no reachable cycle of microwords lacks both
 *                         an exit edge and a progress-guaranteeing
 *                         memory/IB interaction.
 *   6. unreachable     -- no non-reserved word is unreachable from
 *                         every dispatch root; no label is allocated
 *                         but never bound or referenced.
 *
 * The same report is consumed three ways: the ucode_lint CLI (text or
 * --json), a ctest entry linting the production ROM, and an opt-in
 * assertion at Cpu780 construction (strict mode).
 */

#ifndef UPC780_ANALYSIS_ULINT_HH
#define UPC780_ANALYSIS_ULINT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "ucode/control_store.hh"

namespace vax
{

namespace stats { class Registry; }

/** The six lint checks (stable names for text/JSON output). */
enum class LintCheck : uint8_t {
    BadTarget,
    Classification,
    MemAnnotation,
    EntryPoint,
    MicroLoop,
    Unreachable,
    NumChecks,
};

/** Stable kebab-case name of a check (diagnostic tag). */
const char *lintCheckName(LintCheck c);

/** One diagnostic. */
struct LintDiag
{
    LintCheck check;
    /** Offending micro-address, or kInvalidUAddr for table-level
     *  diagnostics (unset entry slots, orphan labels). */
    UAddr addr = kInvalidUAddr;
    /** Annotation name of the word at addr ("" for table-level). */
    std::string word;
    std::string message;
};

/** Result of linting one control store. */
struct LintReport
{
    std::vector<LintDiag> diags;
    size_t words = 0;     ///< control-store size
    size_t reachable = 0; ///< words reachable from a dispatch root
    size_t reserved = 0;  ///< words declared flowReserved()

    bool clean() const { return diags.empty(); }
    size_t countFor(LintCheck c) const;

    /** Render as "ucode:<addr>: error: [<check>] ..." lines plus a
     *  one-line summary; "" when clean. */
    std::string text() const;

    /** Render the whole report as a JSON object. */
    std::string json() const;
};

/**
 * Lint an assembled control store.  The store must be complete (all
 * routines emitted, all entry slots registered); resolveFlows() need
 * not have run -- the linter builds its own edge set from the raw
 * declarations so that unbound labels are reportable rather than
 * silently dropped.
 */
LintReport lintControlStore(const ControlStore &cs);

/**
 * Register the lint findings under "<prefix>." in a stats registry
 * (counts are captured by value).  Registers nothing when the report
 * is clean, so the ".lint" section appears in a dump exactly when
 * static diagnostics exist.
 */
void regLintStats(const LintReport &rep, stats::Registry &r,
                  const std::string &prefix = "lint");

/** @{ Shared with the bound analysis (ubound). */

/** "Read", "Write", "Modify" or "Addr". */
const char *specClassName(SpecAccClass c);

/** Strongly connected components: the component id of each node. */
struct SccResult
{
    std::vector<int> comp;
    int count = 0;
};

/**
 * Iterative Tarjan over successor lists, rooted at each unvisited node
 * in index order.  A component gets its id when the DFS closes it, so
 * every edge leads to the same or a smaller id (reverse topological
 * order), and a graph reachable from node 0 puts node 0 in the highest.
 */
SccResult tarjanScc(const std::vector<std::vector<UAddr>> &succ);
/** @} */

} // namespace vax

#endif // UPC780_ANALYSIS_ULINT_HH
