/**
 * @file
 * One cold characterization -- the benchmark's unit of work -- for
 * each kind of workload, timed phase by phase.
 *
 * "Cold" means a sample builds everything it uses: machines, ROMs,
 * user programs, the analyzer's control store.  Nothing built by an
 * earlier sample is reused, so a process-wide build-once cache can
 * only win by sharing inside one characterization, which is the path
 * a user of the simulator takes.
 */

#ifndef PERFBENCH_CHARACTERIZE_HH
#define PERFBENCH_CHARACTERIZE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/sim_pool.hh"
#include "spans.hh"
#include "ucode/control_store.hh"
#include "upc/ucharacterize.hh"
#include "workload/experiments.hh"
#include "workload/uchar_corpus.hh"

namespace perfbench
{

/** Paper Table 8: cycles per average instruction of the composite. */
constexpr double kPaperCpi = 10.593;

/** Median; the mean of the middle two for an even count (as Python's
 *  statistics.median), 0 for none. */
double median(std::vector<double> v);

/** One characterization's measurements and verdict. */
struct Sample
{
    double characterizationSeconds = 0.0;
    /** Host time before the first simulated cycle: the five
     *  Experiment constructions, or enumerate + calibration. */
    double setupSeconds = 0.0;
    /** Host time in the run phase: the runChunk calls, or the
     *  runUcharProgram calls (each builds its own bare machine). */
    double runSeconds = 0.0;
    uint64_t retiredCycles = 0;   ///< cycles the machines executed
    uint64_t requestedCycles = 0; ///< the budgets they were given
    uint64_t instructions = 0;    ///< instructions they retired
    double cpi = 0.0;             ///< simulated cycles per instruction
    /** Stats-registry JSON (composites) or report JSON (uchar): the
     *  exact simulated result, compared across samples. */
    std::string dump;
    std::vector<std::string> problems; ///< failed correctness checks
};

/** The five paper profiles as jobs, re-seeded; seed 0 keeps the
 *  committed profiles. */
std::vector<vax::SimJob> seededCompositeJobs(uint64_t seed,
                                             uint64_t cycles);

/** A merged and analyzed composite. */
struct CompositeAnalysis
{
    vax::CompositeResult comp;
    std::unique_ptr<vax::ControlStore> cs;
    double cpi = 0.0;
    double ibStallCpi = 0.0;
    double readStallCpi = 0.0;
    double writeStallCpi = 0.0;
    std::string dump; ///< registerCompositeStats as JSON
};

/** The tail every composite characterization shares: merge the parts,
 *  build the analyzer's control store, analyze, dump the stats. */
CompositeAnalysis
analyzeComposite(std::vector<vax::ExperimentResult> parts,
                 const std::vector<vax::SimJob> &jobs, SpanRecorder *rec);

/** selfCheckComposite, and every part ran its whole budget. */
void checkComposite(const CompositeAnalysis &a,
                    const std::vector<vax::SimJob> &jobs,
                    std::vector<std::string> *problems);

/** Build, run, merge, analyze and dump the five-workload composite
 *  through Experiment, one part after another on this thread. */
Sample runCompositeSample(const std::vector<vax::SimJob> &jobs,
                          SpanRecorder *rec);

/** One runUcharProgram call, spanned as "upc.uchar_row". */
vax::UcharOutcome runUcharRow(const vax::UcharProgram &prog,
                              const vax::UcharParams &params,
                              SpanRecorder *rec);

/** The per-instruction suite: enumerate, calibrate, run every
 *  runnable variant, render the report, and compare it against the
 *  baseline with zero tolerance. */
Sample runUcharSample(const vax::UcharParams &params,
                      const vax::UcharReport &baseline,
                      SpanRecorder *rec);

} // namespace perfbench

#endif // PERFBENCH_CHARACTERIZE_HH
