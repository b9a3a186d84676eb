/**
 * @file
 * The traced run's probes, run once after its samples.
 *
 * A characterization reaches several layers only from inside the
 * program: Experiment's constructor generates every user's code and
 * boots VMS-lite, and nothing in a characterization snapshots.  The
 * probes call those layers directly so each gets its own span, and
 * time the run-phase layers in isolation with tight loops through
 * Cpu780::tick.  They run the same way on every workload, so every
 * workload's traced run reports every per-layer metric.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>
#include <vector>

#include "characterize.hh"
#include "spans.hh"

namespace perfbench
{

struct ProbeResult
{
    /** The five jobs built, run, checkpointed in memory, restored and
     *  merged: the source of the simulated per-layer counts. */
    CompositeAnalysis composite;
    /** Medians of the tight loops, host ns per simulated cycle. */
    double regLoopNs = 0.0;
    double memLoopNs = 0.0;
    double monLoopNs = 0.0;
    std::vector<std::string> problems;
};

ProbeResult runProbes(const std::vector<vax::SimJob> &jobs,
                      const vax::UcharParams &params, SpanRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
