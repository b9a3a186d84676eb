/**
 * @file
 * Measurement experiments: run one workload profile on a freshly
 * booted machine with the UPC monitor attached and an RTE injecting
 * terminal traffic, then collect the histogram; run all five and sum
 * them into the composite, exactly as the paper reports its results.
 */

#ifndef UPC780_WORKLOAD_EXPERIMENTS_HH
#define UPC780_WORKLOAD_EXPERIMENTS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "cpu/hw_counters.hh"
#include "os/vms.hh"
#include "mem/cache.hh"
#include "mem/tb.hh"
#include "support/sim_error.hh"
#include "upc/monitor.hh"
#include "workload/profile.hh"

namespace vax
{

/**
 * Hardware-side measurements the UPC technique cannot see (the paper
 * took these from the separate cache study [2]); collected from the
 * simulator's event counters and reported separately.
 */
struct HwTotals
{
    HwCounters counters;
    CacheStats cache;
    TbStats tb;
    FaultStats faults; ///< injected-fault counters (all zero when off)
    uint64_t ibLongwordFetches = 0;
    uint64_t dataReads = 0;
    uint64_t dataWrites = 0;
    uint64_t terminalLinesIn = 0;
    uint64_t terminalLinesOut = 0;
    uint64_t diskTransfers = 0;

    /** Weighted accumulate (weight 1 = the paper's plain sum). */
    void add(const HwTotals &other, uint64_t weight = 1);

    /** Register every total (counters, cache, TB, I/O) under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;
};

struct ExperimentResult
{
    std::string name;
    Histogram hist;
    HwTotals hw;
    /** Host wall-clock seconds spent simulating (filled by the
     *  driver layer; 0 when the experiment ran un-timed). */
    double wallSeconds = 0.0;
    /** Start offset in seconds from the pool's start (0 when the
     *  experiment ran outside a pool). */
    double startSeconds = 0.0;
    /** Worker-thread index that ran the job (0 outside a pool). */
    unsigned worker = 0;
    /** @{ Guarded execution: set by the pool when the job's simulation
     *  raised a SimError even after its deterministic retry. */
    bool failed = false;
    std::string error;   ///< SimError::what() of the final failure
    unsigned retries = 0; ///< retry attempts consumed (0 or 1)
    /** @} */
    /** @{ Recovery cost (telemetry).  resumeCycle is the machine
     *  cycle the successful attempt restarted from (0 = ran from the
     *  beginning; only campaign shards restore checkpoints);
     *  retryWallSeconds is host time burned in attempts that were
     *  thrown away.  interrupted marks a job abandoned by a
     *  graceful-drain request (its measurements are partial). */
    uint64_t resumeCycle = 0;
    double retryWallSeconds = 0.0;
    bool interrupted = false;
    /** @} */
    /** Claim epoch the producing shard held when it wrote this result
     *  (campaign fencing; 0 outside a campaign).  The campaign merge
     *  rejects a result whose fence is below the job's durable
     *  high-water mark -- see driver/campaign.hh. */
    uint64_t fence = 0;
};

/**
 * Runtime guard-rails for one experiment.  Both default off, so the
 * plain overloads behave exactly as before.
 */
struct RunLimits
{
    /** Cycles without a retired instruction before the forward-
     *  progress watchdog raises a SimError (0 = disabled). */
    uint64_t watchdogCycles = 0;
    /** Wall-clock budget per experiment in seconds (0 = disabled). */
    double timeoutSeconds = 0.0;
    /** Failure drill: deliberately raise a SimError at the first
     *  poll at or after this cycle (0 = disabled).  The drill is part
     *  of the job, so every attempt re-trips it: the pool's seed
     *  retry fails again, and the campaign's poison-job drill uses it
     *  to drive the quarantine path. */
    uint64_t tripCycle = 0;
};

/**
 * One resumable measurement experiment: a freshly booted machine with
 * the UPC monitor attached and the RTE injecting terminal traffic.
 *
 * Construction reproduces, in order, every deterministic step the
 * original one-shot runner performed (machine build, process code
 * generation, boot, initial think-time draws), so a fresh Experiment
 * is always in the same state as a one-shot run at cycle 0.  The run
 * loop is exposed in chunks whose boundaries fall only between whole
 * tick-then-poll iterations -- chunked execution is therefore
 * bit-identical to a single runChunk(0) call, which is what makes
 * checkpoint/restore byte-transparent.
 *
 * Checkpointing: save() serializes the entire simulation (machine,
 * monitor, OS fingerprint, RTE clocks and disk queue); restore() must
 * be called on a freshly constructed Experiment with the same
 * profile/config (fingerprints verified) and resumes the cycle stream
 * exactly where save() left it.  Both are valid only between chunks.
 */
class Experiment
{
  public:
    Experiment(const WorkloadProfile &profile, uint64_t cycles,
               const SimConfig &sim, const VmsConfig &vms,
               const RunLimits &limits = RunLimits());

    /**
     * Advance the simulation.  Throws SimError on watchdog, timeout
     * or recovery-drill trips (when inside a guard::Scope).
     *
     * @param chunk Max cycles to advance (0 = run to the budget).
     * @return True once the cycle budget is reached.
     */
    bool runChunk(uint64_t chunk = 0);

    bool done() const { return cpu_.cycles() >= cycles_; }
    uint64_t cycle() const { return cpu_.cycles(); }
    uint64_t budget() const { return cycles_; }

    /** @{ Whole-simulation checkpoint (valid between chunks). */
    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
    /** Checkpoint straight to a file (atomic tmp+rename). */
    bool saveFile(const std::string &path) const;
    /** Restore from a file; SnapshotError on damage or mismatch. */
    void restoreFile(const std::string &path);
    /** @} */

    /** Collect the measurements; call once, after done(). */
    ExperimentResult takeResult();

  private:
    struct DiskOp
    {
        uint64_t due;
        uint32_t proc;
    };

    uint64_t thinkDraw();
    void pollRte();

    WorkloadProfile profile_;
    uint64_t cycles_;
    RunLimits limits_;
    Cpu780 cpu_;
    UpcMonitor monitor_;
    VmsLite os_;
    ExperimentResult result_;
    std::vector<DiskOp> diskQueue_;
    Rng diskRng_;
    Rng rte_;
    std::vector<uint64_t> nextLine_;
    ForwardProgressWatchdog watchdog_;
    std::chrono::steady_clock::time_point wallStart_;
    uint64_t nextPoll_;
};

/**
 * Run one experiment.
 *
 * @param profile The workload to run.
 * @param cycles  Machine cycles to simulate (200 ns each).
 */
ExperimentResult runExperiment(const WorkloadProfile &profile,
                               uint64_t cycles);

/** Same, with an explicit machine configuration (what-if studies). */
ExperimentResult runExperiment(const WorkloadProfile &profile,
                               uint64_t cycles, const SimConfig &sim);

/** Same, also overriding the OS configuration (quantum studies). */
ExperimentResult runExperiment(const WorkloadProfile &profile,
                               uint64_t cycles, const SimConfig &sim,
                               const VmsConfig &vms);

/** Same, with watchdog / wall-clock guard-rails. */
ExperimentResult runExperiment(const WorkloadProfile &profile,
                               uint64_t cycles, const SimConfig &sim,
                               const VmsConfig &vms,
                               const RunLimits &limits);

struct CompositeResult
{
    Histogram hist;   ///< sum of the five histograms
    HwTotals hw;      ///< sum of the hardware counters
    std::vector<ExperimentResult> parts;
};

/** Run all five experiments and composite them. */
CompositeResult runComposite(uint64_t cycles_per_experiment);

/**
 * Mirror a composite into a stats registry: the merged totals under
 * "composite" (hardware counters plus histogram banks) and each part
 * under "part<i>.<name>".  Only deterministic simulation quantities
 * are registered -- wall-clock telemetry stays out so same-seed dumps
 * are byte-identical, serial or pooled.  The registry keeps pointers
 * into comp: dump before comp goes away.
 */
void registerCompositeStats(stats::Registry &r,
                            const CompositeResult &comp);

} // namespace vax

#endif // UPC780_WORKLOAD_EXPERIMENTS_HH
