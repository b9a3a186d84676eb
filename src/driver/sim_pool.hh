/**
 * @file
 * The parallel simulation driver: SimJob + SimPool.
 *
 * The paper's headline numbers are composites over five independent
 * workloads, and every parameter sweep multiplies that again.  Each
 * experiment is a complete, self-contained machine (CPU, memory, OS,
 * RTE, monitor) built from a seed, so experiments are embarrassingly
 * parallel: the pool runs N jobs on a std::thread worker set and the
 * merge layer (Histogram::merge, the stats accumulate operators)
 * composites the results.
 *
 * Determinism contract:
 *  - a SimJob describes its simulation *by value* (profile, machine
 *    config, OS config, cycle budget); workers construct everything
 *    locally from the job's seeds and share no mutable state;
 *  - results are returned in job order regardless of completion
 *    order, and every merged counter is a commutative sum -- so a
 *    pooled run is bit-identical to the serial one at any worker
 *    count, which the test suite asserts.
 */

#ifndef UPC780_DRIVER_SIM_POOL_HH
#define UPC780_DRIVER_SIM_POOL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "os/vms.hh"
#include "workload/experiments.hh"
#include "workload/profile.hh"

namespace vax
{

/** Host-side timing of one pooled job (derived from its result). */
struct JobTelemetry
{
    std::string name;
    double startSeconds = 0.0; ///< offset from the pool's start
    double wallSeconds = 0.0;
    unsigned worker = 0;
    uint64_t simCycles = 0;    ///< machine cycles simulated
    uint64_t instructions = 0; ///< instructions retired
    bool failed = false;       ///< job raised a SimError (after retry)
    std::string error;         ///< final failure description
    /** @{ Recovery cost, all zero for a clean first-try run. */
    unsigned retries = 0;          ///< attempts thrown away
    double retryWallSeconds = 0.0; ///< host time burned in lost attempts
    bool interrupted = false;      ///< abandoned by a graceful drain
    /** @} */
};

/**
 * Aggregate throughput of a pool run.  Wall-clock lives here, NOT in
 * the stats registry: telemetry varies run to run while stats dumps
 * must be byte-identical for a given seed.
 */
struct PoolTelemetry
{
    std::vector<JobTelemetry> jobs;
    /** Aggregate span: latest job end minus earliest job start.  By
     *  construction >= every per-job wallSeconds. */
    double wallSeconds = 0.0;
    uint64_t simCycles = 0;
    uint64_t instructions = 0;
    unsigned failedJobs = 0; ///< jobs that failed even after retry
    /** @{ Recovery cost across the run (zero when nothing went
     *  wrong, so clean summaries are unchanged). */
    unsigned retriedJobs = 0;      ///< jobs that needed a retry
    unsigned interruptedJobs = 0;  ///< jobs abandoned by a drain
    double retryWallSeconds = 0.0; ///< total host time lost to retries
    /** @} */

    /** Simulated machine cycles per host second (0 when un-timed). */
    double cyclesPerSecond() const;

    /** Simulated kilo-instructions per host second. */
    double kips() const;

    /** One human-readable line: jobs, wall, Mcycles/s, kIPS; names
     *  the failed-job count only when there is one, so fault-free
     *  output is unchanged. */
    std::string summary() const;
};

/** Derive pool telemetry from a result set (any run() output). */
PoolTelemetry
computeTelemetry(const std::vector<ExperimentResult> &results);

/**
 * Write the per-job timeline as a Chrome trace-event JSON file
 * (load in Perfetto / chrome://tracing: one row per worker, one
 * slice per job).  @return False (with warn) on I/O failure.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<ExperimentResult> &results);

/**
 * One independent simulation, described entirely by value so it can
 * be handed to any worker thread and constructed there from scratch.
 */
struct SimJob
{
    WorkloadProfile profile;
    uint64_t cycles = 2'000'000; ///< machine cycles to simulate
    SimConfig sim;               ///< machine configuration
    VmsConfig vms;               ///< OS configuration
    uint64_t weight = 1;         ///< weighting in composite merges
    RunLimits limits;            ///< watchdog / timeout (default off)

    /** Job with the standard experiment wiring: machine seed taken
     *  from the profile, default OS settings. */
    static SimJob forProfile(const WorkloadProfile &p, uint64_t cycles);

    /** Same with an explicit machine configuration (what-if sweeps).
     *  The configuration is taken verbatim, including its seed. */
    static SimJob forProfile(const WorkloadProfile &p, uint64_t cycles,
                             const SimConfig &sim);
};

/** Run one job to completion on the calling thread (wall-clock is
 *  recorded in the result). */
ExperimentResult runJob(const SimJob &job);

class SimPool
{
  public:
    /** @param workers Worker threads; 0 means one per hardware core. */
    explicit SimPool(unsigned workers = 0);

    unsigned workers() const { return workers_; }

    /** Opt-in stderr heartbeat ("pool: 3/5 jobs, ..., eta ...")
     *  emitted as each job completes.  Also enabled by a non-zero
     *  UPC780_PROGRESS environment variable. */
    void setProgress(bool on) { progress_ = on; }
    bool progress() const { return progress_; }

    /** Strict (fail-fast) mode: a job's panic()/fatal() aborts the
     *  whole process, as before guarded execution existed.  Also
     *  enabled by a non-zero UPC780_STRICT environment variable. */
    void setStrict(bool on) { strict_ = on; }
    bool strict() const { return strict_; }

    /**
     * Run all jobs, at most workers() at a time.
     *
     * Unless strict() is set, each job runs guarded: a panic(),
     * fatal(), watchdog or timeout inside the job becomes a SimError
     * and the job is deterministically retried once from its seed
     * (the job is pure by-value state, so the retry replays the
     * identical cycle stream; the lost host time lands in the
     * result's retryWallSeconds).  A second failure marks the result
     * failed instead of taking down the siblings.
     *
     * An interrupt request (SIGINT/SIGTERM via interrupt::install,
     * or interrupt::request in tests) drains the pool gracefully:
     * running jobs stop at the next chunk boundary, unstarted jobs
     * are never claimed, and every unfinished result is marked
     * interrupted.  The pool keeps nothing on disk; a run that must
     * survive a crash or be resumed goes through upc780_campaign
     * (driver/campaign.hh).
     *
     * @return Results in job order, independent of completion order.
     */
    std::vector<ExperimentResult>
    run(const std::vector<SimJob> &jobs) const;

    /** Run all jobs and merge them with mergeComposite(): the
     *  reference composite every other path (campaign, benches) must
     *  match byte for byte. */
    CompositeResult runComposite(const std::vector<SimJob> &jobs) const;

    /**
     * Generic deterministic fan-out: run fn(0..n-1), each exactly
     * once, on the pool's workers (serially on the calling thread
     * when workers() is 1 or n is small).  fn must not share mutable
     * state across indices; callers store results by index, which is
     * what makes the schedule unobservable.  Unlike run(), indices
     * are not guarded -- fn handles its own errors (the uchar suite
     * wraps each program in guard::Scope itself).
     */
    void forEach(size_t n,
                 const std::function<void(size_t)> &fn) const;

    /** Hardware concurrency, never 0. */
    static unsigned hardwareWorkers();

  private:
    unsigned workers_;
    bool progress_;
    bool strict_;
};

/**
 * Merge per-job results (in job order) into the weighted composite.
 * The merge applies each job's weight; since the merged quantities
 * are commutative counter sums, the composite is bit-identical to a
 * serial run at any worker count and from any source of results.
 *
 * Failed and interrupted jobs are excluded from the merge: the
 * composite is renormalized over the surviving parts (loudly
 * warned), so the absolute totals cover the survivors only while
 * ratio-style stats (CPI, miss ratios) remain comparable.  Every
 * result stays in parts, marker included, for the caller to report.
 */
CompositeResult mergeComposite(const std::vector<SimJob> &jobs,
                               std::vector<ExperimentResult> results);

/** The paper's five workloads as a job list (weight 1 each). */
std::vector<SimJob> compositeJobs(uint64_t cycles_per_experiment);

/** Five-workload composite on a pool: the parallel runComposite().
 *  @param jobs Worker threads; 0 means one per hardware core. */
CompositeResult runCompositePooled(uint64_t cycles_per_experiment,
                                   unsigned jobs = 0);

/**
 * Strip a "--jobs N" / "--jobs=N" flag from argv (updating *argc) and
 * return N; returns def when the flag is absent.  0 means "one worker
 * per hardware core" everywhere a job count is accepted.  Anything
 * but a non-negative integer is fatal.
 */
unsigned parseJobsFlag(int *argc, char **argv, unsigned def = 0);

/** The UPC780_JOBS environment variable (empty = unset), else def;
 *  garbage is fatal, as for --jobs. */
unsigned envJobs(unsigned def = 0);

/**
 * Cycles per experiment for the bench harness: the UPC780_CYCLES
 * environment variable (empty = unset), else def.  Anything but a
 * positive integer is fatal.
 */
uint64_t benchCycles(uint64_t def = 2'000'000);

/**
 * Strip --watchdog-cycles N and --job-timeout SECONDS from argv and
 * return them as RunLimits (zero fields = flag absent).  Malformed
 * values are fatal, matching the --faults contract.
 */
RunLimits parseLimitsFlags(int *argc, char **argv);

/**
 * Strip a valueless "--<name>" flag from argv (updating *argc, same
 * contract as parseJobsFlag).  @return True when the flag was present.
 */
bool parseBoolFlag(int *argc, char **argv, const char *name);

} // namespace vax

#endif // UPC780_DRIVER_SIM_POOL_HH
