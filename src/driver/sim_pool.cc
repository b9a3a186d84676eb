#include "driver/sim_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <memory>
#include <thread>

#include "support/interrupt.hh"
#include "support/iofault.hh"
#include "support/logging.hh"
#include "support/parse.hh"
#include "support/sim_error.hh"
#include "support/trace.hh"

namespace vax
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One complete heartbeat line in a single fwrite (workers race). */
void
emitHeartbeat(size_t done, size_t total, double elapsed)
{
    double eta = done
        ? elapsed * (double(total - done) / double(done))
        : 0.0;
    char line[128];
    int n = std::snprintf(line, sizeof(line),
                          "pool: %zu/%zu jobs done, %.1fs elapsed, "
                          "eta %.1fs\n",
                          done, total, elapsed, eta);
    if (n > 0)
        std::fwrite(line, 1, static_cast<size_t>(n), stderr);
}

/**
 * Chunk size of a pooled run: small enough that a drain request is
 * noticed promptly, large enough that the per-chunk bookkeeping (one
 * branch, one relaxed atomic load) is invisible next to simulating
 * 64k machine cycles.  Chunk boundaries never change the simulated
 * cycle stream, so any value is byte-transparent.
 */
constexpr uint64_t drainChunkCycles = 65536;

/**
 * Run one job with pool bookkeeping, chunked so an interrupt request
 * drains it at the next chunk boundary.  When tracing is on, the
 * job's lines collect in a per-job buffer flushed in one write at the
 * end, so concurrent jobs' traces never interleave.
 */
ExperimentResult
runPooledJob(const SimJob &job, unsigned worker, Clock::time_point t0)
{
    trace::BufferSink buf;
    const bool buffering = trace::anyEnabled();
    trace::ScopedSink scoped(buffering ? &buf
                                       : static_cast<trace::TraceSink *>(
                                             nullptr));
    double start = secondsSince(t0);
    TRACE(Pool, "job '%s' start (worker %u)",
          job.profile.name.c_str(), worker);
    auto a0 = Clock::now();
    auto exp = std::make_unique<Experiment>(job.profile, job.cycles,
                                            job.sim, job.vms,
                                            job.limits);
    bool interrupted = false;
    while (!exp->runChunk(drainChunkCycles)) {
        if (interrupt::requested()) {
            interrupted = true;
            break;
        }
    }
    ExperimentResult r = exp->takeResult();
    r.interrupted = interrupted;
    r.wallSeconds = secondsSince(a0);
    r.startSeconds = start;
    r.worker = worker;
    TRACE(Pool, "job '%s' done: %.2fs wall",
          job.profile.name.c_str(), r.wallSeconds);
    if (buffering)
        buf.flushTo(stderr);
    return r;
}

/**
 * Guarded variant: a panic()/fatal()/watchdog/timeout inside the job
 * surfaces as a SimError here instead of killing the process.  The
 * job is retried once from its seed (pure by-value state, so the
 * retry replays the identical cycle stream).  A second failure yields
 * a zeroed, failed-marked result so the siblings' merge is
 * unaffected.
 */
ExperimentResult
runGuardedJob(const SimJob &job, unsigned worker, Clock::time_point t0)
{
    double retry_wall = 0.0;
    for (unsigned attempt = 0;; ++attempt) {
        auto a0 = Clock::now();
        try {
            guard::Scope scope(job.profile.name, job.sim.seed);
            ExperimentResult r = runPooledJob(job, worker, t0);
            r.retries = attempt;
            r.retryWallSeconds = retry_wall;
            return r;
        } catch (const std::exception &e) {
            retry_wall += secondsSince(a0);
            warn("pool: job '%s' failed (%s)%s",
                 job.profile.name.c_str(), e.what(),
                 attempt > 0 ? "" : "; retrying once from its seed");
            if (attempt == 0)
                continue;
            ExperimentResult r;
            r.name = job.profile.name;
            r.failed = true;
            r.error = e.what();
            r.retries = attempt;
            r.retryWallSeconds = retry_wall;
            r.worker = worker;
            r.startSeconds = secondsSince(t0);
            return r;
        }
    }
}

} // anonymous namespace

SimJob
SimJob::forProfile(const WorkloadProfile &p, uint64_t cycles)
{
    SimConfig sim;
    sim.seed = p.seed;
    return forProfile(p, cycles, sim);
}

SimJob
SimJob::forProfile(const WorkloadProfile &p, uint64_t cycles,
                   const SimConfig &sim)
{
    SimJob job;
    job.profile = p;
    job.cycles = cycles;
    job.sim = sim;
    // The OS settings the serial experiment runner always used.
    job.vms.timerIntervalCycles = 20000;
    job.vms.quantumTicks = 4;
    return job;
}

ExperimentResult
runJob(const SimJob &job)
{
    auto t0 = std::chrono::steady_clock::now();
    ExperimentResult r = runExperiment(job.profile, job.cycles,
                                       job.sim, job.vms, job.limits);
    r.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return r;
}

SimPool::SimPool(unsigned workers)
    : workers_(workers ? workers : hardwareWorkers()),
      progress_(envFlag("UPC780_PROGRESS")), strict_(envStrict())
{
}

unsigned
SimPool::hardwareWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
SimPool::forEach(size_t n, const std::function<void(size_t)> &fn) const
{
    unsigned nthreads =
        static_cast<unsigned>(std::min<size_t>(workers_, n));
    if (nthreads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
}

std::vector<ExperimentResult>
SimPool::run(const std::vector<SimJob> &jobs) const
{
    std::vector<ExperimentResult> results(jobs.size());
    if (jobs.empty())
        return results;

    unsigned nthreads = workers_;
    if (nthreads > jobs.size())
        nthreads = static_cast<unsigned>(jobs.size());

    Clock::time_point t0 = Clock::now();
    const bool progress = progress_;
    const bool strict = strict_;

    auto run_one = [&jobs, &results, strict, t0](size_t i, unsigned w) {
        // Strict mode restores fail-fast: no guard scope, so a job's
        // panic()/fatal() aborts the process as it always did.
        results[i] = strict ? runPooledJob(jobs[i], w, t0)
                            : runGuardedJob(jobs[i], w, t0);
    };

    if (nthreads <= 1) {
        for (size_t i = 0;
             i < jobs.size() && !interrupt::requested(); ++i) {
            run_one(i, 0);
            if (progress)
                emitHeartbeat(i + 1, jobs.size(), secondsSince(t0));
        }
    } else {
        // Dynamic work stealing over the job list: each worker claims
        // the next unclaimed index.  Completion order varies; result
        // order does not.  A drain request stops further claims.
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        auto worker = [&jobs, &next, &done, progress, t0,
                       &run_one](unsigned w) {
            for (size_t i; !interrupt::requested() &&
                 (i = next.fetch_add(1)) < jobs.size();) {
                run_one(i, w);
                size_t d = done.fetch_add(1) + 1;
                if (progress)
                    emitHeartbeat(d, jobs.size(), secondsSince(t0));
            }
        };
        std::vector<std::thread> threads;
        threads.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t)
            threads.emplace_back(worker, t);
        for (auto &t : threads)
            t.join();
    }

    // Jobs the drain kept from ever starting still need a name and
    // the interrupted marker so telemetry and merges can see them.
    if (interrupt::requested())
        for (size_t i = 0; i < jobs.size(); ++i)
            if (results[i].name.empty()) {
                results[i].name = jobs[i].profile.name;
                results[i].interrupted = true;
            }
    return results;
}

PoolTelemetry
computeTelemetry(const std::vector<ExperimentResult> &results)
{
    PoolTelemetry t;
    double first_start = 0.0;
    double last_end = 0.0;
    for (size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &r = results[i];
        JobTelemetry j;
        j.name = r.name;
        j.startSeconds = r.startSeconds;
        j.wallSeconds = r.wallSeconds;
        j.worker = r.worker;
        j.simCycles = r.hw.counters.cycles;
        j.instructions = r.hw.counters.instructions;
        j.failed = r.failed;
        j.error = r.error;
        j.retries = r.retries;
        j.retryWallSeconds = r.retryWallSeconds;
        j.interrupted = r.interrupted;
        if (r.failed)
            ++t.failedJobs;
        if (r.retries)
            ++t.retriedJobs;
        if (r.interrupted)
            ++t.interruptedJobs;
        t.retryWallSeconds += r.retryWallSeconds;
        t.simCycles += j.simCycles;
        t.instructions += j.instructions;
        if (i == 0 || r.startSeconds < first_start)
            first_start = r.startSeconds;
        last_end = std::max(last_end, r.startSeconds + r.wallSeconds);
        t.jobs.push_back(std::move(j));
    }
    // Span of the whole run: by construction >= any per-job wall.
    t.wallSeconds = results.empty() ? 0.0 : last_end - first_start;
    return t;
}

double
PoolTelemetry::cyclesPerSecond() const
{
    return wallSeconds > 0.0 ? double(simCycles) / wallSeconds : 0.0;
}

double
PoolTelemetry::kips() const
{
    return wallSeconds > 0.0
        ? double(instructions) / wallSeconds / 1e3
        : 0.0;
}

std::string
PoolTelemetry::summary() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu jobs, %.2fs wall, %.2f Msimcycles/s, "
                  "%.1f kIPS",
                  jobs.size(), wallSeconds, cyclesPerSecond() / 1e6,
                  kips());
    std::string s = buf;
    if (retriedJobs) {
        std::snprintf(buf, sizeof(buf),
                      ", %u retried (%.2fs lost)", retriedJobs,
                      retryWallSeconds);
        s += buf;
    }
    if (failedJobs) {
        std::snprintf(buf, sizeof(buf), ", %u FAILED", failedJobs);
        s += buf;
    }
    if (interruptedJobs) {
        std::snprintf(buf, sizeof(buf), ", %u INTERRUPTED",
                      interruptedJobs);
        s += buf;
    }
    return s;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<ExperimentResult> &results)
{
    // Durable atomic write through the host-I/O fault layer: a
    // campaign supervisor may die at any instant, and a half-written
    // trace must never shadow a good one.  The JSON is rendered to
    // memory first so the file write is one all-or-nothing operation.
    std::string out = "{\"traceEvents\":[\n";
    char line[512];
    for (size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &r = results[i];
        // Recovery-cost args only when nonzero, so a clean run's
        // trace is unchanged.
        std::string extra;
        char buf[96];
        if (r.retries) {
            std::snprintf(buf, sizeof(buf),
                          ",\"retries\":%u,\"retryWallSeconds\":%.3f",
                          r.retries, r.retryWallSeconds);
            extra += buf;
        }
        if (r.resumeCycle) {
            std::snprintf(buf, sizeof(buf), ",\"resumeCycle\":%llu",
                          static_cast<unsigned long long>(
                              r.resumeCycle));
            extra += buf;
        }
        if (r.interrupted)
            extra += ",\"interrupted\":true";
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.0f,"
                      "\"dur\":%.0f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"simCycles\":%llu%s}}%s\n",
                      r.name.c_str(), r.startSeconds * 1e6,
                      r.wallSeconds * 1e6, r.worker + 1,
                      static_cast<unsigned long long>(
                          r.hw.counters.cycles),
                      extra.c_str(),
                      i + 1 < results.size() ? "," : "");
        out += line;
    }
    out += "]}\n";
    if (!io::atomicWriteText(path, out)) {
        warn("cannot finish Chrome trace '%s'", path.c_str());
        return false;
    }
    return true;
}

CompositeResult
mergeComposite(const std::vector<SimJob> &jobs,
               std::vector<ExperimentResult> results)
{
    CompositeResult comp;
    uint64_t total_weight = 0;
    uint64_t lost_weight = 0;
    unsigned lost_jobs = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        total_weight += jobs[i].weight;
        // Interrupted jobs are partial measurements: like failed
        // ones, they stay out of the merge (but keep their marker in
        // parts so the caller can report them).
        if (results[i].failed || results[i].interrupted) {
            lost_weight += jobs[i].weight;
            ++lost_jobs;
        } else {
            comp.hist.merge(results[i].hist, jobs[i].weight);
            comp.hw.add(results[i].hw, jobs[i].weight);
        }
        comp.parts.push_back(std::move(results[i]));
    }
    if (lost_weight) {
        // Deliberately loud: a composite over fewer parts is still a
        // valid weighted measurement, but it is NOT the number the
        // caller asked for.
        warn("composite renormalized over surviving weight %llu of "
             "%llu -- %u job(s) failed, quarantined or interrupted; "
             "absolute totals cover the survivors only, ratio stats "
             "remain comparable",
             static_cast<unsigned long long>(total_weight - lost_weight),
             static_cast<unsigned long long>(total_weight), lost_jobs);
    }
    return comp;
}

CompositeResult
SimPool::runComposite(const std::vector<SimJob> &jobs) const
{
    return mergeComposite(jobs, run(jobs));
}

std::vector<SimJob>
compositeJobs(uint64_t cycles_per_experiment)
{
    std::vector<SimJob> jobs;
    for (const auto &prof : allProfiles())
        jobs.push_back(SimJob::forProfile(prof, cycles_per_experiment));
    return jobs;
}

cli::Entry
jobsFlag(std::optional<unsigned> *jobs, const char *help)
{
    return cli::count("--jobs", "N", help, jobs, 0, UINT_MAX);
}

unsigned
envJobs(unsigned def)
{
    return static_cast<unsigned>(
        envCount("UPC780_JOBS", def, 0, UINT_MAX));
}

uint64_t
benchCycles(uint64_t def)
{
    return envCount("UPC780_CYCLES", def, 1, UINT64_MAX);
}

} // namespace vax
