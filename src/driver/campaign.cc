#include "driver/campaign.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/interrupt.hh"
#include "support/iofault.hh"
#include "support/logging.hh"
#include "support/sim_error.hh"
#include "support/snapshot.hh"
#include "support/stats.hh"
#include "workload/experiments.hh"

namespace vax
{

namespace
{

// =============== flag parsing (usage + exit 2) ===============

/** Campaign flag errors are *tool* errors, not simulator errors: the
 *  contract is usage on stderr and exit 2, so scripts and the
 *  EXPECT_DEATH tests can tell a bad command line from a bad run. */
[[noreturn]] void
usageError(const char *prog, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

[[noreturn]] void
usageError(const char *prog, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "%s: ", prog);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n\n");
    campaignUsage(prog, stderr);
    std::exit(2);
}

/** Strip "--<name> V" / "--<name>=V" from argv (same contract as
 *  parseJobsFlag); a valued flag with no value is a usage error. */
bool
takeValueFlag(int *argc, char **argv, const char *name,
              std::string *val)
{
    std::string flag = std::string("--") + name;
    std::string pref = flag + "=";
    bool have = false;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char *arg = argv[i];
        if (flag == arg) {
            if (i + 1 >= *argc)
                usageError(argv[0], "%s requires a value",
                           flag.c_str());
            *val = argv[++i];
            have = true;
        } else if (std::strncmp(arg, pref.c_str(), pref.size()) == 0) {
            *val = arg + pref.size();
            have = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argv[out] = nullptr;
    *argc = out;
    return have;
}

uint64_t
takeCount(const char *prog, const char *flag, const std::string &val)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(val.c_str(), &end, 0);
    if (errno || end == val.c_str() || *end || !v)
        usageError(prog, "%s: '%s' is not a positive count", flag,
                   val.c_str());
    return v;
}

double
takeSeconds(const char *prog, const char *flag, const std::string &val)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(val.c_str(), &end);
    if (errno || end == val.c_str() || *end || !(v > 0.0))
        usageError(prog, "%s: '%s' is not a positive duration in "
                   "seconds", flag, val.c_str());
    return v;
}

/** Like takeCount but zero is legal (indices, epochs-as-ids). */
uint64_t
takeIndex(const char *prog, const char *flag, const std::string &val)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(val.c_str(), &end, 0);
    if (errno || end == val.c_str() || *end)
        usageError(prog, "%s: '%s' is not a non-negative integer",
                   flag, val.c_str());
    return v;
}

/** Non-negative finite wall-clock stamp ("12345.678900"). */
double
takeStamp(const char *prog, const char *flag, const std::string &val)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(val.c_str(), &end);
    if (errno || end == val.c_str() || *end || !std::isfinite(v) ||
        v < 0.0)
        usageError(prog, "%s: '%s' is not a non-negative wall-clock "
                   "stamp in seconds", flag, val.c_str());
    return v;
}

// =============== small filesystem helpers ===============

void
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return;
    fatal("campaign: cannot create '%s': %s", path.c_str(),
          std::strerror(errno));
}

std::string
jobTokenName(size_t job)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "job%03zu", job);
    return buf;
}

/** True when the directory holds no spool entries (tmp files from a
 *  write in flight do not count). */
bool
dirDrained(const std::string &path)
{
    DIR *d = ::opendir(path.c_str());
    if (!d)
        return true;
    bool drained = true;
    while (struct dirent *e = ::readdir(d)) {
        if (std::strcmp(e->d_name, ".") == 0 ||
            std::strcmp(e->d_name, "..") == 0)
            continue;
        if (std::strstr(e->d_name, ".tmp"))
            continue;
        drained = false;
        break;
    }
    ::closedir(d);
    return drained;
}

void
sleepMs(unsigned ms)
{
    ::usleep(ms * 1000u);
}

std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

// =============== emit path ===============

/**
 * Merge the per-job parts into the weighted composite and write the
 * campaign outputs.  The merge is the pool's own mergeComposite():
 * the merge is the measurement, so there is exactly one of it.
 */
int
emitCampaignOutputs(const CampaignConfig &cfg,
                    const std::vector<SimJob> &jobs,
                    std::vector<ExperimentResult> parts)
{
    CompositeResult comp = mergeComposite(jobs, std::move(parts));
    PoolTelemetry tele = computeTelemetry(comp.parts);
    std::printf("campaign: %s\n", tele.summary().c_str());

    if (!cfg.statsJsonPath.empty()) {
        stats::Registry reg;
        registerCompositeStats(reg, comp);
        if (!reg.saveJson(cfg.statsJsonPath))
            fatal("campaign: cannot write stats JSON to '%s'",
                  cfg.statsJsonPath.c_str());
        std::printf("campaign: wrote %zu stats to %s\n", reg.size(),
                    cfg.statsJsonPath.c_str());
    }
    if (!cfg.tracePath.empty()) {
        if (!writeChromeTrace(cfg.tracePath, comp.parts))
            fatal("campaign: cannot write Chrome trace to '%s'",
                  cfg.tracePath.c_str());
        std::printf("campaign: wrote shard timeline to %s\n",
                    cfg.tracePath.c_str());
    }
    return 0;
}

/** Job-name characters that survive into a spool filename. */
std::string
sanitizeName(const std::string &name)
{
    std::string s;
    for (char c : name)
        s += (std::isalnum(static_cast<unsigned char>(c)) ||
              c == '-' || c == '_')
            ? c
            : '_';
    return s.empty() ? std::string("job") : s;
}

std::string
jobFile(const std::string &spool, size_t index,
        const std::string &name, const char *ext)
{
    return spool + "/" + jobTokenName(index) + "-" +
        sanitizeName(name) + ext;
}

} // anonymous namespace

// =============== configuration ===============

void
campaignUsage(const char *prog, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s --spool DIR [options]\n"
        "Run the five-workload composite as a crash-tolerant campaign\n"
        "of supervised worker processes over a shared job spool.\n"
        "  --spool DIR          spool directory (manifest, job tokens,\n"
        "                       checkpoints, results, heartbeats, logs)\n"
        "  --shards N           worker processes to keep alive"
        " (default 2)\n"
        "  --cycles N           machine cycles per experiment"
        " (default 2000000)\n"
        "  --replicas N         copies of the five-workload set"
        " (default 1)\n"
        "  --checkpoint-interval N\n"
        "                       cycles per chunk/rolling checkpoint"
        " (default 250000)\n"
        "  --heartbeat-interval S\n"
        "                       max seconds between shard heartbeats"
        " (default 1)\n"
        "  --heartbeat-timeout S\n"
        "                       stale-heartbeat SIGKILL threshold;"
        " must exceed\n"
        "                       the interval (default 30)\n"
        "  --max-retries K      attempts before a job is quarantined"
        " as poison\n"
        "                       (default 3)\n"
        "  --backoff-base S     first retry delay; doubles per attempt"
        " (default 0.25)\n"
        "  --backoff-cap S      retry delay ceiling (default 8)\n"
        "  --stats-json PATH    write the composite stats registry as"
        " JSON\n"
        "  --perfetto PATH      write the shard timeline as a Chrome"
        " trace\n"
        "  --io-faults SPEC     inject host-I/O faults into this\n"
        "                       process (kind@N[~substr],... or\n"
        "                       rand=SEED; also via UPC780_IO_FAULTS)\n"
        "  --chaos-drill SEED   fault-free supervisor, every spawned\n"
        "                       shard gets a fault schedule derived\n"
        "                       from SEED; final stats must still be\n"
        "                       byte-identical to a clean run\n"
        "  --resume             continue a killed campaign from the"
        " spool\n"
        "  --help               this message\n"
        "A SIGINT/SIGTERM fans out to the shards, drains behind the\n"
        "per-job checkpoints, and exits 130; rerun with --resume.\n",
        prog);
}

CampaignConfig
CampaignConfig::parseFlags(int *argc, char **argv)
{
    const char *prog = argv[0];
    CampaignConfig cfg;
    if (parseBoolFlag(argc, argv, "help")) {
        campaignUsage(prog, stdout);
        std::exit(0);
    }
    std::string val;
    if (takeValueFlag(argc, argv, "spool", &val)) {
        if (val.empty())
            usageError(prog, "--spool requires a directory path");
        cfg.spool = val;
    }
    if (takeValueFlag(argc, argv, "shards", &val))
        cfg.shards = static_cast<unsigned>(
            takeCount(prog, "--shards", val));
    if (takeValueFlag(argc, argv, "cycles", &val))
        cfg.cycles = takeCount(prog, "--cycles", val);
    if (takeValueFlag(argc, argv, "replicas", &val))
        cfg.replicas = static_cast<unsigned>(
            takeCount(prog, "--replicas", val));
    if (takeValueFlag(argc, argv, "checkpoint-interval", &val))
        cfg.intervalCycles =
            takeCount(prog, "--checkpoint-interval", val);
    if (takeValueFlag(argc, argv, "heartbeat-interval", &val))
        cfg.heartbeatInterval =
            takeSeconds(prog, "--heartbeat-interval", val);
    if (takeValueFlag(argc, argv, "heartbeat-timeout", &val))
        cfg.heartbeatTimeout =
            takeSeconds(prog, "--heartbeat-timeout", val);
    if (takeValueFlag(argc, argv, "max-retries", &val))
        cfg.maxAttempts = static_cast<unsigned>(
            takeCount(prog, "--max-retries", val));
    if (takeValueFlag(argc, argv, "backoff-base", &val))
        cfg.backoffBase = takeSeconds(prog, "--backoff-base", val);
    if (takeValueFlag(argc, argv, "backoff-cap", &val))
        cfg.backoffCap = takeSeconds(prog, "--backoff-cap", val);
    if (takeValueFlag(argc, argv, "stats-json", &val))
        cfg.statsJsonPath = val;
    if (takeValueFlag(argc, argv, "perfetto", &val))
        cfg.tracePath = val;
    cfg.resume = parseBoolFlag(argc, argv, "resume");

    bool have_io_faults = takeValueFlag(argc, argv, "io-faults", &val);
    if (have_io_faults) {
        cfg.ioFaults = val;
    } else if (const char *env = std::getenv("UPC780_IO_FAULTS")) {
        if (*env)
            cfg.ioFaults = env;
    }
    if (!cfg.ioFaults.empty())
        // Validate now: a typo in a fault spec is fatal(1) from the
        // parser before a single process launches -- a chaos drill
        // that silently injected nothing would prove nothing.
        io::FaultPlan::parse(cfg.ioFaults);
    if (takeValueFlag(argc, argv, "chaos-drill", &val))
        cfg.chaosSeed = takeCount(prog, "--chaos-drill", val);

    cfg.shardMode = parseBoolFlag(argc, argv, "shard");
    bool have_shard_id = takeValueFlag(argc, argv, "shard-id", &val);
    if (have_shard_id)
        cfg.shardId = static_cast<unsigned>(
            takeIndex(prog, "--shard-id", val));
    if (takeValueFlag(argc, argv, "epoch", &val))
        cfg.epoch = takeStamp(prog, "--epoch", val);

    // Drill knobs (tests/CI only; deliberately undocumented in the
    // usage text, but validated like everything else).
    if (takeValueFlag(argc, argv, "drill-shard0-die-after-chunks",
                      &val))
        cfg.drillShard0DieAfterChunks =
            takeCount(prog, "--drill-shard0-die-after-chunks", val);
    if (takeValueFlag(argc, argv, "drill-die-after-results", &val))
        cfg.drillDieAfterResults = static_cast<unsigned>(
            takeCount(prog, "--drill-die-after-results", val));
    if (takeValueFlag(argc, argv, "drill-poison-job", &val))
        cfg.drillPoisonJob = static_cast<unsigned>(
            takeIndex(prog, "--drill-poison-job", val));
    if (takeValueFlag(argc, argv, "drill-die-after-chunks", &val))
        cfg.shardDieAfterChunks =
            takeCount(prog, "--drill-die-after-chunks", val);

    if (*argc > 1)
        usageError(prog, "unrecognized argument '%s'", argv[1]);

    // Nonsensical combinations are fatal up front: a campaign that
    // silently dropped one of these would run the wrong fleet.
    if (cfg.spool.empty()) {
        if (cfg.resume)
            usageError(prog, "--resume needs --spool to know where "
                       "the killed campaign left its state");
        if (cfg.shardMode)
            usageError(prog, "--shard requires --spool (shards are "
                       "spawned by the supervisor, not by hand)");
        usageError(prog, "--spool DIR is required");
    }
    if (cfg.shardMode && !have_shard_id)
        usageError(prog, "--shard requires --shard-id");
    if (!cfg.shardMode && have_shard_id)
        usageError(prog, "--shard-id is meaningless without --shard");
    if (cfg.shards == 0)
        usageError(prog, "--shards 0 would run no workers; use "
                   "--shards 1 or more");
    if (cfg.heartbeatTimeout <= cfg.heartbeatInterval)
        usageError(prog, "--heartbeat-timeout (%.3fs) must exceed "
                   "--heartbeat-interval (%.3fs), or every healthy "
                   "shard would be declared hung",
                   cfg.heartbeatTimeout, cfg.heartbeatInterval);
    if (cfg.backoffCap < cfg.backoffBase)
        usageError(prog, "--backoff-cap (%.3fs) is below "
                   "--backoff-base (%.3fs)", cfg.backoffCap,
                   cfg.backoffBase);
    if (cfg.chaosSeed) {
        if (have_io_faults)
            usageError(prog, "--chaos-drill and --io-faults are "
                       "mutually exclusive: the drill derives each "
                       "shard's schedule from the seed and keeps the "
                       "supervisor fault-free");
        if (cfg.shardMode)
            usageError(prog, "--chaos-drill belongs to the "
                       "supervisor; shards receive their derived "
                       "--io-faults schedule from it");
        if (!cfg.ioFaults.empty()) {
            // UPC780_IO_FAULTS is set in the environment.  The drill
            // contract is a clean supervisor, so ignore it loudly
            // rather than fault the merge process.
            warn("campaign: --chaos-drill ignores UPC780_IO_FAULTS "
                 "('%s') in this process", cfg.ioFaults.c_str());
            cfg.ioFaults.clear();
        }
    }
    return cfg;
}

// =============== spool geometry and tokens ===============

std::string
checkpointPath(const std::string &spool, size_t index,
               const std::string &name)
{
    return jobFile(spool, index, name, ".ckpt");
}

std::string
resultPath(const std::string &spool, size_t index,
           const std::string &name)
{
    return jobFile(spool, index, name, ".result");
}

std::string
manifestPath(const std::string &spool)
{
    return spool + "/manifest.ckpt";
}

std::string
campaignTodoPath(const CampaignConfig &cfg, size_t job)
{
    return cfg.spool + "/todo/" + jobTokenName(job);
}

std::string
campaignClaimPath(const CampaignConfig &cfg, size_t job,
                  unsigned shard)
{
    return cfg.spool + "/claimed/" + jobTokenName(job) + ".shard" +
        std::to_string(shard);
}

std::string
campaignQuarantinePath(const CampaignConfig &cfg, size_t job)
{
    return cfg.spool + "/quarantine/" + jobTokenName(job);
}

std::string
campaignHeartbeatPath(const CampaignConfig &cfg, unsigned shard)
{
    return cfg.spool + "/hb/shard" + std::to_string(shard) + ".hb";
}

std::string
campaignLogPath(const CampaignConfig &cfg, unsigned shard)
{
    return cfg.spool + "/logs/shard" + std::to_string(shard) + ".log";
}

std::string
campaignFencePath(const CampaignConfig &cfg, size_t job)
{
    return cfg.spool + "/fence/" + jobTokenName(job);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
writeResultFile(const std::string &path, const ExperimentResult &r)
{
    snap::Serializer s;
    s.beginSection("result.meta");
    s.putString(r.name);
    s.putDouble(r.wallSeconds);
    s.putDouble(r.startSeconds);
    s.putU32(r.worker);
    s.putU32(r.retries);
    s.putU64(r.resumeCycle);
    s.putDouble(r.retryWallSeconds);
    s.putU64(r.fence);
    s.endSection();

    s.beginSection("result.hist");
    r.hist.save(s);
    s.endSection();

    s.beginSection("result.hw");
    r.hw.counters.save(s);
    r.hw.cache.save(s);
    r.hw.tb.save(s);
    s.putU64(r.hw.faults.parityErrors);
    s.putU64(r.hw.faults.tbCorruptions);
    s.putU64(r.hw.faults.sbiTimeouts);
    s.putU64(r.hw.faults.machineChecks);
    s.putU64(r.hw.faults.cacheDisables);
    s.putU64(r.hw.faults.osMachineChecks);
    s.putU64(r.hw.ibLongwordFetches);
    s.putU64(r.hw.dataReads);
    s.putU64(r.hw.dataWrites);
    s.putU64(r.hw.terminalLinesIn);
    s.putU64(r.hw.terminalLinesOut);
    s.putU64(r.hw.diskTransfers);
    s.endSection();
    return s.writeFile(path);
}

bool
readResultFile(const std::string &path, ExperimentResult *out)
{
    if (!fileExists(path))
        return false;
    // A .result cut off at the instant of a SIGKILL (truncated, CRC
    // damage, version skew) means the job is NOT finished -- report
    // it loudly and let the caller re-run the job.  Aborting would
    // let one half-written file kill a whole campaign; skipping
    // silently would merge a lie.
    try {
        return readResultFileChecked(path, out);
    } catch (const snap::SnapshotError &e) {
        warn("result file '%s' is damaged (%s); treating the job as "
             "unfinished -- it will be re-run", path.c_str(),
             e.what());
        return false;
    }
}

bool
readResultFileChecked(const std::string &path, ExperimentResult *out)
{
    if (!fileExists(path))
        return false;
    snap::Deserializer d = snap::Deserializer::fromFile(path);
    ExperimentResult r;
    d.beginSection("result.meta");
    r.name = d.getString();
    r.wallSeconds = d.getDouble();
    r.startSeconds = d.getDouble();
    r.worker = d.getU32();
    r.retries = d.getU32();
    r.resumeCycle = d.getU64();
    r.retryWallSeconds = d.getDouble();
    r.fence = d.getU64();
    d.endSection();

    d.beginSection("result.hist");
    r.hist.restore(d);
    d.endSection();

    d.beginSection("result.hw");
    r.hw.counters.restore(d);
    r.hw.cache.restore(d);
    r.hw.tb.restore(d);
    r.hw.faults.parityErrors = d.getU64();
    r.hw.faults.tbCorruptions = d.getU64();
    r.hw.faults.sbiTimeouts = d.getU64();
    r.hw.faults.machineChecks = d.getU64();
    r.hw.faults.cacheDisables = d.getU64();
    r.hw.faults.osMachineChecks = d.getU64();
    r.hw.ibLongwordFetches = d.getU64();
    r.hw.dataReads = d.getU64();
    r.hw.dataWrites = d.getU64();
    r.hw.terminalLinesIn = d.getU64();
    r.hw.terminalLinesOut = d.getU64();
    r.hw.diskTransfers = d.getU64();
    d.endSection();
    d.finish();
    *out = std::move(r);
    return true;
}

void
writeManifest(const std::string &spool,
              const std::vector<SimJob> &jobs)
{
    snap::Serializer s;
    s.beginSection("pool.manifest");
    s.putU64(jobs.size());
    for (const SimJob &j : jobs) {
        s.putString(j.profile.name);
        s.putU64(j.profile.seed);
        s.putU64(j.sim.seed);
        s.putU64(j.cycles);
        s.putU64(j.weight);
    }
    s.endSection();
    // Nothing about the campaign is resumable without the manifest,
    // so a write that stays failed is fatal -- but a *transient*
    // failure at the very first spool write (an ENOSPC race, a flaky
    // mount) gets a few tries before it is allowed to kill the run.
    std::vector<uint8_t> image = s.finish();
    for (unsigned attempt = 1; attempt <= 5; ++attempt) {
        if (io::atomicWrite(manifestPath(spool), image.data(),
                            image.size()))
            return;
        warn("cannot write the campaign manifest to '%s' (attempt "
             "%u/5); retrying", spool.c_str(), attempt);
        ::usleep(50'000u * attempt);
    }
    fatal("cannot write the campaign manifest to '%s'", spool.c_str());
}

void
checkManifest(const std::string &spool,
              const std::vector<SimJob> &jobs)
{
    std::string path = manifestPath(spool);
    if (!fileExists(path))
        fatal("--resume: no manifest in '%s' (nothing to resume -- "
              "was the directory ever used as a campaign spool?)",
              spool.c_str());
    try {
        snap::Deserializer d = snap::Deserializer::fromFile(path);
        d.beginSection("pool.manifest");
        d.expectU64(jobs.size(), "job count");
        for (const SimJob &j : jobs) {
            std::string name = d.getString();
            if (name != j.profile.name)
                fatal("--resume: manifest job '%s' does not match "
                      "this run's job '%s' (different composite)",
                      name.c_str(), j.profile.name.c_str());
            d.expectU64(j.profile.seed, "workload seed");
            d.expectU64(j.sim.seed, "machine seed");
            d.expectU64(j.cycles, "cycle budget");
            d.expectU64(j.weight, "job weight");
        }
        d.endSection();
        d.finish();
    } catch (const snap::SnapshotError &e) {
        fatal("--resume: %s", e.what());
    }
}

uint64_t
readFenceFile(const std::string &path)
{
    std::string text;
    io::Status st = io::readFileText(path, &text, 256);
    if (!st) {
        if (st.err != ENOENT)
            warn("campaign: fence file '%s' unreadable (%s: %s); "
                 "treating the job's claim epoch as 0", path.c_str(),
                 st.stage, std::strerror(st.err));
        return 0;
    }
    unsigned long long fence = 0;
    if (std::sscanf(text.c_str(), "fence %llu", &fence) != 1) {
        warn("campaign: fence file '%s' is damaged; treating the "
             "job's claim epoch as 0", path.c_str());
        return 0;
    }
    return fence;
}

bool
writeFenceFile(const std::string &path, uint64_t fence)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "fence %llu\n",
                  static_cast<unsigned long long>(fence));
    return static_cast<bool>(io::atomicWriteText(path, buf));
}

uint64_t
bumpJobFence(const CampaignConfig &cfg, size_t job, JobToken *tok)
{
    std::string path = campaignFencePath(cfg, job);
    // max() guards against a fence file lost to a damaged read: the
    // token itself then carries the floor, so the epoch still never
    // regresses.
    uint64_t next = std::max(tok->fence, readFenceFile(path)) + 1;
    tok->fence = next;
    if (!writeFenceFile(path, next))
        // The requeue still proceeds: an unwritable fence file only
        // costs the split-brain guard for this job, and the next
        // bump's max() recovers the epoch from the token.
        warn("campaign: cannot persist fence %llu for job %zu",
             static_cast<unsigned long long>(next), job);
    return next;
}

bool
writeJobTokenFile(const std::string &path, const JobToken &t)
{
    std::string text = "attempts " + std::to_string(t.attempts) +
        "\nnotbefore " + fmtDouble(t.notBefore) + "\nfence " +
        std::to_string(t.fence) + "\n";
    if (!t.lastError.empty()) {
        // One line only: the token is retry bookkeeping, not a log.
        std::string err = t.lastError.substr(0, 512);
        std::replace(err.begin(), err.end(), '\n', ' ');
        text += "error " + err + "\n";
    }
    return static_cast<bool>(io::atomicWriteText(path, text));
}

bool
readJobTokenFile(const std::string &path, JobToken *out)
{
    *out = JobToken();
    // Tokens are a few lines; a multi-megabyte "token" is damage (or
    // mischief) and must not be slurped whole.  The cap makes io::
    // fail the read, which lands in the damaged-token path below.
    std::string text;
    io::Status st = io::readFileText(path, &text, 64 * 1024);
    if (!st) {
        if (st.err == ENOENT)
            return false;
        warn("campaign: token '%s' unreadable (%s: %s); treating it "
             "as a fresh attempt record", path.c_str(), st.stage,
             std::strerror(st.err));
        return true;
    }
    // Parse from memory, splitting on '\n' by index: an embedded NUL
    // terminates at most that line's sscanf, never the scan itself.
    bool sane = true;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        unsigned u = 0;
        double d = 0.0;
        unsigned long long f = 0;
        if (std::sscanf(line.c_str(), "attempts %u", &u) == 1)
            out->attempts = u;
        else if (std::sscanf(line.c_str(), "notbefore %lf", &d) == 1)
            out->notBefore = d;
        else if (std::sscanf(line.c_str(), "fence %llu", &f) == 1)
            out->fence = f;
        else if (line.compare(0, 6, "error ") == 0)
            out->lastError = line.substr(6);
        else
            sane = false;
    }
    if (!sane)
        // A half-understood token is still a token: warn and keep the
        // fields that parsed -- losing retry bookkeeping must never
        // cost the job itself.
        warn("campaign: token '%s' is damaged; treating it as a "
             "fresh attempt record", path.c_str());
    return true;
}

ClaimOutcome
claimByRename(const std::string &from, const std::string &to)
{
    if (io::renameFile(from, to))
        return ClaimOutcome::Won;
    io::Status st = io::lastStatus();
    if (st.err == ENOENT)
        return ClaimOutcome::Lost;
    if (fileExists(to) && !fileExists(from))
        // The rename reported failure but demonstrably happened (the
        // error came from somewhere past the commit point).  Within
        // one directory that makes us the owner: take the win rather
        // than abandon a token nobody else can claim.
        return ClaimOutcome::Won;
    warn("campaign: rename '%s' -> '%s' failed: %s", from.c_str(),
         to.c_str(), std::strerror(st.err));
    return ClaimOutcome::Error;
}

double
backoffSeconds(const CampaignConfig &cfg, unsigned attempts)
{
    unsigned doublings = attempts ? attempts - 1 : 0;
    // Eight doublings saturate any sane cap; avoids overflow games.
    double d = cfg.backoffBase *
        std::ldexp(1.0, static_cast<int>(std::min(doublings, 8u)));
    return std::min(d, cfg.backoffCap);
}

double
campaignWallNow()
{
    struct timeval tv;
    ::gettimeofday(&tv, nullptr);
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
}

bool
heartbeatWrite(const std::string &path, long pid, uint64_t seq,
               long job)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "pid %ld\nseq %llu\njob %ld\n",
                  pid, static_cast<unsigned long long>(seq), job);
    return static_cast<bool>(io::atomicWriteText(path, buf));
}

bool
readHeartbeatFile(const std::string &path, HeartbeatInfo *out)
{
    *out = HeartbeatInfo();
    std::string text;
    if (!io::readFileText(path, &text, 4096))
        return false;
    long pid = -1;
    unsigned long long seq = 0;
    long job = -1;
    bool have_pid = false;
    bool have_seq = false;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (std::sscanf(line.c_str(), "pid %ld", &pid) == 1)
            have_pid = true;
        else if (std::sscanf(line.c_str(), "seq %llu", &seq) == 1)
            have_seq = true;
        else
            std::sscanf(line.c_str(), "job %ld", &job);
    }
    if (!have_pid || !have_seq)
        return false;
    out->pid = pid;
    out->seq = seq;
    out->job = job;
    return true;
}

double
heartbeatAgeSeconds(const std::string &path)
{
    return io::fileAgeSeconds(path);
}

std::vector<SimJob>
campaignJobs(const CampaignConfig &cfg)
{
    std::vector<SimJob> jobs;
    for (unsigned r = 0; r < cfg.replicas; ++r) {
        for (const auto &prof : allProfiles()) {
            WorkloadProfile p = prof;
            if (r) {
                p.name += "#" + std::to_string(r);
                // A fixed odd stride keeps replica seeds distinct and
                // reproducible from the manifest alone.
                p.seed += 7919ull * r;
            }
            jobs.push_back(SimJob::forProfile(p, cfg.cycles));
        }
    }
    if (cfg.drillPoisonJob < jobs.size())
        // Poison drill: this job raises a SimError at its first poll
        // of every attempt, driving the quarantine path.  RunLimits
        // are not part of the manifest, so supervisor and shards
        // agree on the job list regardless.
        jobs[cfg.drillPoisonJob].limits.tripCycle = 1;
    return jobs;
}

// =============== shard worker ===============

namespace
{

struct ShardCtx
{
    const CampaignConfig &cfg;
    std::vector<SimJob> jobs;
    std::string hbPath;
    uint64_t seq = 0;
    uint64_t chunksDone = 0;
    double lastBeat = 0.0;
    bool ckptPaused = false;     ///< ENOSPC degraded mode (see below)
    uint64_t ckptRetryAt = 0;    ///< chunksDone at which to re-probe
};

/** Chunks between checkpoint re-probes while ENOSPC-paused. */
constexpr uint64_t kCkptRetryChunks = 8;

/**
 * Write the rolling checkpoint, with the ENOSPC degraded mode: a full
 * disk pauses checkpointing loudly and keeps the simulation running
 * (crash recovery falls back to older state or the seed) instead of
 * letting every shard die on the same full disk.  While paused, a
 * probe write every kCkptRetryChunks chunks notices a cleaned disk
 * and resumes.  Other write failures warn (inside io::) and retry at
 * the next boundary.
 */
void
shardSaveCheckpoint(ShardCtx &c, Experiment &exp,
                    const std::string &cpath)
{
    if (c.ckptPaused && c.chunksDone < c.ckptRetryAt)
        return;
    if (exp.saveFile(cpath)) {
        if (c.ckptPaused) {
            c.ckptPaused = false;
            warn("shard %u: disk space recovered; checkpointing "
                 "resumed at '%s'", c.cfg.shardId, cpath.c_str());
        }
        return;
    }
    if (io::lastStatus().err == ENOSPC) {
        if (!c.ckptPaused)
            warn("shard %u: DEGRADED: checkpoint '%s' failed with "
                 "ENOSPC; checkpointing is paused and progress "
                 "continues unprotected (a crash now falls back to "
                 "the last good checkpoint or the job seed); will "
                 "re-probe every %llu chunks", c.cfg.shardId,
                 cpath.c_str(),
                 static_cast<unsigned long long>(kCkptRetryChunks));
        c.ckptPaused = true;
        c.ckptRetryAt = c.chunksDone + kCkptRetryChunks;
    }
}

/** Refresh the heartbeat when it is due (or forced).  Cheap enough to
 *  call at every chunk boundary. */
void
beat(ShardCtx &c, long job, bool force)
{
    double now = campaignWallNow();
    if (!force && now - c.lastBeat < c.cfg.heartbeatInterval * 0.5)
        return;
    heartbeatWrite(c.hbPath, static_cast<long>(::getpid()), ++c.seq,
                   job);
    c.lastBeat = now;
}

/**
 * One guarded, chunked, checkpointed attempt at job @p i.  Restores
 * from the job's rolling checkpoint when one exists (the previous
 * holder crashed or drained mid-run); an unusable checkpoint costs
 * the saved cycles, never the job.
 *
 * @return True when the result was produced; false with *err filled
 * on a SimError, or *interrupted set when a drain request stopped the
 * attempt behind its final checkpoint.
 */
bool
runShardJobAttempt(ShardCtx &c, size_t i, ExperimentResult *out,
                   std::string *err, bool *interrupted)
{
    const SimJob &job = c.jobs[i];
    std::string cpath = checkpointPath(c.cfg.spool, i, job.profile.name);
    try {
        guard::Scope scope(job.profile.name, job.sim.seed);
        auto make = [&job] {
            return std::make_unique<Experiment>(job.profile,
                                                job.cycles, job.sim,
                                                job.vms, job.limits);
        };
        std::unique_ptr<Experiment> exp = make();
        uint64_t resume_cycle = 0;
        if (fileExists(cpath)) {
            try {
                exp->restoreFile(cpath);
                resume_cycle = exp->cycle();
            } catch (const snap::SnapshotError &e) {
                warn("shard %u: checkpoint '%s' unusable (%s); job "
                     "'%s' restarts from its seed", c.cfg.shardId,
                     cpath.c_str(), e.what(),
                     job.profile.name.c_str());
                exp = make();
            }
        }
        const uint64_t chunk =
            std::max<uint64_t>(c.cfg.intervalCycles, 1);
        double a0 = campaignWallNow();
        while (!exp->runChunk(chunk)) {
            shardSaveCheckpoint(c, *exp, cpath);
            ++c.chunksDone;
            if (c.cfg.shardDieAfterChunks &&
                c.chunksDone >= c.cfg.shardDieAfterChunks) {
                // Crash drill: die the hard way, mid-job, exactly
                // like a SIGKILLed fleet member -- claim held,
                // rolling checkpoint on disk, no cleanup.
                ::raise(SIGKILL);
            }
            beat(c, static_cast<long>(i), false);
            if (interrupt::requested()) {
                // The checkpoint just written is the final one.
                *interrupted = true;
                return false;
            }
        }
        ExperimentResult r = exp->takeResult();
        r.resumeCycle = resume_cycle;
        r.wallSeconds = campaignWallNow() - a0;
        r.startSeconds =
            c.cfg.epoch > 0.0 ? a0 - c.cfg.epoch : 0.0;
        r.worker = c.cfg.shardId;
        *out = std::move(r);
        return true;
    } catch (const std::exception &e) {
        *err = e.what();
        return false;
    }
}

} // anonymous namespace

int
runCampaignShard(const CampaignConfig &cfg)
{
    interrupt::install();
    ShardCtx c{cfg, campaignJobs(cfg),
               campaignHeartbeatPath(cfg, cfg.shardId)};
    // A shard must prove it is working the campaign the spool
    // describes before touching a single token.
    checkManifest(cfg.spool, c.jobs);
    beat(c, -1, true);
    inform("shard %u: joined campaign '%s' (%zu jobs)", cfg.shardId,
           cfg.spool.c_str(), c.jobs.size());

    const size_t n = c.jobs.size();
    // Claim-rename I/O errors (EIO, not a lost race) per job: retried
    // with the campaign's capped backoff, quarantined for good after
    // maxAttempts -- a token on a broken disk must not spin forever.
    std::vector<unsigned> claimErrors(n, 0);
    std::vector<double> claimRetryAt(n, 0.0);
    for (;;) {
        if (interrupt::requested())
            return interrupt::reportInterrupted(
                "shard drained behind its checkpoints", 0, true);
        bool ran_one = false;
        bool backing_off = false;
        for (size_t i = 0; i < n; ++i) {
            std::string todo = campaignTodoPath(cfg, i);
            if (!fileExists(todo))
                continue;
            std::string rpath =
                resultPath(cfg.spool, i, c.jobs[i].profile.name);
            if (fileExists(rpath)) {
                // Defensive: a token for a finished job is stale
                // bookkeeping from some earlier crash -- retire it.
                ::unlink(todo.c_str());
                continue;
            }
            if (claimRetryAt[i] > campaignWallNow()) {
                backing_off = true;
                continue;
            }
            std::string claim =
                campaignClaimPath(cfg, i, cfg.shardId);
            ClaimOutcome got = claimByRename(todo, claim);
            if (got == ClaimOutcome::Lost)
                continue; // another shard won the rename
            if (got == ClaimOutcome::Error) {
                ++claimErrors[i];
                if (claimErrors[i] >= cfg.maxAttempts) {
                    JobToken qtok;
                    readJobTokenFile(todo, &qtok);
                    qtok.lastError = "claim rename failed " +
                        std::to_string(claimErrors[i]) + " time(s)";
                    warn("shard %u: job %zu '%s' QUARANTINED: %s",
                         cfg.shardId, i,
                         c.jobs[i].profile.name.c_str(),
                         qtok.lastError.c_str());
                    writeJobTokenFile(
                        campaignQuarantinePath(cfg, i), qtok);
                    ::unlink(todo.c_str());
                    continue;
                }
                double delay = backoffSeconds(cfg, claimErrors[i]);
                warn("shard %u: claim of job %zu hit an I/O error "
                     "(attempt %u/%u); retrying in %.2fs",
                     cfg.shardId, i, claimErrors[i], cfg.maxAttempts,
                     delay);
                claimRetryAt[i] = campaignWallNow() + delay;
                backing_off = true;
                continue;
            }
            claimErrors[i] = 0;
            JobToken tok;
            readJobTokenFile(claim, &tok);
            uint64_t highWater =
                readFenceFile(campaignFencePath(cfg, i));
            if (tok.fence < highWater) {
                // A fence-regressed token (hand-edited, or restored
                // from a backup) must not write results the merge
                // will reject: adopt the durable high-water mark.
                warn("shard %u: job %zu token fence %llu is behind "
                     "the high-water mark %llu; adopting the mark",
                     cfg.shardId, i,
                     static_cast<unsigned long long>(tok.fence),
                     static_cast<unsigned long long>(highWater));
                tok.fence = highWater;
            }
            if (tok.notBefore > campaignWallNow()) {
                // Claimed too early: hand it back and keep looking.
                // A hand-back that errors but didn't happen leaves
                // the claim with us -- running the job early is safe
                // (backoff is pacing, not correctness), so fall
                // through instead of stranding the token.
                if (claimByRename(claim, todo) != ClaimOutcome::Error
                    || fileExists(todo)) {
                    backing_off = true;
                    continue;
                }
                warn("shard %u: cannot hand back early claim of job "
                     "%zu; running it ahead of its backoff window",
                     cfg.shardId, i);
            }
            beat(c, static_cast<long>(i), true);
            ExperimentResult r;
            std::string err;
            bool interrupted = false;
            if (runShardJobAttempt(c, i, &r, &err, &interrupted)) {
                r.retries = tok.attempts;
                r.fence = tok.fence;
                if (readFenceFile(campaignFencePath(cfg, i)) >
                    tok.fence) {
                    // Fenced out mid-run: the supervisor declared us
                    // dead and requeued the job.  Our result would be
                    // rejected at merge; don't publish it, and leave
                    // the token with the new epoch's owner.
                    warn("shard %u: job %zu '%s' claim superseded "
                         "(fence advanced past %llu); discarding "
                         "this attempt's result", cfg.shardId, i,
                         c.jobs[i].profile.name.c_str(),
                         static_cast<unsigned long long>(tok.fence));
                    ::unlink(claim.c_str());
                } else if (!writeResultFile(rpath, r)) {
                    // Requeue with an attempt charged: persistent
                    // result-write failure must eventually quarantine
                    // rather than silently strand the job (the old
                    // behavior dropped the token here and the
                    // campaign could only fatal out).
                    ++tok.attempts;
                    tok.lastError = "result write failed";
                    if (tok.attempts >= cfg.maxAttempts) {
                        warn("shard %u: job %zu '%s' QUARANTINED: "
                             "finished %u time(s) but its result "
                             "could never be written", cfg.shardId, i,
                             c.jobs[i].profile.name.c_str(),
                             tok.attempts);
                        writeJobTokenFile(
                            campaignQuarantinePath(cfg, i), tok);
                    } else {
                        double delay =
                            backoffSeconds(cfg, tok.attempts);
                        warn("shard %u: job %zu '%s' finished but "
                             "its result could not be written; "
                             "requeued with %.2fs backoff",
                             cfg.shardId, i,
                             c.jobs[i].profile.name.c_str(), delay);
                        tok.notBefore = campaignWallNow() + delay;
                        writeJobTokenFile(todo, tok);
                    }
                    ::unlink(claim.c_str());
                } else {
                    ::unlink(checkpointPath(
                        cfg.spool, i, c.jobs[i].profile.name).c_str());
                    ::unlink(claim.c_str());
                }
            } else if (interrupted) {
                // Requeue with no attempt charged: a drain is not the
                // job's fault, and the checkpoint keeps its cycles.
                tok.notBefore = 0.0;
                writeJobTokenFile(todo, tok);
                ::unlink(claim.c_str());
            } else {
                ++tok.attempts;
                tok.lastError = err;
                if (tok.attempts >= cfg.maxAttempts) {
                    warn("shard %u: job %zu '%s' QUARANTINED after "
                         "%u attempt(s): %s", cfg.shardId, i,
                         c.jobs[i].profile.name.c_str(), tok.attempts,
                         err.c_str());
                    writeJobTokenFile(
                        campaignQuarantinePath(cfg, i), tok);
                    ::unlink(claim.c_str());
                } else {
                    double delay = backoffSeconds(cfg, tok.attempts);
                    warn("shard %u: job %zu '%s' failed (attempt "
                         "%u/%u): %s; requeued with %.2fs backoff",
                         cfg.shardId, i,
                         c.jobs[i].profile.name.c_str(), tok.attempts,
                         cfg.maxAttempts, err.c_str(), delay);
                    tok.notBefore = campaignWallNow() + delay;
                    writeJobTokenFile(todo, tok);
                    ::unlink(claim.c_str());
                }
            }
            ran_one = true;
            break; // rescan from job 0 (fresh view of the spool)
        }
        if (interrupt::requested())
            continue; // handled at the top of the loop
        if (!ran_one) {
            if (!backing_off && dirDrained(cfg.spool + "/todo") &&
                dirDrained(cfg.spool + "/claimed")) {
                inform("shard %u: spool drained, exiting",
                       cfg.shardId);
                return 0;
            }
            beat(c, -1, false);
            sleepMs(20);
        }
    }
}

// =============== supervisor ===============

namespace
{

struct Child
{
    pid_t pid = -1;
    unsigned id = 0;
    double spawned = 0.0;
    bool alive = false;
    // Beat-counter liveness: when the shard's heartbeat seq was last
    // seen to advance.  mtime is only the fallback for an unreadable
    // heartbeat file (see readHeartbeatFile).
    bool seqSeen = false;
    uint64_t lastSeq = 0;
    double lastAdvance = 0.0;
};

std::string
selfExePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "/proc/self/exe";
    buf[n] = '\0';
    return buf;
}

pid_t
spawnShard(const CampaignConfig &cfg, unsigned id,
           const std::string &self, double epoch)
{
    std::string log = campaignLogPath(cfg, id);
    pid_t pid = ::fork();
    if (pid < 0)
        fatal("campaign: fork failed: %s", std::strerror(errno));
    if (pid != 0)
        return pid;

    // Child: per-shard log, then exec ourselves in --shard mode with
    // the full campaign description so the manifest check can verify
    // we are all running the same fleet.
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
    if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        if (fd > 2)
            ::close(fd);
    }
    std::vector<std::string> args = {
        self, "--shard", "--spool", cfg.spool,
        "--shard-id", std::to_string(id),
        "--cycles", std::to_string(cfg.cycles),
        "--replicas", std::to_string(cfg.replicas),
        "--checkpoint-interval", std::to_string(cfg.intervalCycles),
        "--heartbeat-interval", fmtDouble(cfg.heartbeatInterval),
        "--heartbeat-timeout", fmtDouble(cfg.heartbeatTimeout),
        "--max-retries", std::to_string(cfg.maxAttempts),
        "--backoff-base", fmtDouble(cfg.backoffBase),
        "--backoff-cap", fmtDouble(cfg.backoffCap),
        "--epoch", fmtDouble(epoch),
    };
    if (cfg.drillPoisonJob != CampaignConfig::kNoJob) {
        args.emplace_back("--drill-poison-job");
        args.emplace_back(std::to_string(cfg.drillPoisonJob));
    }
    if (id == 0 && cfg.drillShard0DieAfterChunks) {
        args.emplace_back("--drill-die-after-chunks");
        args.emplace_back(
            std::to_string(cfg.drillShard0DieAfterChunks));
    }
    if (cfg.chaosSeed) {
        // Every spawn (including respawns after a chaos-induced
        // death) gets its own schedule, derived from the drill seed
        // and the spawn id so reruns of the same seed are identical.
        io::FaultPlan plan = io::FaultPlan::randomized(
            cfg.chaosSeed * 1000003ull + id);
        args.emplace_back("--io-faults");
        args.emplace_back(plan.format());
    } else if (!cfg.ioFaults.empty()) {
        args.emplace_back("--io-faults");
        args.emplace_back(cfg.ioFaults);
    }
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(self.c_str(), argv.data());
    std::fprintf(stderr, "campaign: exec '%s' failed: %s\n",
                 self.c_str(), std::strerror(errno));
    ::_exit(127);
}

/**
 * Return a dead shard's claimed tokens to todo/.  A crash while
 * holding the claim counts as a failed attempt (the job may be the
 * poison that killed the shard); supervisor restart does not.
 */
void
reclaimShardClaims(const CampaignConfig &cfg,
                   const std::vector<SimJob> &jobs, unsigned shard,
                   bool countAttempt)
{
    for (size_t i = 0; i < jobs.size(); ++i) {
        std::string claim = campaignClaimPath(cfg, i, shard);
        if (!fileExists(claim))
            continue;
        if (fileExists(resultPath(cfg.spool, i, jobs[i].profile.name))) {
            // Crashed between writing the result and retiring the
            // token: the measurement is safe, only cleanup was lost.
            ::unlink(claim.c_str());
            continue;
        }
        JobToken tok;
        readJobTokenFile(claim, &tok);
        if (countAttempt) {
            ++tok.attempts;
            if (tok.lastError.empty())
                tok.lastError = "shard " + std::to_string(shard) +
                    " died holding the claim";
            if (tok.attempts >= cfg.maxAttempts) {
                warn("campaign: job %zu '%s' QUARANTINED after %u "
                     "attempt(s) (last holder: shard %u)", i,
                     jobs[i].profile.name.c_str(), tok.attempts,
                     shard);
                writeJobTokenFile(campaignQuarantinePath(cfg, i),
                                  tok);
                ::unlink(claim.c_str());
                continue;
            }
            tok.notBefore =
                campaignWallNow() + backoffSeconds(cfg, tok.attempts);
        }
        // Fence the old holder out *before* the token becomes
        // claimable again: if the "dead" shard is actually a zombie
        // that finishes later, its result carries the old epoch and
        // the merge rejects it.
        bumpJobFence(cfg, i, &tok);
        warn("campaign: reclaimed job %zu '%s' from shard %u "
             "(claim epoch now %llu)", i,
             jobs[i].profile.name.c_str(), shard,
             static_cast<unsigned long long>(tok.fence));
        writeJobTokenFile(campaignTodoPath(cfg, i), tok);
        ::unlink(claim.c_str());
    }
}

/** Sweep claimed/ for tokens left by a previous fleet (resume): every
 *  claim in a freshly resumed spool is stale by construction. */
void
reclaimAllClaims(const CampaignConfig &cfg,
                 const std::vector<SimJob> &jobs)
{
    DIR *d = ::opendir((cfg.spool + "/claimed").c_str());
    if (!d)
        return;
    std::vector<std::string> names;
    while (struct dirent *e = ::readdir(d)) {
        if (e->d_name[0] != '.')
            names.emplace_back(e->d_name);
    }
    ::closedir(d);
    for (const std::string &name : names) {
        size_t job = 0;
        unsigned shard = 0;
        if (std::sscanf(name.c_str(), "job%zu.shard%u", &job,
                        &shard) != 2 ||
            job >= jobs.size()) {
            warn("campaign: ignoring unrecognized claim '%s'",
                 name.c_str());
            continue;
        }
        // No attempt charged: the fleet died around the job, which
        // says nothing about the job itself.
        reclaimShardClaims(cfg, jobs, shard, /*countAttempt=*/false);
    }
}

} // anonymous namespace

int
runCampaignSupervisor(const CampaignConfig &cfg)
{
    std::vector<SimJob> jobs = campaignJobs(cfg);
    for (const char *sub : {"", "/todo", "/claimed", "/quarantine",
                            "/hb", "/logs", "/fence"})
        ensureDir(cfg.spool + sub);

    if (cfg.resume) {
        checkManifest(cfg.spool, jobs);
    } else {
        if (fileExists(manifestPath(cfg.spool)))
            fatal("campaign: spool '%s' already holds a campaign; "
                  "pass --resume to continue it or point --spool at "
                  "a fresh directory", cfg.spool.c_str());
        writeManifest(cfg.spool, jobs);
    }

    interrupt::install();

    // The one fenced-result check, shared by resume spooling, the
    // completion test and the final merge.  A result counts only when
    // it is intact and carries the job's current claim epoch.  A
    // damaged one (readResultFile warned) or a fence-stale one -- a
    // zombie shard's write from a claim epoch a supervisor already
    // revoked -- is unlinked: the job is not finished.
    auto takeResult = [&](size_t i, ExperimentResult *out) {
        std::string rpath =
            resultPath(cfg.spool, i, jobs[i].profile.name);
        if (readResultFile(rpath, out)) {
            uint64_t highWater =
                readFenceFile(campaignFencePath(cfg, i));
            if (out->fence >= highWater)
                return true;
            warn("campaign: job %zu '%s' result carries stale fence "
                 "%llu < %llu; rejected, the job is not finished", i,
                 jobs[i].profile.name.c_str(),
                 static_cast<unsigned long long>(out->fence),
                 static_cast<unsigned long long>(highWater));
        }
        ::unlink(rpath.c_str());
        return false;
    };

    // ---- Spool the tokens. ----
    for (size_t i = 0; i < jobs.size(); ++i) {
        std::string todo = campaignTodoPath(cfg, i);
        if (!cfg.resume) {
            writeJobTokenFile(todo, JobToken());
            continue;
        }
        ExperimentResult scratch;
        if (takeResult(i, &scratch))
            continue; // finished by the previous fleet
        if (fileExists(campaignQuarantinePath(cfg, i)))
            continue; // poison stays quarantined across resumes
        if (!fileExists(todo) &&
            !fileExists(campaignClaimPath(cfg, i, 0)))
            // May still be claimed under some shard id; the claim
            // sweep below returns those.  Anything truly lost gets a
            // fresh token here.
            writeJobTokenFile(todo, JobToken());
    }
    if (cfg.resume)
        reclaimAllClaims(cfg, jobs);

    // ---- Launch the fleet. ----
    const std::string self = selfExePath();
    const double epoch = campaignWallNow();
    std::vector<Child> children;
    unsigned next_id = 0;
    unsigned spawns_left = cfg.shards +
        cfg.maxAttempts * static_cast<unsigned>(jobs.size()) + 8;
    auto launch = [&] {
        Child c;
        c.id = next_id++;
        c.spawned = campaignWallNow();
        c.pid = spawnShard(cfg, c.id, self, epoch);
        c.alive = true;
        --spawns_left;
        children.push_back(c);
    };
    inform("campaign: %zu job(s) on %u shard process(es), spool '%s'",
           jobs.size(), cfg.shards, cfg.spool.c_str());
    for (unsigned s = 0; s < cfg.shards && spawns_left; ++s)
        launch();

    // ---- Supervise. ----
    auto countResults = [&] {
        size_t done = 0;
        for (size_t i = 0; i < jobs.size(); ++i)
            if (fileExists(
                    resultPath(cfg.spool, i, jobs[i].profile.name)))
                ++done;
        return done;
    };
    std::vector<bool> validated(jobs.size(), false);
    // A job is *orphaned* when it has no usable result and its token
    // exists nowhere (todo/any claim/quarantine) -- the trace of a
    // token write that an injected I/O fault ate, or of a result the
    // fenced check just rejected.  The claim rename is atomic and
    // every other transition writes the destination before unlinking
    // the source, so a steady state with no token is never a race in
    // progress: heal it with a fresh token at the current claim epoch
    // instead of spinning the fleet to death.
    auto jobHeldByAnyShard = [&](size_t i) {
        std::string prefix = jobTokenName(i) + ".shard";
        DIR *d = ::opendir((cfg.spool + "/claimed").c_str());
        if (!d)
            return false;
        bool held = false;
        while (struct dirent *e = ::readdir(d)) {
            if (std::strncmp(e->d_name, prefix.c_str(),
                             prefix.size()) == 0) {
                held = true;
                break;
            }
        }
        ::closedir(d);
        return held;
    };
    auto healOrphan = [&](size_t i) {
        if (fileExists(campaignTodoPath(cfg, i)) ||
            jobHeldByAnyShard(i))
            return;
        JobToken tok;
        tok.fence = readFenceFile(campaignFencePath(cfg, i));
        warn("campaign: job %zu '%s' has no result and no token "
             "anywhere; respooling it", i,
             jobs[i].profile.name.c_str());
        writeJobTokenFile(campaignTodoPath(cfg, i), tok);
    };
    auto campaignDone = [&] {
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (validated[i] ||
                fileExists(campaignQuarantinePath(cfg, i)))
                continue;
            ExperimentResult scratch;
            if (takeResult(i, &scratch)) {
                validated[i] = true;
                continue;
            }
            healOrphan(i);
            return false;
        }
        return true;
    };
    const double sweep_every =
        std::clamp(cfg.heartbeatTimeout / 4.0, 0.05, 1.0);
    double last_sweep = campaignWallNow();
    bool fanned_out = false;
    bool drill_fired = false;
    for (;;) {
        // 1. Interrupt fan-out: tell every shard to drain behind its
        //    checkpoint; they exit 130 on their own.
        if (interrupt::requested() && !fanned_out) {
            warn("campaign: interrupt -- draining %zu shard(s)",
                 children.size());
            for (Child &c : children)
                if (c.alive)
                    ::kill(c.pid, SIGTERM);
            fanned_out = true;
        }
        // 2. Reap exits.  A crash (signal, nonzero exit) reclaims the
        //    shard's claims and spawns a replacement.
        int status = 0;
        pid_t p;
        while ((p = ::waitpid(-1, &status, WNOHANG)) > 0) {
            for (Child &c : children) {
                if (c.pid != p || !c.alive)
                    continue;
                c.alive = false;
                bool crashed = WIFSIGNALED(status) ||
                    (WIFEXITED(status) && WEXITSTATUS(status) != 0 &&
                     WEXITSTATUS(status) != interrupt::exitCode);
                if (crashed && !interrupt::requested()) {
                    warn("campaign: shard %u (pid %ld) died "
                         "(%s %d); reclaiming its jobs", c.id,
                         static_cast<long>(p),
                         WIFSIGNALED(status) ? "signal" : "exit",
                         WIFSIGNALED(status) ? WTERMSIG(status)
                                             : WEXITSTATUS(status));
                    reclaimShardClaims(cfg, jobs, c.id,
                                       /*countAttempt=*/true);
                    if (!campaignDone() && spawns_left)
                        launch();
                }
                break;
            }
        }
        // 3. Liveness sweep: a live child with a stale heartbeat is
        //    hung -- SIGKILL it; the reap above reclaims its jobs.
        double now = campaignWallNow();
        if (now - last_sweep >= sweep_every) {
            last_sweep = now;
            for (Child &c : children) {
                if (!c.alive)
                    continue;
                std::string hb = campaignHeartbeatPath(cfg, c.id);
                HeartbeatInfo info;
                double age;
                if (readHeartbeatFile(hb, &info)) {
                    // Liveness is the beat *counter* advancing, not
                    // the file's mtime: a coarse-timestamp (or
                    // deliberately lied-about) mtime must not get a
                    // healthy shard SIGKILLed, and a shard stuck
                    // rewriting the same seq is still hung.
                    if (!c.seqSeen || info.seq != c.lastSeq) {
                        c.seqSeen = true;
                        c.lastSeq = info.seq;
                        c.lastAdvance = now;
                    }
                    age = now - c.lastAdvance;
                } else {
                    age = heartbeatAgeSeconds(hb);
                    if (age < 0.0)
                        age = now - c.spawned; // never beat yet
                }
                if (age > cfg.heartbeatTimeout) {
                    warn("campaign: shard %u (pid %ld) heartbeat "
                         "stale (%.1fs > %.1fs); SIGKILL + reclaim",
                         c.id, static_cast<long>(c.pid), age,
                         cfg.heartbeatTimeout);
                    ::kill(c.pid, SIGKILL);
                }
            }
        }
        // 4. Supervisor-death drill: once N results exist, the whole
        //    fleet loses power, supervisor included.
        if (cfg.drillDieAfterResults && !drill_fired &&
            countResults() >= cfg.drillDieAfterResults) {
            drill_fired = true;
            for (Child &c : children)
                if (c.alive)
                    ::kill(c.pid, SIGKILL);
            ::raise(SIGKILL);
        }
        bool any_alive = std::any_of(
            children.begin(), children.end(),
            [](const Child &c) { return c.alive; });
        if (!interrupt::requested() && campaignDone())
            break;
        if (interrupt::requested() && !any_alive)
            break;
        if (!any_alive && !interrupt::requested()) {
            if (!spawns_left)
                fatal("campaign: all shards dead and the respawn "
                      "budget is exhausted; the spool in '%s' is "
                      "intact -- investigate and rerun with --resume",
                      cfg.spool.c_str());
            launch();
        }
        sleepMs(20);
    }

    // Idle shards notice the drained spool and exit 0 on their own;
    // drained shards exit 130.  Either way, collect them all.
    for (Child &c : children)
        if (c.alive)
            ::waitpid(c.pid, nullptr, 0);

    if (interrupt::requested()) {
        size_t unfinished = jobs.size() - countResults();
        return interrupt::reportInterrupted(
            "campaign drained behind per-job checkpoints",
            static_cast<unsigned>(unfinished), true);
    }

    // ---- Hierarchical merge: shards emitted partial dumps (.result
    // files); composite them exactly as SimPool::runComposite does.
    // ----
    std::vector<ExperimentResult> parts(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        // A result rejected here is a zombie's write that landed
        // after campaignDone() last looked: its measurement is from a
        // revoked claim epoch, so it stays out of the composite.
        if (takeResult(i, &parts[i]))
            continue;
        JobToken tok;
        bool quarantined =
            readJobTokenFile(campaignQuarantinePath(cfg, i), &tok);
        parts[i] = ExperimentResult();
        parts[i].name = jobs[i].profile.name;
        parts[i].failed = true;
        parts[i].retries = tok.attempts;
        parts[i].error = !quarantined ? "result rejected at merge"
            : tok.lastError.empty()   ? "quarantined"
                                      : tok.lastError;
    }
    return emitCampaignOutputs(cfg, jobs, std::move(parts));
}

} // namespace vax
