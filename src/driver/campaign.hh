/**
 * @file
 * The campaign layer: one characterization run sharded across a
 * supervised fleet of worker *processes*.
 *
 * SimPool scales the composite across threads in one address space;
 * at fleet scale the failures that dominate are the ones a thread
 * pool cannot survive -- whole-process death (OOM kill, node reboot),
 * hangs, and files cut off mid-write.  The campaign layer runs the
 * same job list through N shard processes supervised by a parent:
 *
 *  - The *spool* is a directory of per-job token files.  A token
 *    lives in exactly one of todo/, claimed/ or quarantine/; shards
 *    take work by an atomic claim-file rename (rename(2) of the same
 *    token within the spool), so idle shards work-steal and no job
 *    can be claimed twice.  A job retires when its `.result` file
 *    (CRC-checked snapshot sections, written tmp+rename) exists.
 *    This module owns the whole spool layout: tokens, manifest,
 *    rolling `.ckpt` checkpoints and `.result` files.
 *  - Every shard refreshes a per-shard *heartbeat* file; the
 *    supervisor reaps crashed children immediately via waitpid and
 *    SIGKILLs children whose heartbeat goes stale (a hang), then
 *    reclaims their claimed tokens back into todo/.
 *  - A failed attempt (panic/fatal/watchdog/timeout surfaced as a
 *    SimError, or a crash while holding the claim) requeues the job
 *    with capped exponential backoff; after maxAttempts failures the
 *    token moves to quarantine/ and the campaign completes over the
 *    survivors, renormalized by the pool's mergeComposite().
 *  - SIGINT/SIGTERM on the supervisor fans out to the shards, which
 *    drain behind their rolling per-job checkpoints and exit 130;
 *    `--resume` restarts the whole fleet from the manifest plus the
 *    per-job .result/.ckpt files and produces the byte-identical
 *    composite of an uninterrupted run (the kill-drill ctest gate).
 *    This is the repository's one durable-resume path: SimPool
 *    itself keeps nothing on disk.
 *  - Claims are *epoch-fenced*: every token carries a monotonic fence
 *    number, bumped (and persisted to a per-job fence file) each time
 *    the supervisor reclaims a claim from a dead or hung shard.  A
 *    shard stamps its claim's fence into the `.result` it writes, and
 *    the merge rejects any result whose fence is below the job's
 *    high-water mark -- so a hung-then-revived shard that still
 *    thinks it owns a job can never double-commit it.  This is the
 *    split-brain guard a shared-filesystem multi-node tier requires.
 *  - Every campaign-visible file moves through the `io::` durable
 *    writers (fsync file, rename, fsync directory) and the host-I/O
 *    fault layer (support/iofault.hh): `--io-faults` /
 *    UPC780_IO_FAULTS injects deterministic ENOSPC, EIO, short
 *    read/write, fsync, rename and stale-mtime failures, and
 *    `--chaos-drill SEED` fuzzes a seed-derived schedule across the
 *    fleet.  The hardening the drills forced: ENOSPC pauses
 *    checkpointing (loud degraded mode) instead of killing the shard,
 *    claim-rename EIO retries with capped backoff then quarantines,
 *    and liveness uses the heartbeat's beat *counter* (mtime only as
 *    a fallback) so coarse-mtime filesystems cannot cause false
 *    SIGKILLs.
 *
 * Every quantity that reaches the composite is a deterministic
 * simulation sum, so a campaign's stats dump is byte-identical to
 * SimPool::runComposite over the same job list -- processes are just
 * the failure domain, never the measurement.
 */

#ifndef UPC780_DRIVER_CAMPAIGN_HH
#define UPC780_DRIVER_CAMPAIGN_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/sim_pool.hh"

namespace vax
{

/**
 * Everything the campaign tool parses from its command line.  One
 * struct serves both roles: the supervisor passes the relevant subset
 * back to each shard it spawns, so a shard provably runs the same
 * campaign (and re-derives the same job list for the manifest check).
 */
struct CampaignConfig
{
    std::string spool;           ///< spool directory (required)
    unsigned shards = 2;         ///< worker processes to keep alive
    uint64_t cycles = 2'000'000; ///< machine cycles per experiment
    unsigned replicas = 1;       ///< copies of the five-workload set
    uint64_t intervalCycles = 250'000; ///< checkpoint/chunk interval

    /** @{ Liveness: shards beat at chunk boundaries (at least every
     *  heartbeatInterval seconds of host time); the supervisor
     *  declares a shard hung once its heartbeat file is older than
     *  heartbeatTimeout and SIGKILLs it.  The timeout must exceed the
     *  interval, and comfortably exceed one chunk's host time. */
    double heartbeatInterval = 1.0;
    double heartbeatTimeout = 30.0;
    /** @} */

    /** @{ Retry policy: a job failure (SimError or shard crash while
     *  holding the claim) requeues with backoffBase * 2^(attempt-1)
     *  seconds of delay, capped at backoffCap; after maxAttempts
     *  total failures the job is quarantined as poison. */
    unsigned maxAttempts = 3;
    double backoffBase = 0.25;
    double backoffCap = 8.0;
    /** @} */

    bool resume = false;       ///< continue a killed campaign's spool
    std::string statsJsonPath; ///< composite stats registry as JSON
    std::string tracePath;     ///< Chrome trace-event timeline

    /** @{ Host-I/O chaos (support/iofault.hh).  ioFaults is a
     *  deterministic fault schedule for *this* process (validated at
     *  parse time: a typo exits before anything launches);
     *  chaosSeed != 0 keeps the supervisor fault-free but hands every
     *  spawned shard a schedule derived from seed and spawn id.  The
     *  two are mutually exclusive on the command line. */
    std::string ioFaults;
    uint64_t chaosSeed = 0;
    /** @} */

    /** @{ Shard-worker mode (spawned by the supervisor, not users). */
    bool shardMode = false;
    unsigned shardId = 0;
    double epoch = 0.0; ///< supervisor start (wall), for telemetry
    /** @} */

    /** @{ Crash-drill knobs for the robustness tests and CI: make a
     *  specific failure happen deterministically instead of waiting
     *  for the datacenter to provide one. */
    uint64_t drillShard0DieAfterChunks = 0; ///< shard 0 self-SIGKILLs
                                            ///< mid-job at this chunk
    unsigned drillDieAfterResults = 0; ///< supervisor SIGKILLs fleet +
                                       ///< itself once N jobs finished
    unsigned drillPoisonJob = kNoJob;  ///< job index that fails every
                                       ///< attempt (quarantine path)
    uint64_t shardDieAfterChunks = 0;  ///< shard-side form of the
                                       ///< shard-0 drill flag
    static constexpr unsigned kNoJob = ~0u;
    /** @} */

    /**
     * Parse and strip every campaign flag from argv.  The failure
     * contract is the tool's: any malformed value, unknown argument
     * or nonsensical combination (--resume without --spool, --shards
     * 0, a heartbeat timeout at or below the interval, ...) prints
     * the usage and exits 2 -- a typo must never launch a different
     * fleet than the one asked for.  --help prints the usage and
     * exits 0.
     */
    static CampaignConfig parseFlags(int *argc, char **argv);
};

/** The campaign tool's usage text (parseFlags prints it on error). */
void campaignUsage(const char *prog, std::FILE *out);

/**
 * One job's spool token.  The token travels between todo/, claimed/
 * and quarantine/ by rename; its contents carry the retry state.
 */
struct JobToken
{
    unsigned attempts = 0; ///< failed attempts consumed so far
    double notBefore = 0.0; ///< wall time before which no shard may
                            ///< run it (capped exponential backoff)
    uint64_t fence = 0;     ///< claim epoch (monotonic per job; see
                            ///< the fencing note atop this file)
    std::string lastError;  ///< final line of the last failure
};

/** @{ Spool geometry.  Job files live in the spool root as
 *  "jobNNN-<name>.ckpt" (rolling checkpoint) and ".result" (finished
 *  measurement); the name is sanitized for the filesystem and the
 *  index keeps duplicates distinct. */
std::string checkpointPath(const std::string &spool, size_t index,
                           const std::string &name);
std::string resultPath(const std::string &spool, size_t index,
                       const std::string &name);
std::string manifestPath(const std::string &spool);
std::string campaignTodoPath(const CampaignConfig &cfg, size_t job);
std::string campaignClaimPath(const CampaignConfig &cfg, size_t job,
                              unsigned shard);
std::string campaignQuarantinePath(const CampaignConfig &cfg,
                                   size_t job);
std::string campaignHeartbeatPath(const CampaignConfig &cfg,
                                  unsigned shard);
std::string campaignLogPath(const CampaignConfig &cfg, unsigned shard);
std::string campaignFencePath(const CampaignConfig &cfg, size_t job);
/** @} */

/** True when @p path exists. */
bool fileExists(const std::string &path);

/**
 * Persist a finished job's measurements (durable tmp+rename write).
 * @return False (with warn) on I/O failure.
 */
bool writeResultFile(const std::string &path,
                     const ExperimentResult &r);

/**
 * Load a finished job's .result file into @p out.  @return False
 * when the file is absent, or when it is present but truncated /
 * CRC-damaged / version-skewed (warned loudly) -- a half-written
 * result means the job is simply not finished and must be re-run,
 * never merged and never allowed to abort a campaign.
 */
bool readResultFile(const std::string &path, ExperimentResult *out);

/** Strict variant: damage in a present file raises SnapshotError
 *  (for tests and callers that must distinguish damage from
 *  absence). */
bool readResultFileChecked(const std::string &path,
                           ExperimentResult *out);

/** Write the spool's job-list manifest for a fresh campaign (fatal
 *  on a write that stays failed -- without it nothing resumes). */
void writeManifest(const std::string &spool,
                   const std::vector<SimJob> &jobs);

/**
 * Verify that the spool's manifest describes exactly @p jobs (count,
 * names, seeds, cycle budgets, weights).  Fatal on a missing manifest
 * or any mismatch: resuming a different composite is refused, never
 * papered over.
 */
void checkManifest(const std::string &spool,
                   const std::vector<SimJob> &jobs);

/** @{ Fence files: the durable per-job claim-epoch high-water mark.
 *  readFenceFile returns 0 when the file is missing (every job starts
 *  at epoch 0); a damaged file warns and reads as 0 -- fencing then
 *  degrades to the pre-fence behavior instead of wedging the spool.
 *  bumpJobFence advances a reclaimed token past the high-water mark
 *  and persists the new mark *before* the caller requeues the token,
 *  so a zombie holder of the old claim is fenced out even if the
 *  supervisor dies between the two steps. */
uint64_t readFenceFile(const std::string &path);
bool writeFenceFile(const std::string &path, uint64_t fence);
uint64_t bumpJobFence(const CampaignConfig &cfg, size_t job,
                      JobToken *tok);
/** @} */

/** @{ Token I/O.  Writes are atomic (tmp+rename, like every other
 *  campaign-visible file); a damaged token reads as a fresh one with
 *  a loud warning -- retry bookkeeping is never worth an abort. */
bool writeJobTokenFile(const std::string &path, const JobToken &t);
bool readJobTokenFile(const std::string &path, JobToken *out);
/** @} */

/**
 * Outcome of a claim rename.  Lost is the normal race (another shard
 * took the token, or it was retired); Error is a host-I/O failure
 * (EIO and friends) that the caller must retry with backoff and
 * eventually quarantine -- it says nothing about who owns the token.
 */
enum class ClaimOutcome
{
    Won,
    Lost,
    Error,
};

/**
 * The claim primitive: atomically move a token from @p from to @p to.
 * A rename that reports failure but demonstrably happened (the token
 * is at @p to and gone from @p from -- a "rename lie" from a flaky
 * filesystem) self-heals to Won, since rename(2) within a directory
 * either moved the file or didn't.
 */
ClaimOutcome claimByRename(const std::string &from,
                           const std::string &to);

/** Backoff delay in seconds before attempt @p attempts+1 may run. */
double backoffSeconds(const CampaignConfig &cfg, unsigned attempts);

/** @{ Heartbeats: an atomic write of pid/seq/current-job.  Liveness
 *  is judged by the beat *counter* (seq) advancing -- the supervisor
 *  remembers the last seq it saw per shard and measures how long it
 *  has been unchanged.  readHeartbeatFile parses the contents (false
 *  when missing or damaged); heartbeatAgeSeconds is the mtime-based
 *  age (negative when missing), kept only as the fallback for an
 *  unreadable heartbeat -- mtime alone is untrustworthy on
 *  coarse-timestamp or clock-skewed filesystems. */
struct HeartbeatInfo
{
    long pid = -1;
    uint64_t seq = 0;
    long job = -1;
};
bool heartbeatWrite(const std::string &path, long pid, uint64_t seq,
                    long job);
bool readHeartbeatFile(const std::string &path, HeartbeatInfo *out);
double heartbeatAgeSeconds(const std::string &path);
/** @} */

/** Wall-clock now in seconds (CLOCK_REALTIME: comparable across the
 *  supervisor and its shards, which backoff stamps require). */
double campaignWallNow();

/**
 * The campaign's job list: replicas x the five paper workloads, in a
 * fixed order so every process derives the identical list (the
 * manifest check proves it).  Replica r > 0 gets a distinct seed and
 * a "#r" name suffix.  Drill knobs that only affect RunLimits are
 * applied here too (they are invisible to the manifest).
 */
std::vector<SimJob> campaignJobs(const CampaignConfig &cfg);

/** Supervisor entry: spool setup, shard fleet, liveness, merge.
 *  @return The process exit code (0, or 130 after a drained
 *  interrupt). */
int runCampaignSupervisor(const CampaignConfig &cfg);

/** Shard-worker entry: claim, simulate in checkpointed chunks,
 *  heartbeat, retire/requeue/quarantine.  @return Exit code. */
int runCampaignShard(const CampaignConfig &cfg);

} // namespace vax

#endif // UPC780_DRIVER_CAMPAIGN_HH
