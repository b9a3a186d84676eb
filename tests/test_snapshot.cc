/**
 * @file
 * Checkpoint/restore acceptance tests.
 *
 * The correctness bar is byte-transparency: snapshot -> restore ->
 * run-to-end must be byte-identical to the uninterrupted run, for the
 * whole machine image (every component the snapshot covers), with and
 * without fault injection in flight.  On top sit the recovery paths,
 * driven through the campaign binary (the one durable-resume path):
 * a crashed shard's job resuming from its last checkpoint, --resume
 * of a killed or interrupted campaign, and the fail-loud handling of
 * corrupt, truncated and version-mismatched snapshot files.  The
 * pool's own seed retry and graceful drain are tested here too.
 */

#include <csignal>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "driver/campaign.hh"
#include "driver/sim_pool.hh"
#include "support/faultinject.hh"
#include "support/interrupt.hh"
#include "support/snapshot.hh"
#include "tests/campaign_drill.hh"
#include "workload/experiments.hh"
#include "workload/profile.hh"

extern char **environ;

using namespace vax;
using namespace vax::drill;

namespace
{

/** The whole simulated machine as one byte image. */
std::vector<uint8_t>
machineBytes(const Experiment &e)
{
    snap::Serializer s;
    e.save(s);
    return s.finish();
}

/** Every deterministic field of a result as one byte image. */
std::vector<uint8_t>
resultBytes(const ExperimentResult &r)
{
    snap::Serializer s;
    s.beginSection("cmp");
    r.hist.save(s);
    r.hw.counters.save(s);
    r.hw.cache.save(s);
    r.hw.tb.save(s);
    s.putU64(r.hw.faults.parityErrors);
    s.putU64(r.hw.faults.machineChecks);
    s.putU64(r.hw.faults.osMachineChecks);
    s.putU64(r.hw.ibLongwordFetches);
    s.putU64(r.hw.dataReads);
    s.putU64(r.hw.dataWrites);
    s.putU64(r.hw.terminalLinesIn);
    s.putU64(r.hw.terminalLinesOut);
    s.putU64(r.hw.diskTransfers);
    s.endSection();
    return s.finish();
}

/** The standard experiment wiring the pool uses (SimJob::forProfile). */
VmsConfig
poolVms()
{
    VmsConfig vms;
    vms.timerIntervalCycles = 20000;
    vms.quantumTicks = 4;
    return vms;
}

/** The per-job lines of a Chrome trace (writeChromeTrace's format:
 *  one slice per job, in job order). */
std::vector<std::string>
jobLines(const std::string &trace)
{
    std::vector<std::string> lines;
    std::istringstream in(trace);
    for (std::string line; std::getline(in, line);)
        if (line.find("\"ph\":\"X\"") != std::string::npos)
            lines.push_back(line);
    return lines;
}

/** Integer arg @p key of a trace line; 0 when absent (the trace only
 *  carries recovery args that are nonzero). */
uint64_t
traceArg(const std::string &line, const std::string &key)
{
    size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + at + key.size() + 3, nullptr,
                         10);
}

/** Every shard log in @p spool, concatenated. */
std::string
shardLogs(const std::string &spool)
{
    std::string all;
    DIR *d = ::opendir((spool + "/logs").c_str());
    for (struct dirent *e; d && (e = ::readdir(d));)
        if (e->d_name[0] != '.')
            all += slurp(spool + "/logs/" + e->d_name);
    if (d)
        ::closedir(d);
    return all;
}

/** What a campaign killed mid-run leaves in a spool before any job
 *  finished: the manifest (job checkpoints are the caller's). */
void
plantKilledSpool(const std::string &spool)
{
    ASSERT_EQ(::mkdir(spool.c_str(), 0777), 0);
    writeManifest(spool, campaignJobs(drillConfig(spool)));
}

} // anonymous namespace

// ---------------------------------------------------------------
// Snapshot stream format.
// ---------------------------------------------------------------

TEST(SnapshotFormat, PrimitivesRoundTrip)
{
    snap::Serializer s;
    s.beginSection("prims");
    s.putU8(0xAB);
    s.putU16(0xBEEF);
    s.putU32(0xDEADBEEF);
    s.putU64(0x0123456789ABCDEFull);
    s.putI64(-42);
    s.putBool(true);
    s.putDouble(3.25);
    s.putString("vax-11/780");
    s.putVecU64({1, 2, 3});
    s.endSection();

    snap::Deserializer d(s.finish());
    d.beginSection("prims");
    EXPECT_EQ(d.getU8(), 0xAB);
    EXPECT_EQ(d.getU16(), 0xBEEF);
    EXPECT_EQ(d.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(d.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(d.getI64(), -42);
    EXPECT_TRUE(d.getBool());
    EXPECT_EQ(d.getDouble(), 3.25);
    EXPECT_EQ(d.getString(), "vax-11/780");
    EXPECT_EQ(d.getVecU64(), (std::vector<uint64_t>{1, 2, 3}));
    d.endSection();
    d.finish();
}

TEST(SnapshotFormat, RleBlobRoundTrip)
{
    std::vector<uint8_t> blob(4096, 0);
    blob[0] = 1;
    blob[100] = 2;
    blob[4095] = 3;
    snap::Serializer s;
    s.beginSection("blob");
    s.putBytesRle(blob.data(), blob.size());
    s.endSection();
    std::vector<uint8_t> image = s.finish();
    // Mostly-zero blobs must compress: that is why RLE exists.
    EXPECT_LT(image.size(), blob.size() / 2);

    snap::Deserializer d(std::move(image));
    d.beginSection("blob");
    std::vector<uint8_t> out(blob.size(), 0xFF);
    d.getBytesRle(out.data(), out.size());
    d.endSection();
    d.finish();
    EXPECT_EQ(out, blob);
}

TEST(SnapshotFormat, CorruptPayloadFailsCrc)
{
    snap::Serializer s;
    s.beginSection("sec");
    s.putU64(12345);
    s.endSection();
    std::vector<uint8_t> image = s.finish();
    // Flip one payload byte: magic(8) + version(4) + nameLen(4) +
    // name(3) + payloadLen(8) puts the payload at offset 27.
    image[27] ^= 0x01;
    snap::Deserializer d(std::move(image));
    try {
        d.beginSection("sec");
        FAIL() << "corrupt payload was accepted";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormat, TruncationDetected)
{
    snap::Serializer s;
    s.beginSection("sec");
    s.putU64(12345);
    s.endSection();
    std::vector<uint8_t> image = s.finish();
    image.resize(image.size() - 6);
    EXPECT_THROW(
        {
            snap::Deserializer d(std::move(image));
            d.beginSection("sec");
            d.getU64();
            d.endSection();
            d.finish();
        },
        snap::SnapshotError);
}

TEST(SnapshotFormat, VersionMismatchIsFatal)
{
    snap::Serializer s;
    s.beginSection("sec");
    s.endSection();
    std::vector<uint8_t> image = s.finish();
    image[8] ^= 0xFF; // formatVersion lives right after the magic
    try {
        snap::Deserializer d(std::move(image));
        FAIL() << "future-version snapshot was accepted";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormat, WrongSectionNameRejected)
{
    snap::Serializer s;
    s.beginSection("actual");
    s.endSection();
    snap::Deserializer d(s.finish());
    EXPECT_THROW(d.beginSection("expected"), snap::SnapshotError);
}

TEST(SnapshotFormat, LeftoverSectionBytesRejected)
{
    // A reader consuming fewer bytes than the writer produced is a
    // layout-skew bug; endSection must turn it into a diagnosis.
    snap::Serializer s;
    s.beginSection("sec");
    s.putU64(1);
    s.putU64(2);
    s.endSection();
    snap::Deserializer d(s.finish());
    d.beginSection("sec");
    EXPECT_EQ(d.getU64(), 1u);
    EXPECT_THROW(d.endSection(), snap::SnapshotError);
}

TEST(SnapshotFormat, FingerprintMismatchNamesField)
{
    snap::Serializer s;
    s.beginSection("cfg");
    s.putU32(8);
    s.endSection();
    snap::Deserializer d(s.finish());
    d.beginSection("cfg");
    try {
        d.expectU32(16, "cache ways");
        FAIL() << "config fingerprint mismatch was accepted";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("cache ways"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------
// Whole-experiment byte-transparency.
// ---------------------------------------------------------------

TEST(ExperimentSnapshot, ChunkedRunMatchesOneShot)
{
    WorkloadProfile prof = allProfiles()[0];
    SimConfig sim;
    sim.seed = prof.seed;
    Experiment one(prof, 60'000, sim, poolVms());
    one.runChunk();

    Experiment chunked(prof, 60'000, sim, poolVms());
    // A deliberately awkward chunk size: boundaries land anywhere.
    while (!chunked.runChunk(777)) {
    }
    EXPECT_EQ(machineBytes(one), machineBytes(chunked));
}

TEST(ExperimentSnapshot, RestoreRunToEndIsByteIdentical)
{
    const uint64_t budget = 80'000;
    for (const WorkloadProfile &prof : allProfiles()) {
        SCOPED_TRACE(prof.name);
        SimConfig sim;
        sim.seed = prof.seed;

        Experiment uninterrupted(prof, budget, sim, poolVms());
        uninterrupted.runChunk();

        // Checkpoint at a pseudo-random mid-run cycle...
        Experiment first(prof, budget, sim, poolVms());
        first.runChunk(31'337);
        ASSERT_FALSE(first.done());
        snap::Serializer s;
        first.save(s);
        std::vector<uint8_t> ckpt = s.finish();

        // ...restore into a *fresh* machine and run to the end.
        Experiment second(prof, budget, sim, poolVms());
        snap::Deserializer d(ckpt);
        second.restore(d);
        d.finish();
        EXPECT_EQ(second.cycle(), first.cycle());
        second.runChunk();

        EXPECT_EQ(machineBytes(uninterrupted), machineBytes(second));
        EXPECT_EQ(resultBytes(uninterrupted.takeResult()),
                  resultBytes(second.takeResult()));
    }
}

TEST(ExperimentSnapshot, SaveRestoreSaveReproducesTheImage)
{
    WorkloadProfile prof = allProfiles()[2];
    SimConfig sim;
    sim.seed = prof.seed;
    Experiment a(prof, 50'000, sim, poolVms());
    a.runChunk(20'000);
    std::vector<uint8_t> image = machineBytes(a);

    Experiment b(prof, 50'000, sim, poolVms());
    snap::Deserializer d(image);
    b.restore(d);
    d.finish();
    EXPECT_EQ(machineBytes(b), image);
}

TEST(ExperimentSnapshot, CheckpointAcrossScheduledFaultDelivery)
{
    // Scheduled parity faults straddle the checkpoint: one delivered
    // before it, one pending after it.  The restored machine must
    // replay the pending injection and its machine-check delivery
    // exactly, so the faulted run stays byte-identical.
    WorkloadProfile prof = allProfiles()[0];
    SimConfig sim;
    sim.seed = prof.seed;
    sim.mem.faults.parityCycles = {10'000, 40'000};
    const uint64_t budget = 70'000;

    Experiment uninterrupted(prof, budget, sim, poolVms());
    uninterrupted.runChunk();
    ExperimentResult clean = uninterrupted.takeResult();
    ASSERT_GE(clean.hw.faults.parityErrors, 2u);
    ASSERT_GE(clean.hw.faults.machineChecks, 1u);

    Experiment first(prof, budget, sim, poolVms());
    first.runChunk(25'000); // between the two scheduled faults
    snap::Serializer s;
    first.save(s);
    std::vector<uint8_t> ckpt = s.finish();

    Experiment second(prof, budget, sim, poolVms());
    snap::Deserializer d(ckpt);
    second.restore(d);
    d.finish();
    second.runChunk();
    EXPECT_EQ(resultBytes(clean), resultBytes(second.takeResult()));
}

TEST(ExperimentSnapshot, WrongWorkloadRejected)
{
    SimConfig sim0, sim1;
    sim0.seed = allProfiles()[0].seed;
    sim1.seed = allProfiles()[1].seed;
    Experiment a(allProfiles()[0], 20'000, sim0, poolVms());
    a.runChunk(5'000);
    snap::Serializer s;
    a.save(s);
    Experiment b(allProfiles()[1], 20'000, sim1, poolVms());
    snap::Deserializer d(s.finish());
    EXPECT_THROW(b.restore(d), snap::SnapshotError);
}

TEST(ExperimentSnapshot, FaultInjectorPresenceIsAFingerprint)
{
    WorkloadProfile prof = allProfiles()[0];
    SimConfig with = SimConfig{};
    with.seed = prof.seed;
    with.mem.faults.cacheParityRate = 1e-4;
    SimConfig without = SimConfig{};
    without.seed = prof.seed;

    Experiment a(prof, 20'000, with, poolVms());
    a.runChunk(5'000);
    snap::Serializer s;
    a.save(s);
    Experiment b(prof, 20'000, without, poolVms());
    snap::Deserializer d(s.finish());
    EXPECT_THROW(b.restore(d), snap::SnapshotError);
}

// ---------------------------------------------------------------
// Checkpointed recovery, through the campaign binary.
// ---------------------------------------------------------------

TEST(CheckpointRecovery, DrillRetryResumesFromCheckpoint)
{
    ASSERT_FALSE(campaignBin().empty());
    // Shard 0 SIGKILLs itself right after its second checkpoint.  The
    // job's retry must restore that checkpoint -- not replay from the
    // seed -- and the measurement must not change.
    std::string dir = scratchDir("ckpt_drill");
    std::string json = dir + ".json";
    std::string trace = dir + ".trace.json";
    int st = runTool(drillArgs(dir) +
                     " --drill-shard0-die-after-chunks 2 "
                     "--stats-json '" + json + "' --perfetto '" +
                     trace + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), referenceStatsJson());

    unsigned retried = 0;
    for (const std::string &line : jobLines(slurp(trace))) {
        if (!traceArg(line, "retries"))
            continue;
        ++retried;
        EXPECT_EQ(traceArg(line, "retries"), 1u) << line;
        EXPECT_GT(traceArg(line, "resumeCycle"), 0u) << line;
        EXPECT_LT(traceArg(line, "resumeCycle"), drillConfig().cycles)
            << line;
    }
    EXPECT_EQ(retried, 1u) << slurp(trace);
}

TEST(CheckpointRecovery, DrillWithoutCheckpointStaysFailed)
{
    // Replaying from the seed re-trips the drill: the job fails after
    // its one retry, exactly the pre-checkpoint behavior.
    SimJob drilled = SimJob::forProfile(allProfiles()[0], 90'000);
    drilled.limits.tripCycle = 50'000;
    SimPool pool(1);
    std::vector<ExperimentResult> r = pool.run({drilled});
    EXPECT_TRUE(r[0].failed);
    EXPECT_EQ(r[0].retries, 1u);
    EXPECT_NE(r[0].error.find("drill"), std::string::npos);
}

TEST(CheckpointRecovery, ResumeSkipsCompletedJobs)
{
    ASSERT_FALSE(campaignBin().empty());
    // --resume of a finished spool re-simulates nothing: every
    // .result keeps its inode and mtime, and the merge writes the
    // same bytes again.
    std::string dir = scratchDir("ckpt_resume_done");
    std::string json = dir + ".json";
    int st = runTool(drillArgs(dir) + " --stats-json '" + json + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    std::string first = slurp(json);
    EXPECT_EQ(first, referenceStatsJson());

    std::vector<SimJob> jobs = campaignJobs(drillConfig(dir));
    std::vector<struct stat> before(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        ASSERT_EQ(::stat(resultPath(dir, i, jobs[i].profile.name)
                             .c_str(),
                         &before[i]),
                  0);

    ASSERT_EQ(::unlink(json.c_str()), 0);
    st = runTool(drillArgs(dir) + " --resume --stats-json '" + json +
                 "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), first);
    for (size_t i = 0; i < jobs.size(); ++i) {
        struct stat after;
        ASSERT_EQ(::stat(resultPath(dir, i, jobs[i].profile.name)
                             .c_str(),
                         &after),
                  0);
        EXPECT_EQ(after.st_ino, before[i].st_ino) << "job " << i;
        EXPECT_EQ(after.st_mtim.tv_sec, before[i].st_mtim.tv_sec)
            << "job " << i;
        EXPECT_EQ(after.st_mtim.tv_nsec, before[i].st_mtim.tv_nsec)
            << "job " << i;
    }
}

TEST(CheckpointRecovery, ResumeContinuesFromMidRunCheckpoint)
{
    ASSERT_FALSE(campaignBin().empty());
    // A campaign killed while job 2 stood at cycle 33 000: the
    // manifest plus that job's rolling checkpoint.  --resume must
    // continue job 2 from the checkpoint.
    std::string dir = scratchDir("ckpt_resume_mid");
    ASSERT_NO_FATAL_FAILURE(plantKilledSpool(dir));
    SimJob job = campaignJobs(drillConfig(dir))[2];
    Experiment exp(job.profile, job.cycles, job.sim, job.vms,
                   job.limits);
    exp.runChunk(33'000);
    ASSERT_EQ(exp.cycle(), 33'000u);
    ASSERT_TRUE(exp.saveFile(checkpointPath(dir, 2, job.profile.name)));

    std::string json = dir + ".json";
    std::string trace = dir + ".trace.json";
    int st = runTool(drillArgs(dir) + " --resume --stats-json '" +
                     json + "' --perfetto '" + trace + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), referenceStatsJson());
    std::vector<std::string> lines = jobLines(slurp(trace));
    ASSERT_EQ(lines.size(), 5u) << slurp(trace);
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(traceArg(lines[i], "resumeCycle"),
                  i == 2 ? 33'000u : 0u)
            << lines[i];
}

TEST(CheckpointRecovery, CorruptCheckpointFallsBackToSeed)
{
    ASSERT_FALSE(campaignBin().empty());
    // A garbage checkpoint costs the saved cycles, never the job:
    // the shard says so and restarts the job from its seed.
    std::string dir = scratchDir("ckpt_corrupt");
    ASSERT_NO_FATAL_FAILURE(plantKilledSpool(dir));
    SimJob job = campaignJobs(drillConfig(dir))[0];
    std::FILE *f = std::fopen(
        checkpointPath(dir, 0, job.profile.name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a snapshot", f);
    std::fclose(f);

    std::string json = dir + ".json";
    std::string trace = dir + ".trace.json";
    int st = runTool(drillArgs(dir) + " --resume --stats-json '" +
                     json + "' --perfetto '" + trace + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_NE(shardLogs(dir).find("unusable"), std::string::npos);
    EXPECT_EQ(traceArg(jobLines(slurp(trace)).at(0), "resumeCycle"),
              0u);
    EXPECT_EQ(slurp(json), referenceStatsJson());
}

TEST(CheckpointRecovery, ResumeAgainstDifferentCompositeIsFatal)
{
    ASSERT_FALSE(campaignBin().empty());
    std::string dir = scratchDir("ckpt_manifest");
    int st = runTool(drillArgs(dir));
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);

    // Same spool, another cycle budget: the manifest refuses it.
    std::string log = dir + ".resume.log";
    st = runTool(drillArgs(dir) + " --resume --cycles 120000", log);
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 1)
        << "wait status " << st;
    EXPECT_NE(slurp(log).find("cycle budget"), std::string::npos)
        << slurp(log);
}

TEST(CheckpointRecovery, ResultFileRoundTrip)
{
    std::string dir = scratchDir("ckpt_resultfile");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    SimJob job = SimJob::forProfile(allProfiles()[3], 40'000);
    ExperimentResult r = runJob(job);
    r.retries = 1;
    r.resumeCycle = 12'345;
    std::string path = resultPath(dir, 0, job.profile.name);
    ASSERT_TRUE(writeResultFile(path, r));

    ExperimentResult back;
    ASSERT_TRUE(readResultFile(path, &back));
    EXPECT_EQ(back.name, r.name);
    EXPECT_EQ(back.retries, 1u);
    EXPECT_EQ(back.resumeCycle, 12'345u);
    EXPECT_EQ(resultBytes(back), resultBytes(r));

    ExperimentResult missing;
    EXPECT_FALSE(
        readResultFile(dir + "/no-such.result", &missing));
}

// ---------------------------------------------------------------
// Graceful interrupt drain.
// ---------------------------------------------------------------

TEST(InterruptDrain, RequestedBeforeRunMarksEverythingInterrupted)
{
    interrupt::reset();
    interrupt::request();
    std::vector<SimJob> jobs = {
        SimJob::forProfile(allProfiles()[0], 30'000),
        SimJob::forProfile(allProfiles()[1], 30'000),
    };
    SimPool pool(2);
    std::vector<ExperimentResult> r = pool.run(jobs);
    interrupt::reset();
    ASSERT_EQ(r.size(), 2u);
    for (size_t i = 0; i < r.size(); ++i) {
        EXPECT_TRUE(r[i].interrupted);
        EXPECT_EQ(r[i].name, jobs[i].profile.name);
        EXPECT_FALSE(r[i].failed);
    }
    PoolTelemetry tele = computeTelemetry(r);
    EXPECT_EQ(tele.interruptedJobs, 2u);
    EXPECT_NE(tele.summary().find("INTERRUPTED"), std::string::npos);
}

TEST(InterruptDrain, InterruptedPartsStayOutOfTheComposite)
{
    interrupt::reset();
    CompositeResult comp;
    {
        interrupt::request();
        std::vector<SimJob> jobs = {
            SimJob::forProfile(allProfiles()[0], 30'000)};
        SimPool pool(1);
        comp = pool.runComposite(jobs);
        interrupt::reset();
    }
    ASSERT_EQ(comp.parts.size(), 1u);
    EXPECT_TRUE(comp.parts[0].interrupted);
    // Nothing merged: the composite counters stay zero.
    EXPECT_EQ(comp.hw.counters.cycles, 0u);
    EXPECT_EQ(comp.hw.counters.instructions, 0u);
}

TEST(InterruptDrain, DrainedRunResumesToTheIdenticalResult)
{
    ASSERT_FALSE(campaignBin().empty());
    // SIGTERM a running campaign once shard 0 has beaten and some job
    // has written its first checkpoint (20 per job): the shards drain
    // behind their checkpoints, the supervisor exits 130 with the
    // INTERRUPTED marker, and --resume finishes with the clean bytes,
    // continuing at least one job from where the drain left it.
    std::string dir = scratchDir("ckpt_drain");
    CampaignConfig cfg = drillConfig(dir);
    cfg.cycles = 2'000'000;
    cfg.intervalCycles = 100'000;
    std::string args = drillArgs(dir) +
        " --cycles 2000000 --checkpoint-interval 100000";
    std::string log = dir + ".drain.log";
    std::string cmd =
        "exec '" + campaignBin() + "' " + args + " > '" + log + "' 2>&1";
    const char *sh_argv[] = {"sh", "-c", cmd.c_str(), nullptr};
    pid_t pid = 0;
    ASSERT_EQ(::posix_spawn(&pid, "/bin/sh", nullptr, nullptr,
                            const_cast<char **>(sh_argv), environ),
              0);

    std::vector<SimJob> jobs = campaignJobs(cfg);
    auto midRun = [&] {
        if (!fileExists(campaignHeartbeatPath(cfg, 0)))
            return false;
        for (size_t i = 0; i < jobs.size(); ++i)
            if (fileExists(checkpointPath(dir, i, jobs[i].profile.name)))
                return true;
        return false;
    };
    int status = 0;
    pid_t reaped = 0;
    for (int ms = 0; ms < 120'000 && !reaped && !midRun(); ms += 2) {
        ::usleep(2'000);
        reaped = ::waitpid(pid, &status, WNOHANG);
    }
    ASSERT_EQ(reaped, 0) << "campaign ended before the signal\n"
                         << slurp(log);
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) &&
                WEXITSTATUS(status) == interrupt::exitCode)
        << "wait status " << status << "\n" << slurp(log);
    EXPECT_NE(slurp(log).find("*** INTERRUPTED"), std::string::npos)
        << slurp(log);

    std::string json = dir + ".json";
    std::string trace = dir + ".trace.json";
    int st = runTool(args + " --resume --stats-json '" + json +
                     "' --perfetto '" + trace + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), compositeStatsJson(cfg));
    EXPECT_NE(slurp(trace).find("\"resumeCycle\":"), std::string::npos)
        << slurp(trace);
}

// ---------------------------------------------------------------
// Flag parsing (typo-fatal contract).
// ---------------------------------------------------------------

TEST(CheckpointFlags, LimitsParseAndStrip)
{
    const char *argv_in[] = {"prog", "--watchdog-cycles", "100000",
                             "--job-timeout=2.5", nullptr};
    int argc = 4;
    char *argv[5];
    for (int i = 0; i < argc; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[argc] = nullptr;

    RunLimits limits = parseLimitsFlags(&argc, argv);
    EXPECT_EQ(limits.watchdogCycles, 100'000u);
    EXPECT_DOUBLE_EQ(limits.timeoutSeconds, 2.5);
    EXPECT_EQ(argc, 1);
}

TEST(CheckpointFlags, TyposAreFatal)
{
    auto parse = [](std::initializer_list<const char *> args) {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>("prog"));
        for (const char *a : args)
            argv.push_back(const_cast<char *>(a));
        argv.push_back(nullptr);
        int argc = static_cast<int>(argv.size()) - 1;
        (void)parseLimitsFlags(&argc, argv.data());
    };
    EXPECT_DEATH(parse({"--job-timeout=-3"}), "not a positive");
    EXPECT_DEATH(parse({"--watchdog-cycles"}), "requires a value");
}
