/**
 * @file
 * Checkpoint/restore acceptance tests.
 *
 * The correctness bar is byte-transparency: snapshot -> restore ->
 * run-to-end must be byte-identical to the uninterrupted run, for the
 * whole machine image (every component the snapshot covers), with and
 * without fault injection in flight.  On top sit the recovery paths:
 * pool retries resuming from the last checkpoint, --resume of an
 * interrupted composite, and the fail-loud handling of corrupt,
 * truncated and version-mismatched snapshot files.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/checkpoint.hh"
#include "driver/sim_pool.hh"
#include "support/faultinject.hh"
#include "support/interrupt.hh"
#include "support/snapshot.hh"
#include "workload/experiments.hh"
#include "workload/profile.hh"

using namespace vax;

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

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const char *name)
{
    std::string dir = ::testing::TempDir() + "upc780_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    (void)!std::system(cmd.c_str());
    return dir;
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
// Pool-level checkpointed recovery.
// ---------------------------------------------------------------

TEST(CheckpointRecovery, DrillRetryResumesFromCheckpoint)
{
    CheckpointConfig ck;
    ck.dir = scratchDir("drill");
    ck.intervalCycles = 20'000;

    SimJob job = SimJob::forProfile(allProfiles()[0], 90'000);
    SimJob drilled = job;
    drilled.limits.tripCycle = 50'000;

    SimPool pool(1);
    std::vector<ExperimentResult> clean = pool.run({job});
    ASSERT_FALSE(clean[0].failed);

    pool.setCheckpoint(ck);
    std::vector<ExperimentResult> recovered = pool.run({drilled});
    ASSERT_FALSE(recovered[0].failed);
    EXPECT_EQ(recovered[0].retries, 1u);
    // The kept attempt restarted from a checkpoint past cycle 0 but
    // before the drill tripped.
    EXPECT_GT(recovered[0].resumeCycle, 0u);
    EXPECT_LT(recovered[0].resumeCycle, 50'000u);
    EXPECT_GE(recovered[0].retryWallSeconds, 0.0);
    // Recovery must not change the measurement.
    EXPECT_EQ(resultBytes(clean[0]), resultBytes(recovered[0]));
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
    CheckpointConfig ck;
    ck.dir = scratchDir("resume_done");
    ck.intervalCycles = 20'000;

    std::vector<SimJob> jobs = {
        SimJob::forProfile(allProfiles()[0], 60'000),
        SimJob::forProfile(allProfiles()[1], 60'000),
    };
    SimPool pool(1);
    pool.setCheckpoint(ck);
    std::vector<ExperimentResult> first = pool.run(jobs);
    ASSERT_TRUE(fileExists(resultPath(ck, 0, jobs[0].profile.name)));
    ASSERT_TRUE(fileExists(resultPath(ck, 1, jobs[1].profile.name)));

    ck.resume = true;
    pool.setCheckpoint(ck);
    std::vector<ExperimentResult> again = pool.run(jobs);
    EXPECT_EQ(resultBytes(first[0]), resultBytes(again[0]));
    EXPECT_EQ(resultBytes(first[1]), resultBytes(again[1]));
}

TEST(CheckpointRecovery, ResumeContinuesFromMidRunCheckpoint)
{
    CheckpointConfig ck;
    ck.dir = scratchDir("resume_mid");
    ck.intervalCycles = 20'000;
    ensureCheckpointDir(ck);

    SimJob job = SimJob::forProfile(allProfiles()[2], 80'000);
    std::vector<SimJob> jobs = {job};

    // Simulate the killed run: a mid-run checkpoint under the name
    // the pool will look for, plus the manifest.
    writeManifest(ck, jobs);
    Experiment exp(job.profile, job.cycles, job.sim, job.vms,
                   job.limits);
    exp.runChunk(33'000);
    ASSERT_FALSE(exp.done());
    ASSERT_TRUE(exp.saveFile(
        checkpointPath(ck, 0, job.profile.name)));

    ck.resume = true;
    SimPool pool(1);
    pool.setCheckpoint(ck);
    std::vector<ExperimentResult> resumed = pool.run(jobs);
    ASSERT_FALSE(resumed[0].failed);
    EXPECT_EQ(resumed[0].resumeCycle, exp.cycle());

    SimPool plain(1);
    std::vector<ExperimentResult> clean = plain.run(jobs);
    EXPECT_EQ(resultBytes(clean[0]), resultBytes(resumed[0]));
}

TEST(CheckpointRecovery, CorruptCheckpointFallsBackToSeed)
{
    CheckpointConfig ck;
    ck.dir = scratchDir("corrupt");
    ck.intervalCycles = 20'000;
    ensureCheckpointDir(ck);

    SimJob job = SimJob::forProfile(allProfiles()[0], 60'000);
    std::vector<SimJob> jobs = {job};
    writeManifest(ck, jobs);
    std::string cpath = checkpointPath(ck, 0, job.profile.name);
    std::FILE *f = std::fopen(cpath.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a snapshot", f);
    std::fclose(f);

    ck.resume = true;
    SimPool pool(1);
    pool.setCheckpoint(ck);
    std::vector<ExperimentResult> r = pool.run(jobs);
    ASSERT_FALSE(r[0].failed);
    EXPECT_EQ(r[0].resumeCycle, 0u); // restarted from the seed

    SimPool plain(1);
    std::vector<ExperimentResult> clean = plain.run(jobs);
    EXPECT_EQ(resultBytes(clean[0]), resultBytes(r[0]));
}

TEST(CheckpointRecovery, ResumeAgainstDifferentCompositeIsFatal)
{
    CheckpointConfig ck;
    ck.dir = scratchDir("manifest");
    ck.intervalCycles = 20'000;

    std::vector<SimJob> jobs = {
        SimJob::forProfile(allProfiles()[0], 30'000)};
    SimPool pool(1);
    pool.setCheckpoint(ck);
    (void)pool.run(jobs);

    std::vector<SimJob> other = {
        SimJob::forProfile(allProfiles()[0], 40'000)};
    ck.resume = true;
    pool.setCheckpoint(ck);
    EXPECT_DEATH((void)pool.run(other), "cycle budget");
}

TEST(CheckpointRecovery, ResultFileRoundTrip)
{
    CheckpointConfig ck;
    ck.dir = scratchDir("resultfile");
    ensureCheckpointDir(ck);
    SimJob job = SimJob::forProfile(allProfiles()[3], 40'000);
    ExperimentResult r = runJob(job);
    r.retries = 1;
    r.resumeCycle = 12'345;
    std::string path = resultPath(ck, 0, job.profile.name);
    ASSERT_TRUE(writeResultFile(path, r));

    ExperimentResult back;
    ASSERT_TRUE(readResultFile(path, &back));
    EXPECT_EQ(back.name, r.name);
    EXPECT_EQ(back.retries, 1u);
    EXPECT_EQ(back.resumeCycle, 12'345u);
    EXPECT_EQ(resultBytes(back), resultBytes(r));

    ExperimentResult missing;
    EXPECT_FALSE(
        readResultFile(ck.dir + "/no-such.result", &missing));
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
    interrupt::reset();
    CheckpointConfig ck;
    ck.dir = scratchDir("drain_resume");
    ck.intervalCycles = 10'000;

    std::vector<SimJob> jobs = {
        SimJob::forProfile(allProfiles()[0], 60'000),
        SimJob::forProfile(allProfiles()[1], 60'000),
    };

    // "Kill" the run before it starts job 1: the manifest and (for
    // this variant) zero checkpoints are on disk, exactly like a
    // drain that hit before any interval elapsed.
    interrupt::request();
    SimPool pool(1);
    pool.setCheckpoint(ck);
    std::vector<ExperimentResult> drained = pool.run(jobs);
    interrupt::reset();
    EXPECT_TRUE(drained[0].interrupted);

    ck.resume = true;
    pool.setCheckpoint(ck);
    std::vector<ExperimentResult> resumed = pool.run(jobs);
    ASSERT_FALSE(resumed[0].interrupted);
    ASSERT_FALSE(resumed[1].interrupted);

    SimPool plain(1);
    std::vector<ExperimentResult> clean = plain.run(jobs);
    EXPECT_EQ(resultBytes(clean[0]), resultBytes(resumed[0]));
    EXPECT_EQ(resultBytes(clean[1]), resultBytes(resumed[1]));
}

// ---------------------------------------------------------------
// Flag parsing (typo-fatal contract).
// ---------------------------------------------------------------

TEST(CheckpointFlags, ParseAndStrip)
{
    const char *argv_in[] = {"prog",
                             "--checkpoint-dir", "/tmp/ck",
                             "--checkpoint-interval=125000",
                             "--resume",
                             "positional", nullptr};
    int argc = 6;
    char *argv[7];
    for (int i = 0; i < argc; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[argc] = nullptr;

    CheckpointConfig ck = CheckpointConfig::parseFlags(&argc, argv);
    EXPECT_TRUE(ck.enabled());
    EXPECT_EQ(ck.dir, "/tmp/ck");
    EXPECT_EQ(ck.intervalCycles, 125'000u);
    EXPECT_TRUE(ck.resume);
    // Only the positional operand survives the strip.
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "positional");
}

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
        (void)CheckpointConfig::parseFlags(&argc, argv.data());
        (void)parseLimitsFlags(&argc, argv.data());
    };
    EXPECT_DEATH(parse({"--checkpoint-interval=bogus",
                        "--checkpoint-dir=/tmp/x"}),
                 "not a positive count");
    EXPECT_DEATH(parse({"--checkpoint-interval=0",
                        "--checkpoint-dir=/tmp/x"}),
                 "not a positive count");
    EXPECT_DEATH(parse({"--resume"}), "--checkpoint-dir");
    EXPECT_DEATH(parse({"--checkpoint-interval=1000"}),
                 "--checkpoint-dir");
    EXPECT_DEATH(parse({"--job-timeout=-3"}), "not a positive");
    EXPECT_DEATH(parse({"--watchdog-cycles"}), "requires a value");
}
