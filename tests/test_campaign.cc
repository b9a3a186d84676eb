/**
 * @file
 * Campaign-layer acceptance tests.
 *
 * The correctness bar is the kill-drill identity: a campaign that
 * loses a shard to SIGKILL mid-chunk, and a campaign whose supervisor
 * is killed and then --resume'd, must both produce a stats dump
 * byte-identical to the uninterrupted run.  Around that sit the spool
 * primitives (tokens, claim-by-rename, backoff, heartbeats), the
 * fail-soft .result ingestion, the poison-job quarantine, and the
 * exit-2 flag-validation contract.
 *
 * The drill tests drive the real upc780_campaign binary through the
 * helpers in campaign_drill.hh, and compare against the same job list
 * run through SimPool::runComposite in this process.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "driver/campaign.hh"
#include "support/snapshot.hh"
#include "tests/campaign_drill.hh"
#include "workload/experiments.hh"
#include "workload/profile.hh"

using namespace vax;
using namespace vax::drill;

// ---------------------------------------------------------------
// Flag validation: usage + exit 2, never a different fleet.
// ---------------------------------------------------------------

TEST(CampaignFlags, GoodFlagsParse)
{
    Argv a({"--spool", "sp", "--shards", "3", "--cycles", "500000",
            "--replicas", "2", "--checkpoint-interval", "50000",
            "--heartbeat-interval", "0.5", "--heartbeat-timeout",
            "10", "--max-retries", "4", "--backoff-base", "0.1",
            "--backoff-cap", "2", "--stats-json", "out.json",
            "--resume"});
    CampaignConfig cfg = a.parse();
    EXPECT_EQ(cfg.spool, "sp");
    EXPECT_EQ(cfg.shards, 3u);
    EXPECT_EQ(cfg.cycles, 500'000u);
    EXPECT_EQ(cfg.replicas, 2u);
    EXPECT_EQ(cfg.intervalCycles, 50'000u);
    EXPECT_DOUBLE_EQ(cfg.heartbeatInterval, 0.5);
    EXPECT_DOUBLE_EQ(cfg.heartbeatTimeout, 10.0);
    EXPECT_EQ(cfg.maxAttempts, 4u);
    EXPECT_DOUBLE_EQ(cfg.backoffBase, 0.1);
    EXPECT_DOUBLE_EQ(cfg.backoffCap, 2.0);
    EXPECT_EQ(cfg.statsJsonPath, "out.json");
    EXPECT_TRUE(cfg.resume);
    EXPECT_FALSE(cfg.shardMode);
    EXPECT_EQ(a.argc, 1); // every flag consumed
}

TEST(CampaignFlags, ResumeWithoutSpoolExits2)
{
    Argv a({"--resume"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "--resume needs --spool");
}

TEST(CampaignFlags, ZeroShardsExits2)
{
    Argv a({"--spool", "sp", "--shards", "0"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "not a positive count");
}

TEST(CampaignFlags, SignedAndOversizeCountsExit2)
{
    // Read by bare strtoull and cast to unsigned, "-1" became
    // 4294967295 and 2^32+1 became 1: a different fleet than asked.
    Argv a({"--spool", "sp", "--shards", "-1"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "--shards: '-1' is not a positive count");
    Argv b({"--spool", "sp", "--shards", "4294967297"});
    EXPECT_EXIT(b.parse(), ::testing::ExitedWithCode(2),
                "max 4294967295");
    Argv c({"--spool", "sp", "--max-retries", "-1"});
    EXPECT_EXIT(c.parse(), ::testing::ExitedWithCode(2),
                "--max-retries: '-1' is not a positive count");
    Argv d({"--spool", "sp", "--shard", "--shard-id", "-1"});
    EXPECT_EXIT(d.parse(), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
    Argv e({"--spool", "sp", "--cycles", " 5"});
    EXPECT_EXIT(e.parse(), ::testing::ExitedWithCode(2),
                "not a positive count");
}

TEST(CampaignFlags, HeartbeatTimeoutBelowIntervalExits2)
{
    Argv a({"--spool", "sp", "--heartbeat-interval", "5",
            "--heartbeat-timeout", "2"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "must exceed --heartbeat-interval");
}

TEST(CampaignFlags, BackoffCapBelowBaseExits2)
{
    Argv a({"--spool", "sp", "--backoff-base", "4", "--backoff-cap",
            "1"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "--backoff-cap");
}

TEST(CampaignFlags, UnknownArgumentExits2)
{
    Argv a({"--spool", "sp", "--bogus"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "unrecognized argument");
}

TEST(CampaignFlags, ShardModeRequiresShardId)
{
    Argv a({"--spool", "sp", "--shard"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "--shard requires --shard-id");
    Argv b({"--spool", "sp", "--shard-id", "1"});
    EXPECT_EXIT(b.parse(), ::testing::ExitedWithCode(2),
                "meaningless without --shard");
}

// ---------------------------------------------------------------
// Spool primitives.
// ---------------------------------------------------------------

TEST(CampaignSpool, TokenRoundTripAndDamage)
{
    std::string dir = scratchDir("campaign_token");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string path = dir + "/job000";

    JobToken t;
    t.attempts = 2;
    t.notBefore = 12345.5;
    t.lastError = "watchdog: no forward progress";
    ASSERT_TRUE(writeJobTokenFile(path, t));

    JobToken r;
    ASSERT_TRUE(readJobTokenFile(path, &r));
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_DOUBLE_EQ(r.notBefore, 12345.5);
    EXPECT_EQ(r.lastError, "watchdog: no forward progress");

    // A missing token reads false; a damaged one reads as defaults
    // (plus whatever parsed) -- retry bookkeeping never aborts.
    EXPECT_FALSE(readJobTokenFile(dir + "/nope", &r));
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("attempts 3\n\x01garbage\x02\n", f);
    std::fclose(f);
    ASSERT_TRUE(readJobTokenFile(path, &r));
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_DOUBLE_EQ(r.notBefore, 0.0);
}

TEST(CampaignSpool, ClaimByRenameIsExclusive)
{
    std::string dir = scratchDir("campaign_claim");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string todo = dir + "/job000";
    ASSERT_TRUE(writeJobTokenFile(todo, JobToken()));

    // First claimant wins; the loser's rename sees ENOENT and is a
    // clean "already taken", not an error.
    EXPECT_EQ(claimByRename(todo, dir + "/job000.shard0"),
              ClaimOutcome::Won);
    EXPECT_EQ(claimByRename(todo, dir + "/job000.shard1"),
              ClaimOutcome::Lost);
    EXPECT_TRUE(fileExists(dir + "/job000.shard0"));
    EXPECT_FALSE(fileExists(dir + "/job000.shard1"));
}

TEST(CampaignSpool, BackoffDoublesAndCaps)
{
    CampaignConfig cfg;
    cfg.backoffBase = 0.25;
    cfg.backoffCap = 1.5;
    EXPECT_DOUBLE_EQ(backoffSeconds(cfg, 1), 0.25);
    EXPECT_DOUBLE_EQ(backoffSeconds(cfg, 2), 0.5);
    EXPECT_DOUBLE_EQ(backoffSeconds(cfg, 3), 1.0);
    EXPECT_DOUBLE_EQ(backoffSeconds(cfg, 4), 1.5); // capped
    EXPECT_DOUBLE_EQ(backoffSeconds(cfg, 40), 1.5);
}

TEST(CampaignSpool, HeartbeatAge)
{
    std::string dir = scratchDir("campaign_hb");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string hb = dir + "/shard0.hb";
    EXPECT_LT(heartbeatAgeSeconds(hb), 0.0); // missing
    ASSERT_TRUE(heartbeatWrite(hb, 1234, 7, 3));
    double age = heartbeatAgeSeconds(hb);
    EXPECT_GE(age, 0.0);
    EXPECT_LT(age, 30.0); // fresh (generous bound for slow CI)
}

TEST(CampaignSpool, JobListIsDeterministicAcrossProcesses)
{
    CampaignConfig cfg;
    cfg.replicas = 2;
    cfg.cycles = 123'456;
    std::vector<SimJob> a = campaignJobs(cfg);
    std::vector<SimJob> b = campaignJobs(cfg);
    ASSERT_EQ(a.size(), 10u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].profile.name, b[i].profile.name);
        EXPECT_EQ(a[i].profile.seed, b[i].profile.seed);
        EXPECT_EQ(a[i].cycles, 123'456u);
    }
    // Replica 1 jobs are distinct experiments, not reruns.
    EXPECT_EQ(a[5].profile.name, a[0].profile.name + "#1");
    EXPECT_NE(a[5].profile.seed, a[0].profile.seed);
}

// ---------------------------------------------------------------
// Fail-soft .result ingestion (a SIGKILL can cut any write short).
// ---------------------------------------------------------------

TEST(CampaignResultIngestion, DamagedResultReadsAsUnfinished)
{
    std::string dir = scratchDir("campaign_ingest");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string path = dir + "/job000-x.result";

    ExperimentResult r = runExperiment(allProfiles()[0], 30'000);
    ASSERT_TRUE(writeResultFile(path, r));
    ExperimentResult back;
    ASSERT_TRUE(readResultFile(path, &back));
    EXPECT_EQ(back.name, r.name);

    // Truncation: the tail of the file never made it to disk.
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 32u);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
    EXPECT_FALSE(readResultFile(path, &back)); // warned, not thrown
    EXPECT_THROW(readResultFileChecked(path, &back),
                 snap::SnapshotError);

    // CRC damage: one flipped byte mid-payload.
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    bytes[bytes.size() / 2] ^= 0x40;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    EXPECT_FALSE(readResultFile(path, &back));

    // Absent stays a plain false.
    EXPECT_FALSE(readResultFile(dir + "/nope.result", &back));
}

// ---------------------------------------------------------------
// Crash drills against the real binary.
// ---------------------------------------------------------------

TEST(CampaignDrill, FleetMatchesInProcessByteForByte)
{
    ASSERT_FALSE(campaignBin().empty());
    // A clean fleet must write the bytes SimPool::runComposite gives
    // for the same job list in this process.
    std::string dir = scratchDir("campaign_fleet");
    std::string json = dir + ".json";
    int st = runTool(drillArgs(dir) + " --stats-json '" + json + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), referenceStatsJson());
}

TEST(CampaignDrill, KillDrillByteIdentity)
{
    ASSERT_FALSE(campaignBin().empty());
    // Shard 0 SIGKILLs itself two chunks into its first job; the
    // supervisor must reap it, reclaim the claim, respawn, and finish
    // with the uninterrupted run's exact stats dump.
    std::string dir = scratchDir("campaign_kill");
    std::string json = dir + ".json";
    int st = runTool(drillArgs(dir) +
                     " --drill-shard0-die-after-chunks 2 "
                     "--stats-json '" + json + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), referenceStatsJson());
}

TEST(CampaignDrill, SupervisorDeathResumeIdentity)
{
    ASSERT_FALSE(campaignBin().empty());
    // The whole fleet -- supervisor included -- loses power once two
    // results exist; --resume restarts from the manifest + .result +
    // .ckpt files and must land on the identical dump.
    std::string dir = scratchDir("campaign_resume");
    std::string json = dir + ".json";
    int st = runTool(drillArgs(dir) + " --drill-die-after-results 2 "
                     "--stats-json '" + json + "'");
    EXPECT_FALSE(WIFEXITED(st) && WEXITSTATUS(st) == 0); // died hard
    EXPECT_FALSE(fileExists(json));

    st = runTool(drillArgs(dir) + " --resume --stats-json '" + json +
                 "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), referenceStatsJson());
}

TEST(CampaignDrill, PoisonJobQuarantinesAndCampaignSurvives)
{
    ASSERT_FALSE(campaignBin().empty());
    // Job 1 fails every attempt; after max-retries it must move to
    // quarantine/ and the campaign must still complete (exit 0) with
    // a renormalized survivor composite -- one poison job can cost
    // its own measurement, never the fleet's.
    std::string dir = scratchDir("campaign_poison");
    std::string json = dir + ".json";
    int st = runTool(drillArgs(dir) + " --max-retries 2 "
                     "--drill-poison-job 1 --stats-json '" + json +
                     "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);

    JobToken tok;
    ASSERT_TRUE(readJobTokenFile(dir + "/quarantine/job001", &tok));
    EXPECT_EQ(tok.attempts, 2u);
    EXPECT_NE(tok.lastError.find("drill"), std::string::npos);

    // Survivor dump differs from the full one (fewer parts) but must
    // exist and parse as JSON-ish output.
    std::string bytes = slurp(json);
    EXPECT_FALSE(bytes.empty());
    EXPECT_NE(bytes, referenceStatsJson());
}

TEST(CampaignDrill, FreshSpoolRefusesReuseWithoutResume)
{
    ASSERT_FALSE(campaignBin().empty());
    std::string dir = scratchDir("campaign_reuse");
    int st = runTool(drillArgs(dir));
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    // Same spool again without --resume: refused (a stale .result
    // would silently skip work), fatal exit 1.
    st = runTool(drillArgs(dir));
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 1);
}
