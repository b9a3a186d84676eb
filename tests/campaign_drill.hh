/**
 * @file
 * Shared helpers for the tests that drive the real upc780_campaign
 * binary: scratch spools, the drill geometry, a tool runner, and the
 * reference stats dump every drill must reproduce byte for byte.
 *
 * The binary's path is baked in as UPC780_CAMPAIGN_BIN and can be
 * overridden by the environment variable of the same name, so the
 * fork/exec supervisor, the claim protocol and the SIGKILL recovery
 * run exactly as they do in production.
 */

#ifndef UPC780_TESTS_CAMPAIGN_DRILL_HH
#define UPC780_TESTS_CAMPAIGN_DRILL_HH

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "driver/campaign.hh"
#include "driver/sim_pool.hh"
#include "support/stats.hh"
#include "workload/experiments.hh"

namespace vax::drill
{

/** Fresh scratch directory, pid-qualified so a discovered gtest case
 *  and its aggregate ctest entry can run concurrently under -j. */
inline std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "upc780_" + name + "_" +
        std::to_string(static_cast<long>(::getpid()));
    std::string cmd = "rm -rf '" + dir + "'";
    (void)!std::system(cmd.c_str());
    return dir;
}

/** The campaign binary under test. */
inline std::string
campaignBin()
{
    if (const char *env = std::getenv("UPC780_CAMPAIGN_BIN"))
        return env;
#ifdef UPC780_CAMPAIGN_BIN
    return UPC780_CAMPAIGN_BIN;
#else
    return "";
#endif
}

/** Run the campaign binary, capturing stdout+stderr into @p log (or
 *  discarding them).  @return The raw wait() status. */
inline int
runTool(const std::string &args, const std::string &log = "")
{
    std::string sink = log.empty() ? "/dev/null" : log;
    std::string cmd = "'" + campaignBin() + "' " + args + " > '" +
        sink + "' 2>&1";
    return std::system(cmd.c_str());
}

/** The drill campaigns' shared geometry: 2 shards and 5 jobs small
 *  enough to finish in well under a second per run, chunked enough
 *  (6 chunks/job) that a mid-job SIGKILL always lands between
 *  checkpoints; fast heartbeats and backoff. */
inline std::string
drillArgs(const std::string &spool)
{
    return "--spool '" + spool + "' --shards 2 --cycles 90000 "
           "--checkpoint-interval 15000 --heartbeat-interval 0.2 "
           "--heartbeat-timeout 5 --backoff-base 0.05 "
           "--backoff-cap 0.2";
}

/** A CampaignConfig matching drillArgs (job list, spool paths). */
inline CampaignConfig
drillConfig(const std::string &spool = "")
{
    CampaignConfig cfg;
    cfg.spool = spool;
    cfg.cycles = 90'000;
    cfg.intervalCycles = 15'000;
    return cfg;
}

inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The stats dump a clean campaign over @p cfg writes: the same job
 *  list through SimPool::runComposite in this process, rendered as
 *  --stats-json renders it. */
inline std::string
compositeStatsJson(const CampaignConfig &cfg)
{
    CompositeResult comp = SimPool(2).runComposite(campaignJobs(cfg));
    stats::Registry reg;
    registerCompositeStats(reg, comp);
    return reg.dumpJson();
}

/** compositeStatsJson of the drill geometry, computed once. */
inline const std::string &
referenceStatsJson()
{
    static const std::string bytes = compositeStatsJson(drillConfig());
    return bytes;
}

/** Build a mutable argv for CampaignConfig::parseFlags. */
struct Argv
{
    explicit Argv(std::initializer_list<const char *> args)
    {
        strings.emplace_back("upc780_campaign");
        for (const char *a : args)
            strings.emplace_back(a);
        for (std::string &s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
    int argc;

    CampaignConfig parse()
    {
        return CampaignConfig::parseFlags(&argc, ptrs.data());
    }
};

} // namespace vax::drill

#endif // UPC780_TESTS_CAMPAIGN_DRILL_HH
