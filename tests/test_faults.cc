/**
 * @file
 * Robustness tests: deterministic fault injection (same seed, same
 * fault schedule, same stats dump), guarded-pool job isolation (a
 * poisoned job fails without perturbing its siblings' merged stats),
 * the forward-progress watchdog (unit behavior plus a deliberately
 * looping microcode stub), and the accounting self-check (clean runs
 * pass; a corrupted histogram is caught).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "cpu/ebox.hh"
#include "cpu/hw_counters.hh"
#include "cpu/ib.hh"
#include "cpu/ifetch.hh"
#include "cpu/interrupts.hh"
#include "driver/sim_pool.hh"
#include "mem/mem_system.hh"
#include "support/faultinject.hh"
#include "support/sim_error.hh"
#include "support/stats.hh"
#include "ucode/control_store.hh"
#include "upc/selfcheck.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

/** Long enough for every workload to boot and take real faults. */
constexpr uint64_t kCycles = 150'000;

/** A fault campaign dense enough that every class fires at kCycles. */
FaultConfig
denseFaults(uint64_t seed)
{
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.cacheParityRate = 2e-4;
    cfg.tbCorruptRate = 1e-4;
    cfg.sbiTimeoutRate = 1e-3;
    cfg.cacheDisableAfter = 0; // keep the cache up: more parity draws
    return cfg;
}

ExperimentResult
runWithFaults(const WorkloadProfile &profile, const FaultConfig &cfg)
{
    SimJob job = SimJob::forProfile(profile, kCycles);
    job.sim.mem.faults = cfg;
    return runJob(job);
}

std::string
compositeDump(const CompositeResult &comp)
{
    stats::Registry reg;
    registerCompositeStats(reg, comp);
    return reg.dumpText();
}

} // anonymous namespace

// ===================== fault configuration =====================

TEST(FaultConfig, DefaultIsDisabled)
{
    FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
}

TEST(FaultConfig, ParseSpecRoundTrip)
{
    FaultConfig cfg = FaultConfig::parse(
        "parity=1e-3,tb=5e-4,sbi=0.01,seed=42,disable=3,penalty=128,"
        "pcycle=200:50:100");
    EXPECT_TRUE(cfg.enabled());
    EXPECT_DOUBLE_EQ(cfg.cacheParityRate, 1e-3);
    EXPECT_DOUBLE_EQ(cfg.tbCorruptRate, 5e-4);
    EXPECT_DOUBLE_EQ(cfg.sbiTimeoutRate, 0.01);
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.cacheDisableAfter, 3u);
    EXPECT_EQ(cfg.sbiTimeoutPenalty, 128u);
    ASSERT_EQ(cfg.parityCycles.size(), 3u);
    // The schedule is sorted regardless of spec order.
    EXPECT_EQ(cfg.parityCycles[0], 50u);
    EXPECT_EQ(cfg.parityCycles[1], 100u);
    EXPECT_EQ(cfg.parityCycles[2], 200u);
}

TEST(FaultConfig, RejectsUnknownAndMalformedFields)
{
    // A mistyped campaign must not silently run fault-free.
    EXPECT_DEATH(FaultConfig::parse("partiy=1e-3"), "unknown field");
    EXPECT_DEATH(FaultConfig::parse("parity"), "malformed field");
    EXPECT_DEATH(FaultConfig::parse("parity=2.0"), "bad rate");
    EXPECT_DEATH(FaultConfig::parse("seed=12junk"), "bad count");
    // A sign or an oversize value must not wrap into a huge count.
    EXPECT_DEATH(FaultConfig::parse("disable=-1"), "bad count");
    EXPECT_DEATH(FaultConfig::parse("penalty=-1"), "bad count");
    EXPECT_DEATH(FaultConfig::parse("disable=4294967296"), "bad count");
    EXPECT_DEATH(FaultConfig::parse("pcycle=5:-1"), "bad count");
}

// ===================== injection determinism =====================

TEST(FaultInjection, SameSeedSameScheduleAndStats)
{
    FaultConfig cfg = denseFaults(0xFA17);
    ExperimentResult a =
        runWithFaults(timesharingLightProfile(), cfg);
    ExperimentResult b =
        runWithFaults(timesharingLightProfile(), cfg);

    // The campaign actually fired, through every layer: injection,
    // microcode dispatch, and the guest handler.
    EXPECT_GT(a.hw.faults.parityErrors + a.hw.faults.tbCorruptions +
                  a.hw.faults.sbiTimeouts,
              0u);
    EXPECT_GT(a.hw.faults.machineChecks, 0u);
    EXPECT_GT(a.hw.faults.osMachineChecks, 0u);
    EXPECT_LE(a.hw.faults.osMachineChecks, a.hw.faults.machineChecks);

    // And identically both times: schedule, delivery, and the whole
    // measurement (the injector's RNG stream is part of the machine).
    EXPECT_EQ(a.hw.faults.parityErrors, b.hw.faults.parityErrors);
    EXPECT_EQ(a.hw.faults.tbCorruptions, b.hw.faults.tbCorruptions);
    EXPECT_EQ(a.hw.faults.sbiTimeouts, b.hw.faults.sbiTimeouts);
    EXPECT_EQ(a.hw.faults.machineChecks, b.hw.faults.machineChecks);
    EXPECT_EQ(a.hw.faults.osMachineChecks,
              b.hw.faults.osMachineChecks);
    EXPECT_TRUE(a.hist.normal == b.hist.normal);
    EXPECT_TRUE(a.hist.stalled == b.hist.stalled);
    EXPECT_EQ(a.hw.counters.instructions, b.hw.counters.instructions);
    EXPECT_EQ(a.hw.counters.cycles, b.hw.counters.cycles);
}

TEST(FaultInjection, ScheduledParityCyclesFire)
{
    FaultConfig cfg;
    cfg.parityCycles = {10'000, 20'000, 30'000};
    cfg.cacheDisableAfter = 0;
    ExperimentResult r =
        runWithFaults(timesharingLightProfile(), cfg);
    // Each scheduled cycle arms exactly one parity error, taken by
    // the first cache read hit at or after it.
    EXPECT_EQ(r.hw.faults.parityErrors, 3u);
    EXPECT_EQ(r.hw.faults.machineChecks, 3u);
}

TEST(FaultInjection, CacheDisableDegradation)
{
    FaultConfig cfg;
    cfg.cacheParityRate = 5e-3; // a storm: disable threshold is hit
    cfg.cacheDisableAfter = 4;
    ExperimentResult r =
        runWithFaults(timesharingLightProfile(), cfg);
    EXPECT_EQ(r.hw.faults.cacheDisables, 1u);
    EXPECT_EQ(r.hw.faults.parityErrors, 4u); // no hits once disabled
    // Degraded but correct: the machine keeps retiring instructions.
    EXPECT_FALSE(r.failed);
    EXPECT_GT(r.hw.counters.instructions, 0u);
}

TEST(FaultInjection, ZeroRatesLeaveBaselineUntouched)
{
    // FaultConfig{} must be indistinguishable from no fault plumbing:
    // the injector is not constructed, so no RNG draw is ever made.
    ExperimentResult clean =
        runExperiment(timesharingLightProfile(), kCycles);
    ExperimentResult wired =
        runWithFaults(timesharingLightProfile(), FaultConfig());
    EXPECT_TRUE(clean.hist.normal == wired.hist.normal);
    EXPECT_TRUE(clean.hist.stalled == wired.hist.stalled);
    EXPECT_EQ(clean.hw.counters.cycles, wired.hw.counters.cycles);
    EXPECT_FALSE(counter::any(wired.hw.faults));
}

// ===================== pool isolation =====================

TEST(PoolIsolation, FailedJobDoesNotPerturbSiblings)
{
    constexpr uint64_t cycles = 60'000;

    std::vector<SimJob> clean_jobs = compositeJobs(cycles);
    CompositeResult clean = SimPool(3).runComposite(clean_jobs);

    // Poison one extra job: no registered processes makes VMS-lite's
    // boot fatal(), which the guarded worker turns into a SimError.
    std::vector<SimJob> jobs = clean_jobs;
    WorkloadProfile poisoned = timesharingLightProfile();
    poisoned.name = "poisoned";
    poisoned.numUsers = 0;
    jobs.push_back(SimJob::forProfile(poisoned, cycles));

    SimPool pool(3);
    ASSERT_FALSE(pool.strict());
    CompositeResult with_poison = pool.runComposite(jobs);

    // The poisoned job failed (after its deterministic retry) and
    // the pool still completed every sibling.
    ASSERT_EQ(with_poison.parts.size(), jobs.size());
    const ExperimentResult &bad = with_poison.parts.back();
    EXPECT_TRUE(bad.failed);
    EXPECT_EQ(bad.retries, 1u);
    EXPECT_NE(bad.error.find("no processes registered"),
              std::string::npos);

    PoolTelemetry tele = computeTelemetry(with_poison.parts);
    EXPECT_EQ(tele.failedJobs, 1u);
    EXPECT_NE(tele.summary().find("1 FAILED"), std::string::npos);

    // The survivors' merged stats dump is byte-identical to a run
    // that never contained the poisoned job.
    EXPECT_EQ(compositeDump(with_poison), compositeDump(clean));
}

// ===================== watchdog =====================

TEST(Watchdog, FiresAfterWindowWithoutProgress)
{
    ForwardProgressWatchdog wd(100);
    wd.poke(7, 0, 5);               // progress recorded
    wd.poke(7, 99, 5);              // inside the window: quiet
    EXPECT_THROW(wd.poke(7, 200, 5), SimError);
}

TEST(Watchdog, ProgressResetsTheWindow)
{
    ForwardProgressWatchdog wd(100);
    wd.poke(1, 0, 5);
    wd.poke(2, 90, 5);              // retired something: window slides
    wd.poke(2, 150, 5);             // only 60 cycles since progress
    EXPECT_THROW(wd.poke(2, 300, 5), SimError);
}

TEST(Watchdog, ZeroWindowDisables)
{
    ForwardProgressWatchdog wd(0);
    for (uint64_t c = 0; c < 1'000'000; c += 100'000)
        wd.poke(0, c, 5);           // never throws
}

TEST(Watchdog, CatchesLoopingMicrocode)
{
    // A one-word control store whose only microinstruction jumps to
    // itself: the machine busily executes cycles but never retires an
    // instruction -- exactly the hang the watchdog exists to name.
    ControlStore cs;
    MicroAssembler as(cs);
    UAnnotation ann;
    ann.name = "SPIN";
    as.emit(ann, flowToAddr(0), [](Ebox &e) { e.uJumpAddr(0); });
    cs.entries.iid = 0;

    MemConfig mcfg;
    MemSystem mem(mcfg, 1);
    InstructionBuffer ib(8);
    IFetch ifetch(ib, mem);
    InterruptController intc;
    IntervalTimer timer;
    HwCounters hw;
    Ebox ebox(cs, mem, ib, ifetch, intc, timer, hw);
    ebox.reset(0);

    ForwardProgressWatchdog wd(1'000);
    bool caught = false;
    try {
        for (uint64_t c = 0; c < 100'000; ++c) {
            ebox.cycle();
            mem.tick();
            wd.poke(hw.instructions, c, ebox.currentUpc());
        }
    } catch (const SimError &e) {
        caught = true;
        EXPECT_EQ(e.cause(), SimErrorCause::Watchdog);
        EXPECT_EQ(e.microPc(), 0u); // the looping micro-PC, by name
        EXPECT_NE(std::string(e.what()).find("no instruction retired"),
                  std::string::npos);
    }
    EXPECT_TRUE(caught);
}

// ===================== self-check =====================

TEST(SelfCheck, CleanRunHoldsEveryIdentity)
{
    Cpu780 ref;
    ExperimentResult r =
        runExperiment(timesharingLightProfile(), kCycles);
    SelfCheckReport rep = selfCheckResult(ref.controlStore(), r);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_GT(rep.checks, 10u);
}

TEST(SelfCheck, CleanCompositeHoldsEveryIdentity)
{
    Cpu780 ref;
    CompositeResult comp = runComposite(60'000);
    SelfCheckReport rep =
        selfCheckComposite(ref.controlStore(), comp);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(SelfCheck, FaultyRunStillConserves)
{
    // Fault campaigns change the cycle stream but must not break the
    // accounting: machine checks are counted cycles like any others.
    Cpu780 ref;
    ExperimentResult r =
        runWithFaults(timesharingLightProfile(), denseFaults(7));
    ASSERT_GT(r.hw.faults.machineChecks, 0u);
    SelfCheckReport rep = selfCheckResult(ref.controlStore(), r);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(SelfCheck, CatchesCorruptedHistogram)
{
    Cpu780 ref;
    ExperimentResult r =
        runExperiment(timesharingLightProfile(), kCycles);
    // Inflate the IID bucket past the executed-cycle total: cycle
    // conservation against the hardware counter must now fail.
    r.hist.normal[ref.controlStore().entries.iid] +=
        r.hw.counters.cycles;
    SelfCheckReport rep = selfCheckResult(ref.controlStore(), r);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(rep.summary().find("FAILED"), std::string::npos);
    EXPECT_NE(rep.summary().find("histogram cycles <= executed"),
              std::string::npos);
}

TEST(SelfCheck, FailedResultIsSkipped)
{
    Cpu780 ref;
    ExperimentResult r;
    r.failed = true;
    SelfCheckReport rep = selfCheckResult(ref.controlStore(), r);
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.checks, 0u);
}

} // namespace vax::test
