#include "workload/experiments.hh"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "cpu/cpu.hh"
#include "os/vms.hh"
#include "support/archive.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/sim_error.hh"
#include "support/stats.hh"
#include "workload/codegen.hh"

namespace vax
{

void
HwTotals::add(const HwTotals &other, uint64_t weight)
{
    counter::accumulate(counters, other.counters, weight);
    counter::accumulate(cache, other.cache, weight);
    counter::accumulate(tb, other.tb, weight);
    counter::accumulate(faults, other.faults, weight);
    counter::accumulate(*this, other, weight);
}

void
HwTotals::regStats(stats::Registry &r, const std::string &prefix) const
{
    counter::regStats(r, prefix, counters);
    counter::regStats(r, prefix + ".cache", cache);
    counter::regStats(r, prefix + ".tb", tb);
    // Registered only when something actually fired: a fault-free
    // run's stats dump stays byte-identical to one built before
    // fault injection existed.
    if (counter::any(faults))
        counter::regStats(r, prefix + ".faults", faults);
    counter::regStats(r, prefix, *this);
}

void
registerCompositeStats(stats::Registry &r, const CompositeResult &comp)
{
    comp.hw.regStats(r, "composite");
    comp.hist.regStats(r, "composite.upc");
    // Failed parts carry no measurements; numbering only the
    // survivors keeps a run with one failed job byte-identical to a
    // run that never had it.
    size_t reg = 0;
    for (const ExperimentResult &part : comp.parts) {
        if (part.failed)
            continue;
        std::string prefix =
            "part" + std::to_string(reg++) + "." + part.name;
        part.hw.regStats(r, prefix);
        part.hist.regStats(r, prefix + ".upc");
    }
}

ExperimentResult
runExperiment(const WorkloadProfile &profile, uint64_t cycles)
{
    SimConfig sim;
    sim.seed = profile.seed;
    return runExperiment(profile, cycles, sim);
}

ExperimentResult
runExperiment(const WorkloadProfile &profile, uint64_t cycles,
              const SimConfig &sim)
{
    VmsConfig vcfg;
    vcfg.timerIntervalCycles = 20000;
    vcfg.quantumTicks = 4;
    return runExperiment(profile, cycles, sim, vcfg);
}

ExperimentResult
runExperiment(const WorkloadProfile &profile, uint64_t cycles,
              const SimConfig &sim, const VmsConfig &vcfg)
{
    return runExperiment(profile, cycles, sim, vcfg, RunLimits());
}

namespace
{

/** RTE poll granularity in machine cycles.  Chunk boundaries also
 *  land only on these iteration boundaries, so chunked runs replay
 *  the one-shot cycle stream exactly. */
constexpr uint64_t rtePoll = 512;

} // anonymous namespace

Experiment::Experiment(const WorkloadProfile &profile, uint64_t cycles,
                       const SimConfig &sim, const VmsConfig &vms,
                       const RunLimits &limits)
    : profile_(profile), cycles_(cycles), limits_(limits), cpu_(sim),
      os_(cpu_, monitor_, vms), diskRng_(profile.seed ^ 0xD15C),
      rte_(profile.seed ^ 0x57E57E), watchdog_(limits.watchdogCycles),
      nextPoll_(rtePoll)
{
    // Every deterministic construction step below happens in the
    // same order as the original one-shot runner, so the machine
    // state and all RNG streams match it draw for draw.
    cpu_.setCycleSink(&monitor_);
    result_.name = profile_.name;

    os_.onTerminalOutput([this](uint32_t) {
        ++result_.hw.terminalLinesOut;
    });

    // Each user's image is built on the machine's first touch of it:
    // in a short run most users are never dispatched.
    VirtAddr entry = CodeGenerator::entryPoint(profile_);
    for (unsigned u = 0; u < profile_.numUsers; ++u) {
        uint64_t seed = profile_.seed * 0x9E3779B1ULL + 17 * u + 1;
        os_.addProcess(entry, u, [this, seed, u, entry] {
            UserProgram prog = CodeGenerator(profile_, seed).generate(u);
            upc_assert(prog.entry == entry);
            return std::move(prog.image);
        });
    }
    // Disk controller model: completions arrive a (deterministic,
    // exponential) seek+transfer latency after each request.
    os_.onDiskRequest([this](uint32_t proc) {
        double u = diskRng_.uniform();
        uint64_t latency = 8000 +
            static_cast<uint64_t>(-std::log(1.0 - u) * 25000.0);
        diskQueue_.push_back({cpu_.cycles() + latency, proc});
    });
    os_.boot();

    // The RTE: independent think-time clocks per simulated user.
    nextLine_.resize(profile_.numUsers);
    for (unsigned u = 0; u < profile_.numUsers; ++u)
        nextLine_[u] = thinkDraw();

    wallStart_ = std::chrono::steady_clock::now();
}

uint64_t
Experiment::thinkDraw()
{
    double u = rte_.uniform();
    double t = -std::log(1.0 - u) * profile_.thinkCycles;
    return static_cast<uint64_t>(t) + 500;
}

void
Experiment::pollRte()
{
    nextPoll_ = cpu_.cycles() + rtePoll;
    watchdog_.poke(cpu_.hw().instructions, cpu_.cycles(),
                   cpu_.ebox().currentUpc());
    if (limits_.timeoutSeconds > 0.0) {
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - wallStart_;
        if (elapsed.count() > limits_.timeoutSeconds) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "wall-clock budget of %.1fs exceeded",
                          limits_.timeoutSeconds);
            throw SimError::fromGuard(SimErrorCause::Timeout, msg);
        }
    }
    if (limits_.tripCycle && cpu_.cycles() >= limits_.tripCycle) {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "scheduled recovery drill at cycle %llu",
                      static_cast<unsigned long long>(
                          limits_.tripCycle));
        throw SimError::fromGuard(SimErrorCause::Drill, msg);
    }
    for (unsigned u = 0; u < profile_.numUsers; ++u) {
        if (nextLine_[u] <= cpu_.cycles()) {
            os_.postTerminalLine(u);
            ++result_.hw.terminalLinesIn;
            nextLine_[u] = cpu_.cycles() + thinkDraw();
        }
    }
    for (size_t i = 0; i < diskQueue_.size();) {
        if (diskQueue_[i].due <= cpu_.cycles()) {
            os_.postDiskCompletion(diskQueue_[i].proc);
            ++result_.hw.diskTransfers;
            diskQueue_[i] = diskQueue_.back();
            diskQueue_.pop_back();
        } else {
            ++i;
        }
    }
}

bool
Experiment::runChunk(uint64_t chunk)
{
    uint64_t stop = cycles_;
    if (chunk && cpu_.cycles() + chunk < stop)
        stop = cpu_.cycles() + chunk;
    while (cpu_.cycles() < stop) {
        cpu_.tick();
        if (cpu_.cycles() >= nextPoll_)
            pollRte();
        if (cpu_.halted())
            panic("machine halted during experiment '%s'",
                  profile_.name.c_str());
    }
    return done();
}

ExperimentResult
Experiment::takeResult()
{
    result_.hist = monitor_.histogram();
    result_.hw.counters = cpu_.hw();
    result_.hw.cache = cpu_.mem().cache().stats();
    result_.hw.tb = cpu_.mem().tb().stats();
    result_.hw.ibLongwordFetches = cpu_.mem().ibLongwordFetches();
    result_.hw.dataReads = cpu_.mem().dataReads();
    result_.hw.dataWrites = cpu_.mem().dataWrites();
    if (const FaultInjector *fi = cpu_.mem().faultInjector()) {
        result_.hw.faults = fi->stats();
        result_.hw.faults.osMachineChecks = os_.machineChecks();
    }
    return std::move(result_);
}

void
Experiment::save(snap::Serializer &s) const
{
    snap::save(s, *this);
}

void
Experiment::restore(snap::Deserializer &d)
{
    snap::restore(d, *this);
}

bool
Experiment::saveFile(const std::string &path) const
{
    snap::Serializer s;
    save(s);
    return s.writeFile(path);
}

void
Experiment::restoreFile(const std::string &path)
{
    snap::Deserializer d = snap::Deserializer::fromFile(path);
    restore(d);
    d.finish();
}

ExperimentResult
runExperiment(const WorkloadProfile &profile, uint64_t cycles,
              const SimConfig &sim, const VmsConfig &vcfg,
              const RunLimits &limits)
{
    Experiment exp(profile, cycles, sim, vcfg, limits);
    exp.runChunk();
    return exp.takeResult();
}

CompositeResult
runComposite(uint64_t cycles_per_experiment)
{
    CompositeResult comp;
    for (const auto &prof : allProfiles()) {
        ExperimentResult r = runExperiment(prof, cycles_per_experiment);
        comp.hist.merge(r.hist);
        comp.hw.add(r.hw);
        comp.parts.push_back(std::move(r));
    }
    return comp;
}

} // namespace vax
