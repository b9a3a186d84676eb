#include "probes.hh"

#include <exception>
#include <optional>
#include <utility>

#include "arch/assembler.hh"
#include "cpu/cpu.hh"
#include "os/vms.hh"
#include "support/snapshot.hh"
#include "support/stats.hh"
#include "upc/monitor.hh"
#include "workload/codegen.hh"

namespace perfbench
{

using namespace vax;

namespace
{

/** Every 16th corpus variant: enough rows for a per-row time on the
 *  workloads that do not run the suite, at a tenth of its cost. */
constexpr size_t kRowStride = 16;
constexpr int kLoopReps = 5;
constexpr uint64_t kLoopCycles = 1'000'000;

/** Code generation and VMS-lite boot of one profile: the steps
 *  Experiment's constructor performs, replayed one span each. */
void
probeBoot(const SimJob &job, SpanRecorder &rec)
{
    std::vector<UserProgram> programs;
    {
        Timed t(&rec, "workload.codegen", job.profile.name);
        uint64_t bytes = 0;
        for (unsigned u = 0; u < job.profile.numUsers; ++u) {
            // Experiment's per-user seed, so these are its programs.
            CodeGenerator gen(job.profile,
                              job.profile.seed * 0x9E3779B1ULL + 17 * u +
                                  1);
            programs.push_back(gen.generate(u));
            bytes += programs.back().image.size();
        }
        t.count("users", programs.size());
        t.count("image_bytes", bytes);
    }
    UpcMonitor monitor;
    std::optional<Cpu780> cpu;
    {
        Timed t(&rec, "cpu.construct");
        cpu.emplace(job.sim);
        cpu->setCycleSink(&monitor);
    }
    Timed t(&rec, "os.boot", job.profile.name);
    VmsLite os(*cpu, monitor, job.vms);
    for (const UserProgram &p : programs)
        os.addProcess(p);
    os.boot();
}

enum class Loop { Registers, Memory, Monitored };

/** Host ns per cycle of one tight loop through Cpu780::tick on a
 *  bare, unmapped machine (simspeed's loop shapes). */
double
probeLoop(Loop kind, SpanRecorder &rec, std::vector<std::string> *problems)
{
    UpcMonitor monitor;
    std::optional<Cpu780> cpu;
    {
        Timed t(&rec, "cpu.construct");
        cpu.emplace();
        cpu->mem().setMapEnable(false);
        if (kind == Loop::Monitored)
            cpu->setCycleSink(&monitor);
        Assembler a(0x1000);
        if (kind == Loop::Memory) {
            a.instr(op::MOVL, {Operand::imm(0x40000), Operand::reg(R2)});
            a.label("loop");
            for (int i = 0; i < 8; ++i) {
                a.instr(op::MOVL,
                        {Operand::disp(4 * i, R2), Operand::reg(R1)});
                a.instr(op::MOVL,
                        {Operand::reg(R1), Operand::disp(4 * i + 64, R2)});
            }
        } else {
            a.label("loop");
            for (int i = 0; i < 16; ++i)
                a.instr(op::ADDL2, {Operand::lit(1), Operand::reg(R1)});
        }
        a.instr(op::BRW, {Operand::branch("loop")});
        cpu->mem().phys().load(a.base(), a.finish());
        cpu->reset(a.base());
        cpu->ebox().setGpr(SP, 0x8000);
    }
    static const char *const names[] = {"cpu.regloop", "mem.memloop",
                                        "upc.monloop"};
    uint64_t before = monitor.histogram().cycles();
    Timed t(&rec, names[static_cast<int>(kind)]);
    for (uint64_t i = 0; i < kLoopCycles; ++i)
        cpu->tick();
    t.count("cycles", kLoopCycles);
    double seconds = t.stop();
    // A monitor that missed cycles would mean the loop timed a
    // disconnected path, and the monitor's cost would read as free.
    uint64_t counted = monitor.histogram().cycles() - before;
    if (kind == Loop::Monitored && counted != kLoopCycles)
        problems->push_back("monitored loop: the monitor counted " +
                            std::to_string(counted) + " of " +
                            std::to_string(kLoopCycles) + " cycles");
    return seconds * 1e9 / double(kLoopCycles);
}

/** Stats dump of one part: what a restored copy must reproduce. */
std::string
partDump(const ExperimentResult &r)
{
    stats::Registry reg;
    r.hw.regStats(reg, "part");
    r.hist.regStats(reg, "part.upc");
    return reg.dumpJson();
}

/** Build and run one experiment, checkpoint it in memory, restore
 *  the checkpoint into a fresh experiment; both must measure alike. */
ExperimentResult
probeSnapshot(const SimJob &job, SpanRecorder &rec,
              std::vector<std::string> *problems)
{
    std::optional<Experiment> orig, copy;
    {
        Timed t(&rec, "workload.experiment_build", job.profile.name);
        orig.emplace(job.profile, job.cycles, job.sim, job.vms,
                     job.limits);
    }
    {
        Timed t(&rec, "cpu.run", job.profile.name);
        orig->runChunk();
        t.count("cycles", orig->cycle());
    }
    std::vector<uint8_t> image;
    {
        Timed t(&rec, "support.snapshot_save", job.profile.name);
        snap::Serializer s;
        orig->save(s);
        image = s.finish();
        t.count("bytes", image.size());
    }
    {
        Timed t(&rec, "workload.experiment_build", job.profile.name);
        copy.emplace(job.profile, job.cycles, job.sim, job.vms,
                     job.limits);
    }
    {
        Timed t(&rec, "support.snapshot_restore", job.profile.name);
        snap::Deserializer d(std::move(image));
        copy->restore(d);
        d.finish();
    }
    Timed t(&rec, "workload.collect", job.profile.name);
    ExperimentResult a = orig->takeResult();
    ExperimentResult b = copy->takeResult();
    if (partDump(a) != partDump(b))
        problems->push_back(job.profile.name +
                            ": the restored snapshot measures differently "
                            "from the original");
    return a;
}

} // anonymous namespace

ProbeResult
runProbes(const std::vector<SimJob> &jobs, const UcharParams &params,
          SpanRecorder &rec)
{
    ProbeResult r;
    Timed root(&rec, "bench.probes");

    for (const SimJob &job : jobs)
        probeBoot(job, rec);

    std::vector<UcharVariant> variants;
    UcharProgram calib;
    {
        Timed t(&rec, "workload.uchar_enumerate");
        variants = ucharEnumerate(params);
        calib = ucharCalibration(params);
    }
    runUcharRow(calib, params, &rec);
    for (size_t i = 0; i < variants.size(); i += kRowStride)
        if (variants[i].runnable)
            runUcharRow(variants[i].prog, params, &rec);

    std::vector<double> reg, mem, mon;
    for (int i = 0; i < kLoopReps; ++i) {
        reg.push_back(probeLoop(Loop::Registers, rec, &r.problems));
        mem.push_back(probeLoop(Loop::Memory, rec, &r.problems));
        mon.push_back(probeLoop(Loop::Monitored, rec, &r.problems));
    }
    r.regLoopNs = median(reg);
    r.memLoopNs = median(mem);
    r.monLoopNs = median(mon);

    std::vector<ExperimentResult> parts;
    try {
        for (const SimJob &job : jobs)
            parts.push_back(probeSnapshot(job, rec, &r.problems));
    } catch (const std::exception &e) {
        r.problems.push_back(std::string("snapshot probe: ") + e.what());
        return r;
    }
    r.composite = analyzeComposite(std::move(parts), jobs, &rec);
    checkComposite(r.composite, jobs, &r.problems);
    return r;
}

} // namespace perfbench
