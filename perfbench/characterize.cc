#include "characterize.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "support/stats.hh"
#include "ucode/rom.hh"
#include "upc/analyzer.hh"
#include "upc/selfcheck.hh"

namespace perfbench
{

using namespace vax;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<SimJob>
seededCompositeJobs(uint64_t seed, uint64_t cycles)
{
    std::vector<SimJob> jobs;
    for (WorkloadProfile p : allProfiles()) {
        // A golden-ratio stride keeps the re-seeded profiles apart
        // from each other and from the committed seeds.
        p.seed += seed * 0x9E3779B97F4A7C15ULL;
        jobs.push_back(SimJob::forProfile(p, cycles));
    }
    return jobs;
}

CompositeAnalysis
analyzeComposite(std::vector<ExperimentResult> parts,
                 const std::vector<SimJob> &jobs, SpanRecorder *rec)
{
    CompositeAnalysis a;
    {
        Timed t(rec, "driver.merge");
        for (size_t i = 0; i < parts.size(); ++i) {
            a.comp.hist.merge(parts[i].hist, jobs[i].weight);
            a.comp.hw.add(parts[i].hw, jobs[i].weight);
        }
        a.comp.parts = std::move(parts);
    }
    {
        Timed t(rec, "ucode.rom_build");
        a.cs = std::make_unique<ControlStore>();
        buildMicrocodeRom(*a.cs);
    }
    {
        Timed t(rec, "upc.analyze");
        HistogramAnalyzer an(*a.cs, a.comp.hist);
        a.cpi = an.cyclesPerInstruction();
        a.ibStallCpi = an.colTotal(TimeCol::IbStall);
        a.readStallCpi = an.colTotal(TimeCol::RStall);
        a.writeStallCpi = an.colTotal(TimeCol::WStall);
    }
    {
        Timed t(rec, "support.stats_dump");
        stats::Registry reg;
        registerCompositeStats(reg, a.comp);
        a.dump = reg.dumpJson();
    }
    return a;
}

void
checkComposite(const CompositeAnalysis &a, const std::vector<SimJob> &jobs,
               std::vector<std::string> *problems)
{
    std::vector<uint64_t> weights;
    for (const SimJob &j : jobs)
        weights.push_back(j.weight);
    SelfCheckReport rep = selfCheckComposite(*a.cs, a.comp, weights);
    if (!rep.ok())
        problems->push_back(rep.summary());
    for (size_t i = 0; i < jobs.size(); ++i) {
        uint64_t ran = a.comp.parts[i].hw.counters.cycles;
        if (ran != jobs[i].cycles)
            problems->push_back(jobs[i].profile.name + ": ran " +
                                std::to_string(ran) + " of " +
                                std::to_string(jobs[i].cycles) +
                                " budgeted cycles");
    }
}

Sample
runCompositeSample(const std::vector<SimJob> &jobs, SpanRecorder *rec)
{
    Sample s;
    CompositeAnalysis a;
    {
        Timed whole(rec, "driver.characterization");
        std::vector<ExperimentResult> parts;
        for (const SimJob &job : jobs) {
            std::optional<Experiment> exp;
            {
                Timed t(rec, "workload.experiment_build",
                        job.profile.name);
                exp.emplace(job.profile, job.cycles, job.sim, job.vms,
                            job.limits);
                s.setupSeconds += t.stop();
            }
            {
                Timed t(rec, "cpu.run", job.profile.name);
                exp->runChunk();
                t.count("cycles", exp->cycle());
                s.runSeconds += t.stop();
            }
            Timed t(rec, "workload.collect", job.profile.name);
            parts.push_back(exp->takeResult());
            exp.reset();
        }
        a = analyzeComposite(std::move(parts), jobs, rec);
        s.characterizationSeconds = whole.stop();
    }
    for (const ExperimentResult &p : a.comp.parts) {
        s.retiredCycles += p.hw.counters.cycles;
        s.instructions += p.hw.counters.instructions;
    }
    for (const SimJob &j : jobs)
        s.requestedCycles += j.cycles;
    s.cpi = a.cpi;
    s.dump = std::move(a.dump);
    checkComposite(a, jobs, &s.problems);
    return s;
}

UcharOutcome
runUcharRow(const UcharProgram &prog, const UcharParams &params,
            SpanRecorder *rec)
{
    Timed t(rec, "upc.uchar_row");
    UcharOutcome o = runUcharProgram(prog, params);
    t.count("cycles", o.run.cycles);
    return o;
}

Sample
runUcharSample(const UcharParams &params, const UcharReport &baseline,
               SpanRecorder *rec)
{
    Sample s;
    UcharReport rep;
    rep.params = params;
    {
        Timed whole(rec, "driver.characterization");
        std::vector<UcharVariant> variants;
        UcharProgram calib;
        {
            Timed t(rec, "workload.uchar_enumerate");
            variants = ucharEnumerate(params);
            calib = ucharCalibration(params);
            s.setupSeconds = t.stop();
        }
        Clock::time_point run0 = Clock::now();
        UcharOutcome co = runUcharRow(calib, params, rec);
        std::vector<UcharOutcome> outcomes(variants.size());
        for (size_t i = 0; i < variants.size(); ++i)
            if (variants[i].runnable)
                outcomes[i] = runUcharRow(variants[i].prog, params, rec);
        s.runSeconds = secondsSince(run0);
        {
            Timed t(rec, "upc.uchar_report");
            // The row/skip assembly of runUcharSuite().
            rep.calibration = co.run;
            for (size_t i = 0; i < variants.size(); ++i) {
                const UcharVariant &v = variants[i];
                if (v.runnable && outcomes[i].ok)
                    rep.rows.push_back(
                        {v.op, v.mode, v.prog.ipc, outcomes[i].run});
                else
                    rep.skipped.push_back(
                        {v.op, v.mode,
                         v.runnable ? outcomes[i].reason : v.skipReason});
            }
            s.dump = ucharJson(rep);
        }
        s.characterizationSeconds = whole.stop();

        if (!co.ok)
            s.problems.push_back("calibration loop failed: " + co.reason);
        uint64_t programs = 1;
        s.retiredCycles = co.run.cycles;
        s.instructions = co.run.instructions;
        for (size_t i = 0; i < variants.size(); ++i) {
            if (!variants[i].runnable)
                continue;
            ++programs;
            s.retiredCycles += outcomes[i].run.cycles;
            s.instructions += outcomes[i].run.instructions;
        }
        s.requestedCycles = programs * params.maxCycles;
    }
    uint64_t rowCycles = 0, rowInstructions = 0;
    for (const UcharRow &r : rep.rows) {
        rowCycles += r.run.cycles;
        rowInstructions += r.run.instructions;
    }
    s.cpi = rowInstructions ? double(rowCycles) / double(rowInstructions)
                            : 0.0;
    UcharDiff diff = ucharCompare(baseline, rep);
    for (size_t i = 0; i < diff.messages.size() && i < 5; ++i)
        s.problems.push_back("baseline: " + diff.messages[i]);
    if (diff.messages.size() > 5)
        s.problems.push_back("baseline: " +
                             std::to_string(diff.messages.size() - 5) +
                             " more difference(s)");
    return s;
}

} // namespace perfbench
