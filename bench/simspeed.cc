/**
 * @file
 * google-benchmark microbenchmarks of the simulator's layers: raw
 * machine-cycle throughput in several regimes, microcode ROM build
 * cost, workload generation cost, and histogram analysis cost.  The
 * end-to-end number -- a whole cold characterization -- is perfbench's
 * (perfbench/README.md), not this file's.
 *
 * Usage: simspeed [google-benchmark flags]
 *
 * Machine-readable output: pass the standard google-benchmark flags
 *   --benchmark_out=FILE.json --benchmark_out_format=json
 * to write a JSON report.  The committed baseline lives in
 * BENCH_simspeed.json at the repo root; compare a fresh run against
 * it with tools/bench_compare (the CI perf-smoke job does exactly
 * that and fails on a >30% throughput regression).
 */

#include <benchmark/benchmark.h>

#include "arch/assembler.hh"
#include "ucode/rom.hh"
#include "cpu/cpu.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
#include "workload/codegen.hh"
#include "workload/experiments.hh"

namespace
{

using namespace vax;

/** Tight register-only loop: peak interpreter speed. */
void
BM_CycleThroughputRegisters(benchmark::State &state)
{
    Cpu780 cpu;
    cpu.mem().setMapEnable(false);
    Assembler a(0x1000);
    a.label("loop");
    for (int i = 0; i < 16; ++i)
        a.instr(op::ADDL2, {Operand::lit(1), Operand::reg(R1)});
    a.instr(op::BRW, {Operand::branch("loop")});
    cpu.mem().phys().load(a.base(), a.finish());
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x8000);

    for (auto _ : state) {
        cpu.tick();
        benchmark::DoNotOptimize(cpu.cycles());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleThroughputRegisters);

/** Memory-heavy loop: cache/TB path cost. */
void
BM_CycleThroughputMemory(benchmark::State &state)
{
    Cpu780 cpu;
    cpu.mem().setMapEnable(false);
    Assembler a(0x1000);
    a.instr(op::MOVL, {Operand::imm(0x40000), Operand::reg(R2)});
    a.label("loop");
    for (int i = 0; i < 8; ++i) {
        a.instr(op::MOVL, {Operand::disp(4 * i, R2),
                           Operand::reg(R1)});
        a.instr(op::MOVL, {Operand::reg(R1),
                           Operand::disp(4 * i + 64, R2)});
    }
    a.instr(op::BRW, {Operand::branch("loop")});
    cpu.mem().phys().load(a.base(), a.finish());
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x8000);

    for (auto _ : state) {
        cpu.tick();
        benchmark::DoNotOptimize(cpu.cycles());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleThroughputMemory);

/**
 * Cycle cost with the UPC monitor attached (should be ~free).  The
 * monitor must actually observe every iterated cycle -- otherwise the
 * benchmark would be timing a disconnected fast path and the "~free"
 * claim would be vacuous -- so the count is asserted afterwards.
 */
void
BM_CycleThroughputMonitored(benchmark::State &state)
{
    Cpu780 cpu;
    UpcMonitor mon;
    cpu.setCycleSink(&mon);
    cpu.mem().setMapEnable(false);
    Assembler a(0x1000);
    a.label("loop");
    for (int i = 0; i < 16; ++i)
        a.instr(op::ADDL2, {Operand::lit(1), Operand::reg(R1)});
    a.instr(op::BRW, {Operand::branch("loop")});
    cpu.mem().phys().load(a.base(), a.finish());
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x8000);
    uint64_t before = mon.histogram().cycles();

    for (auto _ : state) {
        cpu.tick();
        benchmark::DoNotOptimize(cpu.cycles());
    }

    uint64_t counted = mon.histogram().cycles() - before;
    if (counted != static_cast<uint64_t>(state.iterations()))
        state.SkipWithError("monitor lost cycles");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleThroughputMonitored);

/** Full ROM construction (paid once per process by microcodeRom()). */
void
BM_RomBuild(benchmark::State &state)
{
    for (auto _ : state) {
        ControlStore cs;
        buildMicrocodeRom(cs);
        benchmark::DoNotOptimize(cs.size());
    }
}
BENCHMARK(BM_RomBuild);

/** Workload program generation. */
void
BM_CodeGeneration(benchmark::State &state)
{
    WorkloadProfile prof = educationalProfile();
    uint64_t seed = 1;
    for (auto _ : state) {
        CodeGenerator gen(prof, seed++);
        UserProgram prog = gen.generate(0);
        benchmark::DoNotOptimize(prog.image.size());
    }
}
BENCHMARK(BM_CodeGeneration);

/**
 * The populated histogram that BM_HistogramAnalysis chews on.  Built
 * here, in a helper the benchmark calls before its timing loop, so
 * the 200k-cycle experiment can never leak into a timed region (the
 * old function-local static initialised mid-benchmark, inflating the
 * first sample the iteration-count estimator sees).
 */
const ExperimentResult &
analysisInput()
{
    static const ExperimentResult result =
        runExperiment(timesharingLightProfile(), 200000);
    return result;
}

/** Histogram analysis over a populated histogram. */
void
BM_HistogramAnalysis(benchmark::State &state)
{
    const ExperimentResult &result = analysisInput();
    for (auto _ : state) {
        HistogramAnalyzer an(microcodeRom(), result.hist);
        benchmark::DoNotOptimize(an.cyclesPerInstruction());
    }
}
BENCHMARK(BM_HistogramAnalysis);

} // anonymous namespace

BENCHMARK_MAIN();
