/**
 * @file
 * Quickstart: assemble a small VAX program, run it on the simulated
 * 11/780 with the UPC histogram monitor attached, and derive timing
 * the way the paper does -- from micro-PC counts alone.
 */

#include <cstdio>

#include "arch/assembler.hh"
#include "cpu/cpu.hh"
#include "support/parse.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

using namespace vax;
using Op = Operand;

int
main(int argc, char **argv)
{
    cli::CommandLine("Assemble a small VAX program, run it with the UPC "
                     "monitor attached,\nand derive its timing from the "
                     "histogram alone.",
                     {})
        .parse(&argc, argv);

    // 1. A machine and a monitor (the passive histogram board).
    Cpu780 cpu;
    UpcMonitor monitor;
    cpu.setCycleSink(&monitor);
    cpu.mem().setMapEnable(false); // flat physical addressing

    // 2. Assemble a program: sum an array, then a string move.
    Assembler a(0x1000);
    a.instr(op::MOVAB, {Op::rel("array"), Op::reg(R2)});
    a.instr(op::CLRL, {Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(16), Op::reg(R3)});
    a.label("loop");
    a.instr(op::ADDL2, {Op::autoInc(R2), Op::reg(R1)});
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch("loop")});
    // MOVC3 clobbers R0-R5 (it leaves the string pointers there),
    // so park the sum in R6 first.
    a.instr(op::MOVL, {Op::reg(R1), Op::reg(R6)});
    a.instr(op::MOVC3,
            {Op::imm(16), Op::rel("src"), Op::rel("dst")});
    a.instr(op::HALT);
    a.align(4);
    a.label("array");
    for (uint32_t i = 1; i <= 16; ++i)
        a.lword(i);
    a.label("src");
    a.ascii("hello, VAX-11!!!");
    a.label("dst");
    a.space(16);

    cpu.mem().phys().load(a.base(), a.finish());
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x8000);

    // 3. Run to HALT.
    if (!cpu.run(100000)) {
        std::fprintf(stderr, "did not halt\n");
        return 1;
    }
    std::printf("sum of 1..16 = %u (expected 136)\n",
                cpu.ebox().gpr(R6));

    // 4. Analyze: everything below comes from the histogram only.
    HistogramAnalyzer an(cpu.controlStore(), monitor.histogram());
    std::printf("instructions executed : %llu\n",
                (unsigned long long)an.instructions());
    std::printf("total cycles          : %llu\n",
                (unsigned long long)an.totalCycles());
    std::printf("cycles/instruction    : %.2f\n",
                an.cyclesPerInstruction());
    std::printf("reads per instruction : %.2f\n",
                an.totalReadsPerInstr());
    std::printf("writes per instruction: %.2f\n",
                an.totalWritesPerInstr());
    std::printf("\nhottest microcode locations:\n");
    for (const auto &h : an.hottest(8)) {
        std::printf("  upc %4u  %-18s %6llu cycles\n", h.addr,
                    h.name, (unsigned long long)h.cycles);
    }
    return 0;
}
