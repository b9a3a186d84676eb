/**
 * @file
 * Figure 1: the VAX-11/780 block diagram -- rendered from the actual
 * component structure of the simulator, with each component's live
 * configuration, so the diagram cannot drift from the code.
 */

#include <cstdio>

#include "cpu/cpu.hh"
#include "support/parse.hh"

using namespace vax;

int
main(int argc, char **argv)
{
    cli::CommandLine("Print the VAX-11/780 block diagram from the "
                     "simulator's components\nand their configuration.",
                     {})
        .parse(&argc, argv);
    Cpu780 cpu;
    const MemConfig &m = cpu.mem().config();

    std::printf("Figure 1 -- VAX-11/780 block diagram "
                "(simulator component graph)\n\n");
    std::printf(
        "          CPU pipeline                        Memory "
        "subsystem\n"
        " +-----------------------------+     "
        "+---------------------------------+\n"
        " |  I-Fetch --> IB (%2u bytes)  |     |  Translation Buffer"
        "             |\n"
        " |      |                      |---->|  %u + %u entries "
        "(sys/process)   |\n"
        " |      v                      |     |  microcode-filled "
        "on miss       |\n"
        " |  I-Decode (dispatch ROM)    |     "
        "+----------------+----------------+\n"
        " |      |                      |                      |\n"
        " |      v                      |                      v\n"
        " |  EBOX: %4u microwords      |     |  Cache: %u KB, "
        "%u-way, %u B blocks |\n"
        " |  (200 ns microcycle)        |---->|  write-through, no "
        "write-alloc   |\n"
        " |      |                      |     "
        "+----------------+----------------+\n"
        " |      +--- UPC monitor tap   |                      |\n"
        " +-----------------------------+                      v\n"
        "        |                            |  Write buffer: 1 "
        "longword,       |\n"
        "        |  micro-PC each cycle       |  %u-cycle drain     "
        "            |\n"
        "        v                            "
        "+----------------+----------------+\n"
        " +--------------------+                              |\n"
        " | UPC histogram board|                              v\n"
        " | 16K buckets x 2    |             |  SBI --> memory: %u "
        "MB,          |\n"
        " | (normal + stalled) |             |  %u-cycle read-miss "
        "penalty     |\n"
        " +--------------------+             "
        "+---------------------------------+\n\n",
        cpu.ib().capacity(),
        m.tbSystemEntries, m.tbProcessEntries,
        cpu.controlStore().size(),
        m.cacheBytes >> 10, m.cacheWays, m.cacheBlockBytes,
        m.writeDrainCycles,
        m.memBytes >> 20, m.readMissPenalty);

    std::printf("Control store inventory (microcode by Table 8 "
                "row):\n");
    unsigned counts[static_cast<size_t>(Row::NumRows)] = {};
    for (UAddr a = 0; a < cpu.controlStore().size(); ++a)
        ++counts[static_cast<size_t>(
            cpu.controlStore().annotation(a).row)];
    for (unsigned i = 0; i < static_cast<unsigned>(Row::NumRows); ++i)
        std::printf("  %-12s %4u microwords\n",
                    rowName(static_cast<Row>(i)), counts[i]);
    return 0;
}
