/**
 * @file
 * Table 1: opcode group frequency (percent of instructions executed),
 * reconstructed from execute-flow entry counts in the UPC histogram.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable1Render);
}
