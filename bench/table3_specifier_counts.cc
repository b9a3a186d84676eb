/**
 * @file
 * Table 3: operand specifiers and branch displacements per average
 * instruction, from specifier-routine entry counts.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable3Render);
}
