/**
 * @file
 * Table 8 -- the paper's headline result: cycles per average VAX
 * instruction, classified by activity (rows) and cycle category
 * (columns).  Every machine cycle falls into exactly one cell.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable8Render);
}
