/**
 * @file
 * Table 5: D-stream reads and writes per average instruction, broken
 * down by the activity (row) issuing them: each normal-count cycle of
 * a read/write microword is one memory operation.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable5Render);
}
