/**
 * @file
 * Table 9: cycles per average instruction WITHIN each group
 * (execute phase only, unweighted by frequency) -- Table 8's exec
 * rows divided by each group's instruction count.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable9Render);
}
