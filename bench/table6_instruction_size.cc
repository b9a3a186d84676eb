/**
 * @file
 * Table 6: estimated size of the average instruction.  Counts come
 * from the histogram (Table 3); byte sizes come from the hardware
 * decode counters, standing in for the displacement-size distribution
 * the paper took from Wiecek [15].
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable6Render);
}
