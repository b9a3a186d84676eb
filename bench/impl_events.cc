/**
 * @file
 * Section 4 implementation events: IB referencing behaviour, cache
 * and TB misses, and stall anatomy.  TB misses come from the
 * histogram (microcode-visible); IB references and cache misses come
 * from the hardware counters -- the events the paper says the UPC
 * technique cannot see and takes from the separate cache study [2].
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kSection4Render);
}
