/**
 * @file
 * Table 7: interrupt and context-switch headway (average instructions
 * between events), from event-marked microcode entries.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable7Render);
}
