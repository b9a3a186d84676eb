/**
 * @file
 * Table 2: PC-changing instructions -- frequency, proportion that
 * actually branch, and actual branches as a percent of all
 * instructions.  Taken/not-taken are distinct microcode paths, so the
 * histogram separates them directly.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable2Render);
}
