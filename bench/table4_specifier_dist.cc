/**
 * @file
 * Table 4: operand specifier distribution (percent), by position
 * class, from per-mode routine entry counts.  Cells the paper's
 * surviving text does not give legibly are shown as "-".
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    return vax::bench::tableMain(argc, argv, vax::paper::kTable4Render);
}
