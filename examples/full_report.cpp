/**
 * @file
 * One-shot paper reproduction: run the five-workload composite once
 * and print Tables 1-9 and Section 4 from the same histogram, each
 * with the paper's values and claims -- the "general resource"
 * workflow of the paper's conclusion.  Every table is the block its
 * table bench prints.
 *
 * Usage: full_report [options] [cycles-per-experiment]
 *   (the table benches' options; --help lists them)
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace vax;

int
main(int argc, char **argv)
{
    bench::BenchRun r = bench::runBench(
        &argc, argv, "Tables 1-9 and Section 4 -- full paper reproduction",
        true);
    for (const paper::Table *t : paper::kTables)
        std::printf("=== %s -- %s ===\n%s\n", t->where, t->title,
                    t->render(r.an(), r.composite).c_str());
    return 0;
}
