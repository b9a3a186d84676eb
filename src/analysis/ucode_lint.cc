/**
 * @file
 * ucode_lint: lint the production microcode ROM from the command line.
 *
 *   ucode_lint          text diagnostics, exit 1 when any are found
 *   ucode_lint --json   machine-readable report on stdout
 *
 * The same verifier runs as a ctest entry and (in strict mode) at
 * Cpu780 construction; this binary is the developer's front door.
 */

#include <cstdio>

#include "analysis/ulint.hh"
#include "support/parse.hh"
#include "ucode/rom.hh"

int
main(int argc, char **argv)
{
    bool json = false;
    vax::cli::CommandLine(
        "Statically verify the assembled microcode ROM; exit 1 on "
        "diagnostics.",
        {vax::cli::flag("--json", "machine-readable report on stdout",
                        &json)})
        .parse(&argc, argv);

    vax::LintReport rep = vax::lintControlStore(vax::microcodeRom());

    if (json) {
        std::fputs(rep.json().c_str(), stdout);
    } else if (rep.clean()) {
        std::printf("ucode_lint: clean: %zu microwords, %zu "
                    "reachable, %zu reserved\n",
                    rep.words, rep.reachable, rep.reserved);
    } else {
        std::fputs(rep.text().c_str(), stdout);
    }
    return rep.clean() ? 0 : 1;
}
