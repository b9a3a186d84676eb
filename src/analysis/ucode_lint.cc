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
#include <cstring>

#include "analysis/ulint.hh"
#include "ucode/rom.hh"

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: %s [--json]\n"
                        "Statically verify the assembled microcode "
                        "ROM; exit 1 on diagnostics.\n",
                        argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         argv[i]);
            return 2;
        }
    }

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
