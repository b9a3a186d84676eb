/**
 * @file
 * Microcode ROM builder.
 *
 * Fills a ControlStore with the complete 11/780 microcode of this
 * implementation: the decode framework, all specifier routines, the
 * memory-management and interrupt microcode, and the execute flows of
 * every instruction group.
 */

#ifndef UPC780_UCODE_ROM_HH
#define UPC780_UCODE_ROM_HH

#include "ucode/control_store.hh"

namespace vax
{

/** Build the full microcode ROM into cs (must be empty). */
void buildMicrocodeRom(ControlStore &cs);

/**
 * The process-wide microcode ROM: built on first use and shared,
 * immutable, by every machine and every annotation reader.  The build
 * is deterministic, so this store matches any private
 * buildMicrocodeRom() store word for word; private stores remain for
 * callers that plant defects in their own copy.  Safe to call from
 * racing threads (the first caller builds, the others wait).
 */
const ControlStore &microcodeRom();

} // namespace vax

#endif // UPC780_UCODE_ROM_HH
