/**
 * @file
 * The one JSON string escaper, plus a printf-append helper.
 *
 * The stats registry's JSON dump, the microcode characterization
 * (`UCHAR_baseline.json`) and the `ucode_lint --json` /
 * `ucode_bounds --json` reports all escape through it, and CI diffs
 * them mechanically.  So the escaping must be exact: every control
 * character as a well-formed \u00XX sequence (the char must be widened
 * *unsigned*; a raw char promotes negative on most ABIs and snprintf
 * would print ￿ff9b), plus the usual quote and backslash escapes.
 */

#ifndef UPC780_SUPPORT_UJSON_HH
#define UPC780_SUPPORT_UJSON_HH

#include <string>

namespace vax
{
namespace ujson
{

/** Escape a string for inclusion inside JSON double quotes. */
std::string escape(const std::string &s);

/** printf-append to a std::string. */
void appendf(std::string *out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace ujson
} // namespace vax

#endif // UPC780_SUPPORT_UJSON_HH
