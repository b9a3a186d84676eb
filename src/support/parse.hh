/**
 * @file
 * Strict parsing of counts from command lines, environment variables
 * and spec strings.
 *
 * Every count the simulator reads from outside the program goes
 * through parseCount; each caller keeps its own error path (a usage
 * error for the campaign tool and the examples, fatal() elsewhere).
 */

#ifndef UPC780_SUPPORT_PARSE_HH
#define UPC780_SUPPORT_PARSE_HH

#include <cstdint>
#include <optional>
#include <string>

namespace vax
{

/**
 * Parse @p text as an unsigned integer no larger than @p max, in
 * strtoull's base 0 (decimal, 0x hex, leading-0 octal).  Unlike bare
 * strtoull, the text must start with a digit and be consumed whole:
 * a blank, a sign ("-1" would wrap to 2^64-1), trailing junk, an
 * overflow or a value above @p max all fail.
 *
 * @return The value, or nothing on any of those failures.
 */
std::optional<uint64_t> parseCount(const std::string &text,
                                   uint64_t max);

} // namespace vax

#endif // UPC780_SUPPORT_PARSE_HH
