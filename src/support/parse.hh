/**
 * @file
 * Strict parsing of counts, and the one command-line parser.
 *
 * Every count the simulator reads from outside the program goes
 * through parseCount: command-line values, environment variables and
 * spec fields.
 *
 * Every binary reads its command line through cli::CommandLine, from
 * one table.  Each entry names a flag ("--jobs") or a positional
 * operand ("cycles"), how its value is checked, its help line and
 * where the value goes, and the same table prints the usage, so what
 * is parsed and what is documented cannot drift apart.  The contract:
 *  - a flag may appear anywhere, as "--x v" or "--x=v"; the last
 *    occurrence wins (a handler sees every occurrence, in order);
 *  - "--help" or "-h" prints the usage on stdout and exits 0;
 *  - a command-line error (an unknown flag, a missing or bad value,
 *    too many or too few operands) prints "prog: <what>" and the
 *    usage on stderr and exits 2.
 * A bad spec or environment variable is not a command-line error: it
 * stays fatal() (exit 1), as envCount and the spec parsers report it.
 * Binaries read both after parse(), so --help and command-line errors
 * come first.
 */

#ifndef UPC780_SUPPORT_PARSE_HH
#define UPC780_SUPPORT_PARSE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

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

/**
 * The environment variable @p name as a count in [@p min, @p max]
 * (@p min is 0 or 1), or @p def when it is unset or empty.  Anything
 * else is fatal.
 */
uint64_t envCount(const char *name, uint64_t def, uint64_t min,
                  uint64_t max);

namespace cli
{

/**
 * Checks one value and stores it.  A switch's store gets "".
 * @return Empty, or what is wrong with the value; the parser prefixes
 *         the entry's name.
 */
using Store = std::function<std::string(const std::string &value)>;

/** One table entry; the functions below build them. */
struct Entry
{
    std::string name;      ///< "--jobs", or an operand's name
    std::string meta;      ///< a flag's value placeholder; "" = switch
    std::string help;      ///< usage text; "" hides the entry
    Store store;
    bool required = false; ///< an operand that must be given

    bool operand() const { return name.empty() || name[0] != '-'; }
};

/** What is wrong with @p text as a count in [@p min, @p max]
 *  (@p min is 0 or 1), or "" with the value in *@p out. */
std::string countError(const std::string &text, uint64_t min,
                       uint64_t max, uint64_t *out);

/** A switch: present sets *@p on. */
Entry flag(const char *name, const char *help, bool *on);

/** A count in [@p min, @p max] (@p min is 0 or 1). */
template <class T>
Entry
count(const char *name, const char *meta, const char *help, T *to,
      uint64_t min, uint64_t max)
{
    return {name, meta, help, [=](const std::string &v) {
                uint64_t n = 0;
                std::string why = countError(v, min, max, &n);
                if (why.empty())
                    *to = n;
                return why;
            }};
}

/** A positive duration in seconds. */
Entry seconds(const char *name, const char *meta, const char *help,
              double *to);

/** A non-negative, finite wall-clock stamp in seconds. */
Entry stamp(const char *name, const char *meta, const char *help,
            double *to);

/** Any text, stored as given (into a string or an optional one). */
template <class S>
Entry
text(const char *name, const char *meta, const char *help, S *to)
{
    return {name, meta, help, [to](const std::string &v) {
                *to = v;
                return std::string();
            }};
}

/** A value that @p store checks and keeps (a channel list, a spec). */
Entry handler(const char *name, const char *meta, const char *help,
              Store store);

/** @p operand, which must be given. */
Entry required(Entry operand);

/** A binary's command line: its table, and the text around it. */
class CommandLine
{
  public:
    /**
     * @param about   Printed under the usage line ("" for none).
     * @param entries The table, in the order the usage lists it:
     *                flags, and operands in argv order.
     * @param notes   Printed after the entries ("" for none).
     */
    CommandLine(std::string about, std::vector<Entry> entries,
                std::string notes = "");

    /**
     * Store every flag and operand in argv and strip the flags:
     * afterwards argv[0..*argc) holds the program name and the
     * operands.  Exits 0 after --help/-h and 2 on an error, as the
     * file comment says.
     */
    void parse(int *argc, char **argv);

    /** The usage text, built from the table. */
    std::string usage() const;

    /** A command-line error the table cannot see (two flags that
     *  exclude each other): "prog: <what>", the usage, exit 2. */
    [[noreturn]] void fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    std::string about_;
    std::vector<Entry> entries_;
    std::string notes_;
    std::string prog_ = "prog";
};

} // namespace cli

} // namespace vax

#endif // UPC780_SUPPORT_PARSE_HH
