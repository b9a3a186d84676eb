/**
 * @file
 * The one command-line parser (support/parse.hh): both spellings of a
 * valued flag, flags between operands, the last occurrence winning,
 * --trace accumulating, value and operand checks, the usage built
 * from the table, and the exit contract (0 after --help, 2 with
 * "prog: <what>" and the usage on any error).
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "driver/sim_pool.hh"
#include "support/parse.hh"
#include "support/trace.hh"

namespace vax::test
{

namespace
{

/** A mutable argv: "prog" followed by @p args. */
struct Args
{
    explicit Args(std::initializer_list<const char *> args)
    {
        strings.emplace_back("prog");
        strings.insert(strings.end(), args.begin(), args.end());
        for (std::string &s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
    int argc;
};

/** A small table: a bounded count, a switch, a text flag, a duration,
 *  a stamp, a hidden flag and two operands, the second optional. */
struct Demo
{
    uint64_t n = 5;
    bool verbose = false;
    std::string path;
    double secs = 0.0;
    double when = 0.0;
    unsigned secret = 0;
    std::string first, second;

    cli::CommandLine
    line()
    {
        return cli::CommandLine(
            "A demo.",
            {cli::count("--n", "N", "a count in 1-9", &n, 1, 9),
             cli::flag("--verbose", "say more", &verbose),
             cli::text("--path", "FILE", "where to write", &path),
             cli::seconds("--secs", "S", "a duration", &secs),
             cli::stamp("--when", "T", "a stamp", &when),
             cli::count("--secret", "K", "", &secret, 0, UINT_MAX),
             cli::required(cli::text("first", "", "the first operand",
                                     &first)),
             cli::text("second", "", "the second operand", &second)},
            "Notes.");
    }

    /** Parse @p a; @return The argc left (program + operands). */
    int
    parse(Args &a)
    {
        line().parse(&a.argc, a.ptrs.data());
        return a.argc;
    }
};

/** The trace mask is process-global; restore it after the test. */
struct KeepTraceMask
{
    uint32_t saved = trace::g_mask;
    ~KeepTraceMask() { trace::g_mask = saved; }
};

} // anonymous namespace

TEST(CommandLine, BothSpellingsAndFlagsBetweenOperands)
{
    Demo d;
    Args a({"one", "--n", "3", "--path=out=x.json", "two", "--verbose"});
    EXPECT_EQ(d.parse(a), 3);
    EXPECT_EQ(d.n, 3u);
    EXPECT_EQ(d.path, "out=x.json"); // split at the first '='
    EXPECT_TRUE(d.verbose);
    EXPECT_EQ(d.first, "one");
    EXPECT_EQ(d.second, "two");
    // The operands stay in argv, in order, with the flags stripped.
    EXPECT_STREQ(a.ptrs[1], "one");
    EXPECT_STREQ(a.ptrs[2], "two");
    EXPECT_EQ(a.ptrs[3], nullptr);
}

TEST(CommandLine, LastOccurrenceWins)
{
    Demo d;
    Args a({"--n=2", "x", "--n", "7", "--secs", "1.5", "--secs=0.25"});
    d.parse(a);
    EXPECT_EQ(d.n, 7u);
    EXPECT_DOUBLE_EQ(d.secs, 0.25);
    EXPECT_EQ(d.second, ""); // an optional operand left out
}

TEST(CommandLine, TraceAccumulates)
{
    KeepTraceMask keep;
    trace::disableAll();
    Args a({"--trace", "tb", "--trace=os,cache"});
    cli::CommandLine("", {trace::flag()}).parse(&a.argc, a.ptrs.data());
    EXPECT_EQ(a.argc, 1);
    EXPECT_TRUE(trace::enabled(trace::Channel::Tb));
    EXPECT_TRUE(trace::enabled(trace::Channel::Os));
    EXPECT_TRUE(trace::enabled(trace::Channel::Cache));
    EXPECT_FALSE(trace::enabled(trace::Channel::Pool));
}

TEST(CommandLine, MissingValueExits2)
{
    Demo d;
    Args a({"x", "--path"});
    EXPECT_EXIT(d.parse(a), ::testing::ExitedWithCode(2),
                "^prog: --path requires a value\n\nusage: prog");
    Args b({"x", "--verbose=1"});
    EXPECT_EXIT(d.parse(b), ::testing::ExitedWithCode(2),
                "--verbose takes no value");
}

TEST(CommandLine, UnknownFlagExits2)
{
    Demo d;
    Args a({"x", "--bogus"});
    EXPECT_EXIT(d.parse(a), ::testing::ExitedWithCode(2),
                "^prog: unrecognized argument '--bogus'\n\nusage: ");
    // A negative number is not an operand but an unknown flag.
    Args b({"-1"});
    EXPECT_EXIT(d.parse(b), ::testing::ExitedWithCode(2),
                "unrecognized argument '-1'");
}

TEST(CommandLine, CountBounds)
{
    Demo d;
    Args ok({"x", "--n", "9"});
    d.parse(ok);
    EXPECT_EQ(d.n, 9u);
    for (const char *bad : {"0", "10", "-1", " 5", "5x", ""}) {
        Args a({"x", "--n", bad});
        EXPECT_EXIT(d.parse(a), ::testing::ExitedWithCode(2),
                    "--n: '.*' is not a positive count \\(max 9\\)")
            << bad;
    }
    Args z({"x", "--secret", "-1"});
    EXPECT_EXIT(d.parse(z), ::testing::ExitedWithCode(2),
                "--secret: '-1' is not a non-negative integer");
}

TEST(CommandLine, SecondsAndStamps)
{
    Demo d;
    Args ok({"x", "--when", "0", "--secs", "2"});
    d.parse(ok);
    EXPECT_DOUBLE_EQ(d.secs, 2.0);
    EXPECT_DOUBLE_EQ(d.when, 0.0);
    Args a({"x", "--secs", "0"});
    EXPECT_EXIT(d.parse(a), ::testing::ExitedWithCode(2),
                "--secs: '0' is not a positive duration in seconds");
    Args b({"x", "--when", "inf"});
    EXPECT_EXIT(d.parse(b), ::testing::ExitedWithCode(2),
                "--when: 'inf' is not a non-negative wall-clock stamp");
}

TEST(CommandLine, OperandCounts)
{
    Demo d;
    Args many({"a", "b", "c"});
    EXPECT_EXIT(d.parse(many), ::testing::ExitedWithCode(2),
                "unrecognized argument 'c'");
    Args none({"--n", "2"});
    EXPECT_EXIT(d.parse(none), ::testing::ExitedWithCode(2),
                "missing operand first");
    std::optional<unsigned> jobs;
    Args extra({"--jobs", "2", "stray"});
    EXPECT_EXIT(cli::CommandLine("", {jobsFlag(&jobs)})
                    .parse(&extra.argc, extra.ptrs.data()),
                ::testing::ExitedWithCode(2),
                "unrecognized argument 'stray'");
}

TEST(CommandLine, HelpExits0AndWinsOverErrors)
{
    Demo d;
    for (const char *help : {"--help", "-h"}) {
        Args a({"--bogus", help, "--n", "0"});
        EXPECT_EXIT(d.parse(a), ::testing::ExitedWithCode(0), "")
            << help;
    }
}

TEST(CommandLine, UsageComesFromTheTable)
{
    Demo d;
    Args a({"x"});
    cli::CommandLine line = d.line();
    line.parse(&a.argc, a.ptrs.data());
    const std::string u = line.usage();
    EXPECT_EQ(u.rfind("usage: prog [options] first [second]\nA demo.\n",
                      0),
              0u)
        << u;
    for (const char *shown :
         {"  --n N", "a count in 1-9", "  --verbose", "  --path FILE",
          "  first", "the second operand", "  -h, --help",
          "this message", "Notes.\n"})
        EXPECT_NE(u.find(shown), std::string::npos) << shown << "\n"
                                                    << u;
    // An empty help line hides the entry, and the usage says nothing
    // of it.
    EXPECT_EQ(u.find("secret"), std::string::npos) << u;
    // A hidden flag still parses.
    Args b({"x", "--secret", "4"});
    d.parse(b);
    EXPECT_EQ(d.secret, 4u);
}

TEST(CommandLine, UnknownTraceChannelExits2)
{
    KeepTraceMask keep;
    std::optional<unsigned> jobs;
    Args a({"--trace", "cach"});
    EXPECT_EXIT(cli::CommandLine("", {jobsFlag(&jobs), trace::flag()})
                    .parse(&a.argc, a.ptrs.data()),
                ::testing::ExitedWithCode(2),
                "--trace: unknown channel 'cach' \\(have: ucode, "
                "idecode, cache, tb, mem, sbi, os, pool, fault, all\\)");
    // A flag is not a channel list.
    Args b({"--trace", "--jobs", "1"});
    EXPECT_EXIT(cli::CommandLine("", {jobsFlag(&jobs), trace::flag()})
                    .parse(&b.argc, b.ptrs.data()),
                ::testing::ExitedWithCode(2),
                "unknown channel '--jobs'");
}

TEST(CommandLine, FailPrintsTheUsage)
{
    Demo d;
    Args a({"x"});
    cli::CommandLine line = d.line();
    line.parse(&a.argc, a.ptrs.data());
    EXPECT_EXIT(line.fail("--a and --b exclude each other (%d)", 2),
                ::testing::ExitedWithCode(2),
                "^prog: --a and --b exclude each other \\(2\\)\n\n"
                "usage: prog \\[options\\]");
}

} // namespace vax::test
