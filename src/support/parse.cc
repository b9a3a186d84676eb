#include "support/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/logging.hh"

namespace vax
{

std::optional<uint64_t>
parseCount(const std::string &text, uint64_t max)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno || end != text.c_str() + text.size() || v > max)
        return std::nullopt;
    return v;
}

uint64_t
envCount(const char *name, uint64_t def, uint64_t min, uint64_t max)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return def;
    std::optional<uint64_t> v = parseCount(env, max);
    if (!v || *v < min)
        fatal("%s: '%s' is not a %s count (max %llu)", name, env,
              min ? "positive" : "non-negative",
              static_cast<unsigned long long>(max));
    return *v;
}

namespace cli
{

namespace
{

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list again;
    va_copy(again, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string s(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    std::vsnprintf(s.data(), s.size() + 1, fmt, again);
    va_end(again);
    return s;
}

/** An entry whose value is a real number (strtod over the whole
 *  text; junk and overflow fail) that @p ok accepts; @p what names
 *  such a value in the error. */
Entry
real(const char *name, const char *meta, const char *help, double *to,
     bool (*ok)(double), const char *what)
{
    return {name, meta, help, [=](const std::string &v) {
                char *end = nullptr;
                errno = 0;
                double d = std::strtod(v.c_str(), &end);
                if (errno || end == v.c_str() || *end || !ok(d))
                    return "'" + v + "' is not a " + what;
                *to = d;
                return std::string();
            }};
}

/** Widest flag label the usage pads to; longer ones get a line. */
constexpr size_t kLabelWidth = 17;

} // anonymous namespace

std::string
countError(const std::string &text, uint64_t min, uint64_t max,
           uint64_t *out)
{
    std::optional<uint64_t> v = parseCount(text, max);
    if (v && *v >= min) {
        *out = *v;
        return "";
    }
    return "'" + text + "' is not a " +
        (min ? "positive count" : "non-negative integer") + " (max " +
        std::to_string(max) + ")";
}

Entry
flag(const char *name, const char *help, bool *on)
{
    return {name, "", help, [on](const std::string &) {
                *on = true;
                return std::string();
            }};
}

Entry
seconds(const char *name, const char *meta, const char *help,
        double *to)
{
    return real(name, meta, help, to, [](double s) { return s > 0.0; },
                "positive duration in seconds");
}

Entry
stamp(const char *name, const char *meta, const char *help,
      double *to)
{
    return real(name, meta, help, to,
                [](double s) { return std::isfinite(s) && s >= 0.0; },
                "non-negative wall-clock stamp in seconds");
}

Entry
handler(const char *name, const char *meta, const char *help,
        Store store)
{
    return {name, meta, help, std::move(store)};
}

Entry
required(Entry operand)
{
    operand.required = true;
    return operand;
}

CommandLine::CommandLine(std::string about, std::vector<Entry> entries,
                         std::string notes)
    : about_(std::move(about)), entries_(std::move(entries)),
      notes_(std::move(notes))
{
}

void
CommandLine::parse(int *argc, char **argv)
{
    prog_ = argv[0];
    std::vector<const Entry *> slots; // the operand entries, in order
    for (const Entry &e : entries_)
        if (e.operand())
            slots.push_back(&e);

    // First the shape of the line: which entry each word belongs to,
    // or what is wrong with it.  Nothing is stored until the line is
    // known not to ask for --help, which wins over every error.
    struct Word
    {
        const Entry *entry;
        std::string value;
        std::string error;
    };
    std::vector<Word> words;
    std::vector<char *> operands;
    bool help = false;
    auto bad = [&words](std::string why) {
        words.push_back({nullptr, "", std::move(why)});
    };
    for (int i = 1; i < *argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help = true;
        } else if (arg.size() < 2 || arg[0] != '-') {
            if (operands.size() < slots.size())
                words.push_back({slots[operands.size()], arg, ""});
            else
                bad("unrecognized argument '" + arg + "'");
            operands.push_back(argv[i]);
        } else {
            size_t eq = arg.find('=');
            const std::string name = arg.substr(0, eq);
            const Entry *e = nullptr;
            for (const Entry &cand : entries_)
                if (!cand.operand() && cand.name == name)
                    e = &cand;
            if (!e)
                bad("unrecognized argument '" + arg + "'");
            else if (e->meta.empty() && eq != std::string::npos)
                bad(name + " takes no value");
            else if (eq != std::string::npos)
                words.push_back({e, arg.substr(eq + 1), ""});
            else if (e->meta.empty())
                words.push_back({e, "", ""});
            else if (i + 1 < *argc)
                words.push_back({e, argv[++i], ""});
            else
                bad(name + " requires a value");
        }
    }
    if (help) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
    // Then each value in argv order, so the first error is the one
    // reported.
    for (const Word &w : words) {
        if (!w.entry)
            fail("%s", w.error.c_str());
        std::string why = w.entry->store(w.value);
        if (!why.empty())
            fail("%s: %s", w.entry->name.c_str(), why.c_str());
    }
    for (size_t k = operands.size(); k < slots.size(); ++k)
        if (slots[k]->required)
            fail("missing operand %s", slots[k]->name.c_str());

    int out = 1;
    for (char *op : operands)
        argv[out++] = op;
    argv[out] = nullptr;
    *argc = out;
}

std::string
CommandLine::usage() const
{
    std::string operands;
    bool any_flag = false;
    for (const Entry &e : entries_) {
        if (!e.operand())
            any_flag = any_flag || !e.help.empty();
        else if (e.required)
            operands += " " + e.name;
        else
            operands += " [" + e.name + "]";
    }
    std::string out = "usage: " + prog_ +
        (any_flag ? " [options]" : "") + operands + "\n";
    if (!about_.empty())
        out += about_ + "\n";

    auto item = [&out](const std::string &label,
                       const std::string &help) {
        std::string indent(2 + kLabelWidth + 2, ' ');
        out += "  " + label;
        if (label.size() > kLabelWidth)
            out += "\n" + indent;
        else
            out += std::string(kLabelWidth + 2 - label.size(), ' ');
        for (char c : help)
            out += c == '\n' ? "\n" + indent : std::string(1, c);
        out += "\n";
    };
    for (const Entry &e : entries_) {
        if (e.help.empty())
            continue;
        item(e.meta.empty() ? e.name : e.name + " " + e.meta, e.help);
    }
    item("-h, --help", "this message");
    if (!notes_.empty())
        out += notes_ + "\n";
    return out;
}

void
CommandLine::fail(const char *fmt, ...) const
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string what = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "%s: %s\n\n%s", prog_.c_str(), what.c_str(),
                 usage().c_str());
    std::exit(2);
}

} // namespace cli

} // namespace vax
