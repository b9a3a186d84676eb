#include "support/trace.hh"

#include <cstdarg>
#include <cstdlib>
#include <vector>

#include "support/logging.hh"
#include "support/parse.hh"

namespace vax::trace
{

namespace
{

const char *const kChannelNames[] = {
    "ucode", "idecode", "cache", "tb", "mem", "sbi", "os", "pool",
    "fault",
};
static_assert(sizeof(kChannelNames) / sizeof(kChannelNames[0]) ==
              static_cast<size_t>(Channel::NumChannels));

constexpr uint32_t kAllMask =
    (1u << static_cast<unsigned>(Channel::NumChannels)) - 1;

/** The bits of a comma-separated channel list; each name it does
 *  not know goes to @p unknown. */
uint32_t
maskFromList(const std::string &list, std::vector<std::string> *unknown)
{
    uint32_t mask = 0;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = list.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (name == "all") {
            mask = kAllMask;
            continue;
        }
        bool found = false;
        for (unsigned c = 0;
             c < static_cast<unsigned>(Channel::NumChannels); ++c) {
            if (name == kChannelNames[c]) {
                mask |= 1u << c;
                found = true;
                break;
            }
        }
        if (!found)
            unknown->push_back(name);
    }
    return mask;
}

constexpr const char *kHave =
    "(have: ucode, idecode, cache, tb, mem, sbi, os, pool, fault, all)";

/** maskFromList, warning once for each unknown name. */
uint32_t
maskWarning(const std::string &list, bool *all_known)
{
    std::vector<std::string> unknown;
    uint32_t mask = maskFromList(list, &unknown);
    for (const std::string &name : unknown)
        warn("trace: unknown channel '%s' %s", name.c_str(), kHave);
    if (all_known)
        *all_known = unknown.empty();
    return mask;
}

uint32_t
initialMask()
{
    const char *env = std::getenv("UPC780_TRACE");
    if (!env || !*env)
        return 0;
    return maskWarning(env, nullptr);
}

/** Default sink: one unbuffered fwrite per complete line, so lines
 *  from concurrent threads cannot interleave mid-line. */
class StderrSink : public TraceSink
{
  public:
    void
    write(const char *line, size_t len) override
    {
        std::fwrite(line, 1, len, stderr);
    }
};

StderrSink g_stderrSink;

thread_local TraceSink *t_sink = nullptr;
thread_local const uint64_t *t_cycleCounter = nullptr;

} // anonymous namespace

uint32_t g_mask = initialMask();

const char *
channelName(Channel c)
{
    return kChannelNames[static_cast<unsigned>(c)];
}

void
enable(Channel c)
{
    g_mask |= 1u << static_cast<unsigned>(c);
}

void
disable(Channel c)
{
    g_mask &= ~(1u << static_cast<unsigned>(c));
}

void
disableAll()
{
    g_mask = 0;
}

bool
enableList(const std::string &list)
{
    bool all_known = false;
    g_mask |= maskWarning(list, &all_known);
    return all_known;
}

cli::Entry
flag()
{
    return cli::handler(
        "--trace", "LIST",
        "trace channels, e.g. cache,fault (also UPC780_TRACE)",
        [](const std::string &list) {
            std::vector<std::string> unknown;
            uint32_t mask = maskFromList(list, &unknown);
            if (!unknown.empty())
                return "unknown channel '" + unknown.front() + "' " +
                    kHave;
            g_mask |= mask;
            return std::string();
        });
}

void
setCycleCounter(const uint64_t *counter)
{
    t_cycleCounter = counter;
}

void
clearCycleCounter(const uint64_t *counter)
{
    if (t_cycleCounter == counter)
        t_cycleCounter = nullptr;
}

uint64_t
currentCycle()
{
    return t_cycleCounter ? *t_cycleCounter : 0;
}

void
BufferSink::flushTo(std::FILE *f)
{
    if (!buf_.empty())
        std::fwrite(buf_.data(), 1, buf_.size(), f);
    buf_.clear();
}

TraceSink *
setThreadSink(TraceSink *sink)
{
    TraceSink *prev = t_sink;
    t_sink = sink;
    return prev;
}

void
emit(Channel c, const char *fmt, ...)
{
    char msg[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    va_end(args);

    char line[600];
    int n = std::snprintf(line, sizeof(line), "%llu:%s: %s\n",
                          static_cast<unsigned long long>(currentCycle()),
                          channelName(c), msg);
    if (n < 0)
        return;
    if (static_cast<size_t>(n) >= sizeof(line))
        n = sizeof(line) - 1;
    TraceSink *sink = t_sink ? t_sink : &g_stderrSink;
    sink->write(line, static_cast<size_t>(n));
}

} // namespace vax::trace
