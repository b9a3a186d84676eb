/**
 * @file
 * Cycle-stamped trace channels.
 *
 * TRACE(Cache, "read miss pa=%06x", pa) emits a line
 *
 *     <cycle>:cache: read miss pa=001040
 *
 * to the current thread's trace sink, but only when the "cache"
 * channel is enabled -- the macro compiles to a single load-and-test
 * when tracing is off, so instrumented hot paths cost nothing in
 * normal runs.
 *
 * Channels are enabled at run time from the UPC780_TRACE environment
 * variable (comma list: UPC780_TRACE=ucode,cache), a --trace flag
 * (the flag() table entry), or programmatically (enable/enableList).
 *
 * Cycle stamps come from a thread-local counter pointer that Cpu780
 * installs (setCycleCounter); code tracing outside a simulation
 * stamps cycle 0.  Sinks are thread-local too: the parallel driver
 * gives each job a buffering sink and flushes it in one write when
 * the job finishes, so pooled jobs' trace lines never interleave.
 */

#ifndef UPC780_SUPPORT_TRACE_HH
#define UPC780_SUPPORT_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace vax::cli
{
struct Entry;
}

namespace vax::trace
{

/** The trace channels (one bit each in the enable mask). */
enum class Channel : unsigned {
    UCode,   ///< microtraps, interrupt dispatch (EBOX sequencing)
    IDecode, ///< one line per decoded instruction
    Cache,   ///< misses, fills, invalidations
    Tb,      ///< TB misses, fills, invalidations
    Mem,     ///< MemSystem protocol events (stalls, queued writes)
    Sbi,     ///< bus transactions
    Os,      ///< VMS-lite host-visible events (mailbox, devices)
    Pool,    ///< driver job lifecycle
    Fault,   ///< injected faults and machine-check delivery
    NumChannels,
};

/** Lower-case channel name as used in UPC780_TRACE / --trace. */
const char *channelName(Channel c);

/** Enable mask; exposed only so enabled() can inline to load+test. */
extern uint32_t g_mask;

inline bool
enabled(Channel c)
{
    return g_mask & (1u << static_cast<unsigned>(c));
}

/** True if any channel is enabled. */
inline bool
anyEnabled()
{
    return g_mask != 0;
}

void enable(Channel c);
void disable(Channel c);
void disableAll();

/**
 * Enable a comma-separated channel list ("ucode,cache"; "all" for
 * everything).  Unknown names warn and are skipped.
 * @return True if every name was recognized.
 */
bool enableList(const std::string &list);

/**
 * The "--trace LIST" command-line entry: each occurrence enables its
 * channels.  Unlike UPC780_TRACE, an unknown name is a usage error
 * that names it and lists the channels.
 */
cli::Entry flag();

/** @{ Cycle stamping: Cpu780 installs its cycle counter here. */
void setCycleCounter(const uint64_t *counter);
/** Uninstall counter if it is the thread's current one (machine
 *  teardown: never leave a dangling stamp source). */
void clearCycleCounter(const uint64_t *counter);
uint64_t currentCycle();
/** @} */

/** Where a thread's trace lines go.  write() receives one complete
 *  line (terminated with '\n') per call. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void write(const char *line, size_t len) = 0;
};

/** Collects lines in memory; the driver flushes a whole job's trace
 *  in one stdio write so pooled jobs do not interleave. */
class BufferSink : public TraceSink
{
  public:
    void
    write(const char *line, size_t len) override
    {
        buf_.append(line, len);
    }

    const std::string &text() const { return buf_; }
    void clear() { buf_.clear(); }

    /** Write the whole buffer in one fwrite and clear it. */
    void flushTo(std::FILE *f);

  private:
    std::string buf_;
};

/** Install a sink for the calling thread; nullptr restores the
 *  default (one unbuffered fwrite per line to stderr).
 *  @return The previously installed sink. */
TraceSink *setThreadSink(TraceSink *sink);

/** RAII sink redirection (used per job by the driver and in tests). */
class ScopedSink
{
  public:
    explicit ScopedSink(TraceSink *sink) : prev_(setThreadSink(sink)) {}
    ~ScopedSink() { setThreadSink(prev_); }
    ScopedSink(const ScopedSink &) = delete;
    ScopedSink &operator=(const ScopedSink &) = delete;

  private:
    TraceSink *prev_;
};

/** Format and emit one line (use the TRACE macro, not this). */
void emit(Channel c, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace vax::trace

/**
 * The tracing entry point: TRACE(Cache, "fill pa=%06x", pa).
 * Channel is a bare Channel enumerator name; evaluates the arguments
 * only when the channel is enabled.
 */
#define TRACE(chan, ...)                                                \
    do {                                                                \
        if (::vax::trace::enabled(::vax::trace::Channel::chan))         \
            ::vax::trace::emit(::vax::trace::Channel::chan,             \
                               __VA_ARGS__);                            \
    } while (0)

#endif // UPC780_SUPPORT_TRACE_HH
