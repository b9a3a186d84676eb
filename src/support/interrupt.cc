#include "support/interrupt.hh"

#include <atomic>
#include <csignal>
#include <cstdio>

namespace vax::interrupt
{

namespace
{

std::atomic<bool> g_requested{false};

extern "C" void
handleSignal(int)
{
    // Async-signal-safe: one relaxed store, nothing else.  The second
    // signal falls through to the default disposition (see install).
    g_requested.store(true, std::memory_order_relaxed);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

} // anonymous namespace

void
install()
{
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
}

bool
requested()
{
    return g_requested.load(std::memory_order_relaxed);
}

void
request()
{
    g_requested.store(true, std::memory_order_relaxed);
}

void
reset()
{
    g_requested.store(false, std::memory_order_relaxed);
}

int
reportInterrupted(const char *what, unsigned unfinished,
                  bool resumable)
{
    std::printf("*** INTERRUPTED: %s (%u job(s) unfinished); %s ***\n",
                what, unfinished,
                resumable ? "rerun with --resume to continue"
                          : "use upc780_campaign for a resumable "
                            "run");
    std::fflush(stdout);
    return exitCode;
}

} // namespace vax::interrupt
