#include "support/sim_error.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/trace.hh"

namespace vax
{

bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    return env && *env && std::strcmp(env, "0") != 0;
}

const char *
simErrorCauseName(SimErrorCause c)
{
    switch (c) {
      case SimErrorCause::Panic:    return "panic";
      case SimErrorCause::Fatal:    return "fatal";
      case SimErrorCause::Watchdog: return "watchdog";
      case SimErrorCause::Timeout:  return "timeout";
      case SimErrorCause::Drill:    return "drill";
    }
    return "?";
}

SimError::SimError(SimErrorCause cause, std::string message,
                   std::string job, uint64_t seed, uint64_t cycle,
                   uint16_t micro_pc)
    : cause_(cause), message_(std::move(message)), job_(std::move(job)),
      seed_(seed), cycle_(cycle), microPc_(micro_pc)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "[%s] job '%s' (seed %#llx) cycle %llu upc %u: ",
                  simErrorCauseName(cause_), job_.c_str(),
                  static_cast<unsigned long long>(seed_),
                  static_cast<unsigned long long>(cycle_),
                  static_cast<unsigned>(microPc_));
    what_ = std::string(buf) + message_;
}

namespace guard
{

namespace
{

thread_local bool t_active = false;
thread_local std::string t_job;
thread_local uint64_t t_seed = 0;
thread_local const uint16_t *t_microPc = nullptr;

} // anonymous namespace

Scope::Scope(const std::string &job, uint64_t seed)
    : prevJob_(std::move(t_job)), prevSeed_(t_seed),
      prevActive_(t_active)
{
    t_job = job;
    t_seed = seed;
    t_active = true;
}

Scope::~Scope()
{
    t_job = std::move(prevJob_);
    t_seed = prevSeed_;
    t_active = prevActive_;
}

bool
active()
{
    return t_active;
}

std::string
jobName()
{
    return t_job;
}

uint64_t
seed()
{
    return t_seed;
}

void
setMicroPc(const uint16_t *upc)
{
    t_microPc = upc;
}

void
clearMicroPc(const uint16_t *upc)
{
    if (t_microPc == upc)
        t_microPc = nullptr;
}

uint16_t
currentMicroPc()
{
    return t_microPc ? *t_microPc : 0;
}

} // namespace guard

SimError
SimError::fromGuard(SimErrorCause cause, std::string message)
{
    return SimError(cause, std::move(message), guard::jobName(),
                    guard::seed(), trace::currentCycle(),
                    guard::currentMicroPc());
}

void
ForwardProgressWatchdog::poke(uint64_t instructions, uint64_t cycle,
                              uint16_t upc)
{
    if (!window_)
        return;
    if (instructions != lastInstructions_) {
        lastInstructions_ = instructions;
        lastProgressCycle_ = cycle;
        return;
    }
    if (cycle - lastProgressCycle_ >= window_) {
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "no instruction retired in %llu cycles "
                      "(looping at upc %u)",
                      static_cast<unsigned long long>(window_),
                      static_cast<unsigned>(upc));
        throw SimError(SimErrorCause::Watchdog, msg, guard::jobName(),
                       guard::seed(), cycle, upc);
    }
}

} // namespace vax
