#include "support/faultinject.hh"

#include <algorithm>
#include <cstdlib>

#include "support/logging.hh"
#include "support/parse.hh"
#include "support/trace.hh"

namespace vax
{

const char *
mcheckCauseName(McheckCause c)
{
    switch (c) {
      case McheckCause::None:        return "none";
      case McheckCause::CacheParity: return "cache-parity";
      case McheckCause::TbCorrupt:   return "tb-corrupt";
      case McheckCause::SbiTimeout:  return "sbi-timeout";
    }
    return "?";
}

namespace
{

/** Split on a delimiter; empty fields are skipped. */
std::vector<std::string>
splitList(const std::string &s, char delim)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t end = s.find(delim, pos);
        if (end == std::string::npos)
            end = s.size();
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

double
parseRate(const std::string &field, const std::string &value)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || !(v >= 0.0) || v > 1.0)
        fatal("faults: bad rate '%s=%s' (want 0..1)", field.c_str(),
              value.c_str());
    return v;
}

uint64_t
parseCountField(const std::string &field, const std::string &value,
                uint64_t max)
{
    std::optional<uint64_t> v = parseCount(value, max);
    if (!v)
        fatal("faults: bad count '%s=%s' (max %llu)", field.c_str(),
              value.c_str(), static_cast<unsigned long long>(max));
    return *v;
}

} // anonymous namespace

FaultConfig
FaultConfig::parse(const std::string &spec)
{
    FaultConfig cfg;
    for (const std::string &item : splitList(spec, ',')) {
        size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("faults: malformed field '%s' (want key=value)",
                  item.c_str());
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        if (key == "parity") {
            cfg.cacheParityRate = parseRate(key, val);
        } else if (key == "tb") {
            cfg.tbCorruptRate = parseRate(key, val);
        } else if (key == "sbi") {
            cfg.sbiTimeoutRate = parseRate(key, val);
        } else if (key == "seed") {
            cfg.seed = parseCountField(key, val, UINT64_MAX);
        } else if (key == "disable") {
            cfg.cacheDisableAfter = static_cast<uint32_t>(
                parseCountField(key, val, UINT32_MAX));
        } else if (key == "penalty") {
            cfg.sbiTimeoutPenalty = static_cast<uint32_t>(
                parseCountField(key, val, UINT32_MAX));
        } else if (key == "pcycle") {
            for (const std::string &c : splitList(val, ':'))
                cfg.parityCycles.push_back(
                    parseCountField(key, c, UINT64_MAX));
            std::sort(cfg.parityCycles.begin(),
                      cfg.parityCycles.end());
        } else {
            fatal("faults: unknown field '%s' (have: parity, tb, sbi, "
                  "seed, disable, penalty, pcycle)",
                  key.c_str());
        }
    }
    return cfg;
}

FaultConfig
FaultConfig::fromEnv()
{
    const char *env = std::getenv("UPC780_FAULTS");
    if (!env || !*env)
        return FaultConfig();
    return parse(env);
}

FaultInjector::FaultInjector(const FaultConfig &cfg,
                             uint64_t machine_seed)
    : cfg_(cfg), rng_(cfg.seed ^ (machine_seed * 0x9E3779B97F4A7C15ULL))
{
}

bool
FaultInjector::drawCacheParity()
{
    bool fire = false;
    if (nextParityCycle_ < cfg_.parityCycles.size() &&
        cycle_ >= cfg_.parityCycles[nextParityCycle_]) {
        ++nextParityCycle_;
        fire = true;
    }
    if (!fire && cfg_.cacheParityRate > 0.0)
        fire = rng_.chance(cfg_.cacheParityRate);
    if (fire) {
        ++stats_.parityErrors;
        TRACE(Fault, "cache parity error #%llu",
              static_cast<unsigned long long>(stats_.parityErrors));
    }
    return fire;
}

bool
FaultInjector::drawTbCorrupt()
{
    if (cfg_.tbCorruptRate <= 0.0 || !rng_.chance(cfg_.tbCorruptRate))
        return false;
    ++stats_.tbCorruptions;
    TRACE(Fault, "tb entry corrupted #%llu",
          static_cast<unsigned long long>(stats_.tbCorruptions));
    return true;
}

bool
FaultInjector::drawSbiTimeout()
{
    if (cfg_.sbiTimeoutRate <= 0.0 ||
        !rng_.chance(cfg_.sbiTimeoutRate))
        return false;
    ++stats_.sbiTimeouts;
    TRACE(Fault, "sbi read timeout #%llu (+%u cycles)",
          static_cast<unsigned long long>(stats_.sbiTimeouts),
          cfg_.sbiTimeoutPenalty);
    return true;
}

void
FaultInjector::postMachineCheck(McheckCause cause)
{
    // Single-depth latch: concurrent errors are summarized into the
    // first pending check, as on the real machine.
    if (pending_ == McheckCause::None)
        pending_ = cause;
}

McheckCause
FaultInjector::takeMachineCheck()
{
    McheckCause c = pending_;
    pending_ = McheckCause::None;
    if (c != McheckCause::None) {
        ++stats_.machineChecks;
        TRACE(Fault, "machine check dispatched (%s)",
              mcheckCauseName(c));
    }
    return c;
}

} // namespace vax
