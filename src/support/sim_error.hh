/**
 * @file
 * Structured simulation errors and guarded execution.
 *
 * The gem5-style panic()/fatal() calls abort the whole process, which
 * is right for a single serial run but wrong inside the parallel
 * driver: one bad job would take down every sibling and lose their
 * results.  A worker therefore opens a guard::Scope around its job;
 * while the scope is active, panic()/fatal() throw a SimError carrying
 * the job name, seed, cycle and micro-PC instead of calling abort(),
 * and the pool catches it, retries once, and completes the run with
 * the surviving jobs.  Outside a scope nothing changes: the golden
 * serial path still dies fast and loud.
 *
 * The same header provides the forward-progress watchdog: a periodic
 * poke with (instructions, cycle, micro-PC) that throws a SimError
 * naming the looping micro-PC when no instruction retires within a
 * configurable cycle window.
 */

#ifndef UPC780_SUPPORT_SIM_ERROR_HH
#define UPC780_SUPPORT_SIM_ERROR_HH

#include <cstdint>
#include <exception>
#include <string>

namespace vax
{

/** Why a guarded simulation was torn down. */
enum class SimErrorCause : uint8_t {
    Panic,    ///< panic() fired inside a guarded worker
    Fatal,    ///< fatal() fired inside a guarded worker
    Watchdog, ///< no instruction retired within the watchdog window
    Timeout,  ///< per-job wall-clock budget exceeded
    Drill,    ///< scheduled recovery drill (RunLimits::tripCycle)
};

/** Printable cause name ("panic", "watchdog", ...). */
const char *simErrorCauseName(SimErrorCause c);

/** True when environment variable name is set to a non-empty value
 *  other than "0". */
bool envFlag(const char *name);

/** UPC780_STRICT as an envFlag: strict mode for Cpu780 (ROM lint and
 *  per-cycle flow check) and for SimPool (fail-fast jobs). */
inline bool envStrict() { return envFlag("UPC780_STRICT"); }

/**
 * A structured, catchable simulation failure.  what() is the fully
 * formatted one-line description; the individual fields are kept for
 * telemetry and tests.
 */
class SimError : public std::exception
{
  public:
    SimError(SimErrorCause cause, std::string message, std::string job,
             uint64_t seed, uint64_t cycle, uint16_t micro_pc);

    /** Build from the calling thread's guard context: job and seed
     *  from the active Scope, cycle from the trace stamp source,
     *  micro-PC from the registered EBOX pointer. */
    static SimError fromGuard(SimErrorCause cause, std::string message);

    const char *what() const noexcept override { return what_.c_str(); }

    SimErrorCause cause() const { return cause_; }
    const std::string &message() const { return message_; }
    const std::string &job() const { return job_; }
    uint64_t seed() const { return seed_; }
    uint64_t cycle() const { return cycle_; }
    uint16_t microPc() const { return microPc_; }

  private:
    SimErrorCause cause_;
    std::string message_;
    std::string job_;
    uint64_t seed_;
    uint64_t cycle_;
    uint16_t microPc_;
    std::string what_;
};

namespace guard
{

/**
 * RAII guard context for one job on the calling thread.  Nests
 * safely (the previous context is restored on destruction), though
 * the pool only ever opens one per job.
 */
class Scope
{
  public:
    Scope(const std::string &job, uint64_t seed);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::string prevJob_;
    uint64_t prevSeed_;
    bool prevActive_;
};

/** True while the calling thread is inside a guard::Scope. */
bool active();

/** Job name of the active scope ("" outside one). */
std::string jobName();

/** Machine seed of the active scope (0 outside one). */
uint64_t seed();

/** @{ Micro-PC stamping, mirroring trace::setCycleCounter: Cpu780
 *  installs a pointer to its EBOX's micro-PC so errors raised
 *  anywhere in the machine can name the microword being executed. */
void setMicroPc(const uint16_t *upc);
void clearMicroPc(const uint16_t *upc);
uint16_t currentMicroPc();
/** @} */

} // namespace guard

/**
 * Forward-progress watchdog: poke() it periodically with the retired
 * instruction count; if the count has not moved within the window, it
 * throws a SimError carrying the (looping) micro-PC of the last poke.
 * A zero window disables the check entirely.
 */
class ForwardProgressWatchdog
{
  public:
    explicit ForwardProgressWatchdog(uint64_t window_cycles)
        : window_(window_cycles) {}

    void poke(uint64_t instructions, uint64_t cycle, uint16_t upc);

    /** @{ Progress-window state, exposed so a checkpoint can carry
     *  the watchdog across a restore without this header having to
     *  know about the snapshot layer. */
    uint64_t lastInstructions() const { return lastInstructions_; }
    uint64_t lastProgressCycle() const { return lastProgressCycle_; }
    void
    restoreProgress(uint64_t instructions, uint64_t cycle)
    {
        lastInstructions_ = instructions;
        lastProgressCycle_ = cycle;
    }
    /** @} */

  private:
    uint64_t window_;
    uint64_t lastInstructions_ = ~uint64_t{0};
    uint64_t lastProgressCycle_ = 0;
};

} // namespace vax

#endif // UPC780_SUPPORT_SIM_ERROR_HH
