/**
 * @file
 * Graceful SIGINT/SIGTERM handling for long measurement runs.
 *
 * A composite can spend minutes to hours simulating; before this
 * module existed, Ctrl-C threw every simulated cycle away.  Now the
 * drivers install a handler that only sets a flag and poll it at
 * chunk boundaries: SimPool workers stop and report the partial
 * composite, campaign shards (driver/campaign.hh) drain behind a
 * final checkpoint, and the harness exits with the conventional
 * 128+SIGINT code after printing a loud INTERRUPTED marker -- so an
 * interrupted campaign is a resumable one, not a lost one.
 *
 * The flag is process-global and sticky: once requested, every
 * experiment and pool in the process winds down.  Tests drive the
 * same path programmatically through request()/reset().
 */

#ifndef UPC780_SUPPORT_INTERRUPT_HH
#define UPC780_SUPPORT_INTERRUPT_HH

namespace vax::interrupt
{

/** Conventional exit status for a SIGINT-terminated run (128 + 2). */
constexpr int exitCode = 130;

/**
 * Install the SIGINT/SIGTERM handlers (idempotent).  The handler is
 * async-signal-safe: it only sets the request flag; all draining and
 * checkpoint I/O happens on the polling threads.  A second signal
 * while a drain is in progress restores the default disposition, so
 * a stuck run can still be killed the ordinary way.
 */
void install();

/** True once an interrupt (signal or programmatic) was requested. */
bool requested();

/** Request an interrupt programmatically (tests, embedding code). */
void request();

/** Clear the flag (tests only; real runs stay interrupted). */
void reset();

/**
 * The one INTERRUPTED marker every drainable binary prints:
 *
 *   *** INTERRUPTED: <what> (N job(s) unfinished); <hint> ***
 *
 * where the hint is "rerun with --resume to continue" for a campaign
 * (@p resumable) and "use upc780_campaign for a resumable run" for
 * everything else.  @return exitCode (130), so callers can
 * write `return interrupt::reportInterrupted(...)`.  Keeping the
 * format in one place is what lets scripts and the drill tests grep
 * for it across every tool.
 */
int reportInterrupted(const char *what, unsigned unfinished,
                      bool resumable);

} // namespace vax::interrupt

#endif // UPC780_SUPPORT_INTERRUPT_HH
