/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call from the benchmark into a layer of the
 * simulator: a name of the form "<layer>.<what>[.<detail>]" (the layer
 * is the src/ module the call lands in), a start and end on the
 * steady clock, the span that was open when it began (its parent),
 * and a few integer counts recorded at the same boundary (cycles
 * retired, bytes produced...).  Spans stay in memory until the run
 * ends, then go out as Chrome trace-event JSON -- the format
 * writeChromeTrace() emits -- so Perfetto opens both side by side.
 *
 * Tracing off is a null recorder: Timed still reads the clock (the
 * untraced samples need their phase times) but records nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from t0 to now. */
double secondsSince(Clock::time_point t0);

struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;    ///< index of the enclosing span, -1 for a root
    uint64_t group = 0; ///< sample (or probe pass) the span belongs to
    std::vector<std::pair<std::string, uint64_t>> counts;

    /** The layer: the name up to its first dot. */
    std::string layer() const;
    double seconds() const;
    /** A recorded count, 0 when absent. */
    uint64_t count(const std::string &key) const;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Spans opened from now on belong to this group. */
    void setGroup(uint64_t g) { group_ = g; }

    /** Open a span as a child of the innermost open one. */
    int open(std::string name, Clock::time_point t);
    /** Close a span; spans close innermost first. */
    void close(int id, Clock::time_point t);
    void addCount(int id, const char *key, uint64_t v);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: its duration minus the durations of
     *  its direct children. */
    std::vector<double> selfSeconds() const;

    /** Self time summed per layer. */
    std::map<std::string, double> layerSelfSeconds() const;

    /** Summed duration of the root spans: the traced wall time. */
    double rootSeconds() const;

    /** Chrome trace-event JSON: one complete ("X") event per span,
     *  timestamps in microseconds from the recorder's creation. */
    std::string chromeTrace() const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    uint64_t group_ = 0;
};

/**
 * Times one call.  Always measures; records a span only when given a
 * recorder.  The span and the returned duration come from the same
 * two clock reads, so traced and untraced phase times agree.
 */
class Timed
{
  public:
    Timed(SpanRecorder *rec, const char *name,
          const std::string &detail = {});
    ~Timed();

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** Record a count on the span (no-op untraced). */
    void count(const char *key, uint64_t v);

    /** End the span now (idempotent); returns its duration in
     *  seconds. */
    double stop();

  private:
    SpanRecorder *rec_;
    int id_ = -1;
    Clock::time_point start_;
    bool stopped_ = false;
    double seconds_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
