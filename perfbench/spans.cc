#include "spans.hh"

#include <cstdio>
#include <cstdlib>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

double
Span::seconds() const
{
    return std::chrono::duration<double>(end - start).count();
}

uint64_t
Span::count(const std::string &key) const
{
    for (const auto &[k, v] : counts)
        if (k == key)
            return v;
    return 0;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int
SpanRecorder::open(std::string name, Clock::time_point t)
{
    Span s;
    s.name = std::move(name);
    s.start = t;
    s.end = t;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.group = group_;
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id, Clock::time_point t)
{
    // A span closed while a child is still open would let the child
    // outlive its parent and break the self-time accounting.
    if (stack_.empty() || stack_.back() != id) {
        std::fprintf(stderr, "perfbench: span '%s' closed out of order\n",
                     spans_[static_cast<size_t>(id)].name.c_str());
        std::abort();
    }
    stack_.pop_back();
    spans_[static_cast<size_t>(id)].end = t;
}

void
SpanRecorder::addCount(int id, const char *key, uint64_t v)
{
    spans_[static_cast<size_t>(id)].counts.emplace_back(key, v);
}

std::vector<double>
SpanRecorder::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].seconds();
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.seconds();
    return self;
}

std::map<std::string, double>
SpanRecorder::layerSelfSeconds() const
{
    std::vector<double> self = selfSeconds();
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].layer()] += self[i];
    return out;
}

double
SpanRecorder::rootSeconds() const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            total += s.seconds();
    return total;
}

std::string
SpanRecorder::chromeTrace() const
{
    using Micros = std::chrono::duration<double, std::micro>;
    std::string out = "{\"traceEvents\":[\n";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"group\":%llu",
                      s.name.c_str(), s.layer().c_str(),
                      Micros(s.start - epoch_).count(),
                      Micros(s.end - s.start).count(), i, s.parent,
                      static_cast<unsigned long long>(s.group));
        out += buf;
        for (const auto &[k, v] : s.counts) {
            std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", k.c_str(),
                          static_cast<unsigned long long>(v));
            out += buf;
        }
        out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
    }
    out += "]}\n";
    return out;
}

Timed::Timed(SpanRecorder *rec, const char *name,
             const std::string &detail)
    : rec_(rec), start_(Clock::now())
{
    if (rec_)
        id_ = rec_->open(detail.empty() ? std::string(name)
                                        : std::string(name) + "." + detail,
                         start_);
}

Timed::~Timed()
{
    stop();
}

void
Timed::count(const char *key, uint64_t v)
{
    if (rec_)
        rec_->addCount(id_, key, v);
}

double
Timed::stop()
{
    if (!stopped_) {
        Clock::time_point end = Clock::now();
        seconds_ = std::chrono::duration<double>(end - start_).count();
        if (rec_)
            rec_->close(id_, end);
        stopped_ = true;
    }
    return seconds_;
}

} // namespace perfbench
