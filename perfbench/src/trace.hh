/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span has a name, a start, an end, the span that caused it, and the
 * id of the request it belongs to (every span of one request shares
 * it). Spans are recorded by the benchmark's own code around each call
 * into a libmopt layer's public function; nothing inside the library
 * is instrumented. They are kept in memory and written out once, when
 * the run ends. A layer's self time is its span's duration minus the
 * part of that interval its child spans cover.
 *
 * With tracing off the recorder is a null pointer and a Span costs one
 * branch, so the untraced run measures the program, not the tracer.
 */
#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One finished span. */
struct SpanRecord
{
    const char *name = "";     //!< Static string: "<layer>.<call>".
    std::uint64_t id = 0;      //!< Unique, starts at 1.
    std::uint64_t parent = 0;  //!< Causing span; 0 = root.
    std::uint64_t request = 0; //!< Shared by the spans of one request.
    std::int64_t arg = 0;      //!< Span-specific label (layer index...).
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/** Thread-safe span store. */
class Tracer
{
  public:
    static constexpr std::int64_t kAnyArg =
        std::numeric_limits<std::int64_t>::min();

    /** A fresh request id. */
    std::uint64_t newRequest() { return next_request_++; }

    /** Finished spans, in completion order. */
    std::vector<SpanRecord> spans() const;

    /** Durations (seconds) of the spans named @p name, optionally
     *  only those carrying @p arg. */
    std::vector<double> durations(const std::string &name,
                                  std::int64_t arg = kAnyArg) const;

    /** Self time (seconds) summed per span name. */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

    /** Write every span, one JSON object per line, after a first line
     *  holding @p header (a JSON object). */
    bool write(const std::string &path, const std::string &header) const;

  private:
    friend class Span;
    std::uint64_t open() { return next_span_++; }
    void close(const SpanRecord &rec);

    std::atomic<std::uint64_t> next_span_{1};
    std::atomic<std::uint64_t> next_request_{1};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; //!< Guarded by mu_.
};

/** Scoped span: records [construction, destruction) into a Tracer. */
class Span
{
  public:
    Span(Tracer *tr, const char *name, std::uint64_t request = 0,
         std::uint64_t parent = 0, std::int64_t arg = 0)
        : tr_(tr)
    {
        if (!tr_)
            return;
        rec_.name = name;
        rec_.id = tr_->open();
        rec_.parent = parent;
        rec_.request = request;
        rec_.arg = arg;
        rec_.start_ns = now();
    }
    ~Span()
    {
        if (!tr_)
            return;
        rec_.end_ns = now();
        tr_->close(rec_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when tracing is off). */
    std::uint64_t id() const { return rec_.id; }

  private:
    static std::int64_t now()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    Tracer *tr_;
    SpanRecord rec_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
