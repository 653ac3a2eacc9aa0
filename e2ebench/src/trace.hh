/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * kept in a vector while the run lasts and written once at exit as
 * Chrome-trace JSON (chrome://tracing and Perfetto open it).
 */

#ifndef DSTRAIN_E2EBENCH_TRACE_HH
#define DSTRAIN_E2EBENCH_TRACE_HH

#include <chrono>
#include <string>
#include <vector>

namespace e2ebench {

/** One timed interval around a call into a layer. */
struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
    int parent = -1;       ///< index of the enclosing span, -1 = root
    int run = 0;           ///< pass number the span belongs to

    double seconds() const { return end_s - start_s; }
};

class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string &name, int run);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Sum of the durations of spans named @p name in run @p run.
     */
    double total(const std::string &name, int run) const;

    /** Write every span as Chrome-trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    using Clock = std::chrono::steady_clock;

    double now() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, int run)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, run) : -1)
    {}
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace e2ebench

#endif // DSTRAIN_E2EBENCH_TRACE_HH
