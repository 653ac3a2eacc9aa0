/**
 * @file
 * Span recorder and Chrome-trace writer.
 */

#include "trace.hh"

#include <fstream>

#include "util/logging.hh"

namespace e2ebench {

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int
Tracer::begin(const std::string &name, int run)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run;
    s.start_s = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    DSTRAIN_ASSERT(!open_.empty() && open_.back() == id,
                   "span %d closed out of order", id);
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
}

double
Tracer::total(const std::string &name, int run) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.run == run && s.name == name)
            sum += s.seconds();
    return sum;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    // Complete ("X") events in microseconds; one track per pass so
    // Perfetto nests each pass's spans by time containment.
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n")
            << dstrain::csprintf(
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"run\":%d}}",
                   s.name.c_str(), s.run, s.start_s * 1e6,
                   s.seconds() * 1e6, i, s.parent, s.run);
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace e2ebench
