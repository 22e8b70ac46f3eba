/**
 * @file
 * Host-side measurement helpers: the process clock, an in-memory span
 * recorder and process memory readings.
 *
 * Spans are recorded only around calls the benchmark makes into the
 * simulator's public API; nothing inside the simulator is instrumented.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>
#include <vector>

namespace perfbench
{

/** Host seconds since the process started (static initialization). */
double secondsSinceStart();

/**
 * Records (name, start, end, parent) spans in memory; writes them as
 * JSON at the end. A disabled recorder records nothing, so the untraced
 * run pays one branch per span.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int index_;
    };

    bool enabled() const { return enabled_; }

    /** Sum of the durations of all spans named @p name (seconds). */
    double total(const std::string &name) const;

    /** Write every span as a JSON array; false if the file fails. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Resident set size now, in MB (from /proc/self/statm). */
double currentRssMb();

/** Peak resident set size of the process so far, in MB (getrusage). */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
