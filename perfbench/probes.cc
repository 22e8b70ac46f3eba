#include "probes.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

// Initialized during static initialization, before main runs.
const Clock::time_point kProcessStart = Clock::now();

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

double
secondsSinceStart()
{
    return since(kProcessStart);
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec_(rec), index_(-1)
{
    if (!rec_.enabled_)
        return;
    index_ = static_cast<int>(rec_.spans_.size());
    const int parent = rec_.open_.empty() ? -1 : rec_.open_.back();
    rec_.spans_.push_back(Span{name, secondsSinceStart(), 0.0, parent});
    rec_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope()
{
    if (index_ < 0)
        return;
    rec_.spans_[static_cast<std::size_t>(index_)].end = secondsSinceStart();
    rec_.open_.pop_back();
}

double
SpanRecorder::total(const std::string &name) const
{
    double s = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            s += span.end - span.start;
    return s;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                      "\"end_s\": %.9f, \"parent\": %d}%s\n",
                      i, s.name.c_str(), s.start, s.end, s.parent,
                      i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
}

double
currentRssMb()
{
    long pages_total = 0, pages_resident = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0.0;
    const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
    std::fclose(f);
    if (n != 2)
        return 0.0;
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

} // namespace perfbench
