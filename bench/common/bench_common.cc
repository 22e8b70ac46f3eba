#include "common/bench_common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include "serve/serving_engine.hh"

namespace bench
{

namespace
{

/** The terminate handler parseArgs installs: an uncaught exception's
 *  message goes to stderr and the bench exits 1. Anything else that
 *  terminates still aborts. */
[[noreturn]] void
exitOnFatal()
{
    try {
        if (std::exception_ptr e = std::current_exception())
            std::rethrow_exception(e);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
    } catch (...) {
    }
    std::abort();
}

} // namespace

Options
parseArgs(int argc, char **argv, const char *floor_value)
{
    std::set_terminate(exitOnFatal);
    const char *slash = std::strrchr(argv[0], '/');
    std::string usage = std::string("usage: ") +
                        (slash ? slash + 1 : argv[0]) + " [--fast] [--csv]";
    if (floor_value)
        usage += std::string(" [--floor ") + floor_value + "]";
    auto fail = [&usage](const std::string &why) {
        std::fprintf(stderr, "%s\n%s\n", why.c_str(), usage.c_str());
        std::exit(2);
    };

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fast") {
            opts.fast = true;
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "-h" || arg == "--help") {
            std::printf("%s\n", usage.c_str());
            std::exit(0);
        } else if (arg == "--floor" && floor_value) {
            const char *value = i + 1 < argc ? argv[++i] : "";
            char *end = nullptr;
            opts.floor = std::strtod(value, &end);
            if (end == value || *end != '\0' || !std::isfinite(opts.floor) ||
                opts.floor <= 0.0)
                fail(std::string("--floor wants a positive number, got '") +
                     value + "'");
        } else {
            fail("unknown argument '" + arg + "'");
        }
    }
    return opts;
}

void
banner(const std::string &title, const std::string &paper_claim)
{
    std::printf("==== %s ====\n", title.c_str());
    std::printf("paper: %s\n\n", paper_claim.c_str());
}

unsigned
strideFor(std::uint64_t output_tokens, const Options &opts)
{
    unsigned stride = 1;
    if (output_tokens > 256)
        stride = 32;
    else if (output_tokens > 32)
        stride = 8;
    else if (output_tokens > 8)
        stride = 2;
    if (opts.fast)
        stride *= 4;
    return stride;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
Table::print(const Options &opts) const
{
    if (opts.csv) {
        auto emit = [](const std::vector<std::string> &cells) {
            for (std::size_t i = 0; i < cells.size(); ++i)
                std::printf("%s%s", cells[i].c_str(),
                            i + 1 < cells.size() ? "," : "\n");
        };
        emit(headers_);
        for (const auto &row : rows_)
            emit(row);
        return;
    }
    std::vector<std::size_t> width(headers_.size(), 0);
    auto widen = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size() && i < width.size(); ++i)
            width[i] = std::max(width[i], cells[i].size());
    };
    widen(headers_);
    for (const auto &row : rows_)
        widen(row);
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < width.size(); ++i) {
            const std::string &cell = i < cells.size() ? cells[i] : "";
            std::printf("%-*s ", static_cast<int>(width[i] + 1),
                        cell.c_str());
        }
        std::printf("\n");
    };
    emit(headers_);
    std::string rule;
    for (std::size_t i = 0; i < width.size(); ++i)
        rule += std::string(width[i] + 2, '-');
    std::printf("%s\n", rule.c_str());
    for (const auto &row : rows_)
        emit(row);
    std::printf("\n");
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    os << buf;
    return os.str();
}

std::string
Table::ratio(double v, int precision)
{
    return num(v, precision) + "x";
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(v);
    return std::exp(acc / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += v;
    return acc / static_cast<double>(values.size());
}

std::string
shapeCheck(double measured, double paper, double lo, double hi)
{
    if (paper == 0.0)
        return "n/a";
    double r = measured / paper;
    return (r >= lo && r <= hi) ? "ok" : "DIVERGES";
}

bool
identicalResults(const ianus::serve::ServingReport &a,
                 const ianus::serve::ServingReport &b)
{
    return a.results == b.results && a.makespanMs == b.makespanMs &&
           a.kvShed == b.kvShed && a.kvTransfers == b.kvTransfers &&
           a.kvTransferMs == b.kvTransferMs &&
           a.prefixHits == b.prefixHits &&
           a.prefillTokensSaved == b.prefillTokensSaved;
}

} // namespace bench
