/**
 * @file
 * Shared plumbing for the figure/table harnesses: aligned table
 * printing, paper-vs-measured comparison rows, geometric means, and the
 * --fast / --csv command-line conventions.
 */

#ifndef IANUS_BENCH_COMMON_HH
#define IANUS_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ianus::serve
{
struct ServingReport;
}

namespace bench
{

/** Parsed harness options. */
struct Options
{
    bool fast = false;  ///< coarser token strides for quick runs
    bool csv = false;   ///< machine-readable output
    double floor = 0.0; ///< `--floor VALUE`; 0 when absent
};

/**
 * Parse a bench's command line: `--fast`, `--csv` and, when
 * @p floor_value names the floor's unit (e.g. "REQ_PER_S"),
 * `--floor VALUE`. `-h` and `--help` print the usage to stdout and
 * exit 0. Any other argument, or a floor that is missing, not a number
 * or not positive, prints the usage to stderr and exits 2, so a typo
 * can never skip a CI gate. From here on, an exception the bench does
 * not catch (an IANUS_FATAL) prints its message to stderr and exits 1,
 * as the examples do, instead of aborting.
 */
Options parseArgs(int argc, char **argv, const char *floor_value = nullptr);

/** Print the harness banner: what figure, what the paper reports. */
void banner(const std::string &title, const std::string &paper_claim);

/** Generation-step sampling stride for a given output length. */
unsigned strideFor(std::uint64_t output_tokens, const Options &opts);

/** Simple aligned-column table that can also emit CSV. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print(const Options &opts) const;

    /** Format helpers. */
    static std::string num(double v, int precision = 1);
    static std::string ratio(double v, int precision = 2);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

double geomean(const std::vector<double> &values);
double mean(const std::vector<double> &values);

/** "shape check" verdict: measured within [lo, hi] x paper value. */
std::string shapeCheck(double measured, double paper, double lo = 0.5,
                       double hi = 2.0);

/** A serving bench's replay check: two drains of one trace agree in
 *  every field of every result, the makespan and the report's KV,
 *  handoff and prefix counters. */
bool identicalResults(const ianus::serve::ServingReport &a,
                      const ianus::serve::ServingReport &b);

} // namespace bench

#endif // IANUS_BENCH_COMMON_HH
