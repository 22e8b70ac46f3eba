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

namespace bench
{

/** Parsed harness options. */
struct Options
{
    bool fast = false; ///< coarser token strides for quick runs
    bool csv = false;  ///< machine-readable output
};

Options parseArgs(int argc, char **argv);

/**
 * The value of `--floor VALUE` in @p argv, 0 when the flag is absent.
 * A missing, non-numeric or non-positive value is a usage error: it
 * prints @p usage to stderr and exits with status 2, so a CI gate can
 * never be skipped by a typo.
 */
double floorArg(int argc, char **argv, const char *usage);

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

} // namespace bench

#endif // IANUS_BENCH_COMMON_HH
