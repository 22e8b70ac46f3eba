/**
 * @file
 * Command-line handling shared by the small examples (quickstart,
 * design_space_explorer, bert_qa_throughput, pim_microcode_trace):
 * `--help` prints the usage and exits 0, a usage error (an unknown
 * model size, a count that is not a positive integer) exits 2, and a
 * fatal simulation error (IANUS_FATAL) exits 1 with its message —
 * never an uncaught exception's abort.
 */

#ifndef IANUS_EXAMPLES_EXAMPLE_CLI_HH
#define IANUS_EXAMPLES_EXAMPLE_CLI_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads/model_config.hh"

namespace ianus::examples
{

/** A malformed command line: runExample() exits 2 on it. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** @p value as an integer >= 1; anything else (non-numeric, zero,
 *  negative, out of range) is a UsageError naming @p what. */
inline std::uint64_t
parseCount(const char *what, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    // strtoull wraps negative input modulo 2^64 instead of failing.
    if (end == value || *end != '\0' || value[0] == '-' || parsed == 0 ||
        errno == ERANGE)
        throw UsageError(std::string(what) +
                         " wants a positive integer, got '" + value + "'");
    return parsed;
}

/** The GPT-2 config @p size names; an unknown size is a UsageError. */
inline workloads::ModelConfig
gpt2Arg(const std::string &size)
{
    try {
        return workloads::gpt2(size);
    } catch (const std::runtime_error &e) {
        throw UsageError(e.what());
    }
}

/** Run an example's @p body as its main(): `-h`/`--help` anywhere
 *  prints @p usage to stdout and returns 0 without running it; a
 *  UsageError prints its message and @p usage to stderr and returns 2;
 *  any other exception prints its message and returns 1. */
template <typename Body>
int
runExample(int argc, char **argv, const char *usage, Body body)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "-h") == 0 ||
            std::strcmp(argv[i], "--help") == 0) {
            std::fputs(usage, stdout);
            return 0;
        }
    try {
        return body(argc, argv);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s\n%s", e.what(), usage);
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

} // namespace ianus::examples

#endif // IANUS_EXAMPLES_EXAMPLE_CLI_HH
