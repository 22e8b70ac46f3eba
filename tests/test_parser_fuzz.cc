/** @file Seeded mutation fuzz of the text parsers: parseTrace (v1 and
 *  v2 traces), importRequestLog (CSV request logs) and
 *  parseRateProfile. Every mutated input must either parse to a value
 *  that meets the parser's contract, or end in a fatal error
 *  (std::runtime_error); a trace that parses must also survive
 *  formatTrace and parse again unchanged. Arrival doubles must
 *  round-trip bit for bit through %.17g, and a trace parsed in slices
 *  must give what one slice gives. The sanitizer build runs this file
 *  like any other. */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/drain.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using serve::ArrivalTrace;
using serve::TimedRequest;

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** The contract parseTrace enforces, checked independently of it. */
void
expectContract(const ArrivalTrace &trace, const std::string &input)
{
    double prev = 0.0;
    std::map<std::uint64_t, std::uint64_t> next_turn;
    for (const TimedRequest &t : trace.requests) {
        ASSERT_TRUE(std::isfinite(t.arrivalMs) && t.arrivalMs >= 0.0)
            << input;
        ASSERT_GE(t.arrivalMs, prev) << input;
        ASSERT_GT(t.request.inputTokens, 0u) << input;
        ASSERT_GT(t.request.outputTokens, 0u) << input;
        ASSERT_LT(t.prefixTokens, t.request.inputTokens) << input;
        if (t.turnIndex == 0) {
            ASSERT_EQ(t.prefixTokens, 0u) << input;
        }
        if (t.sessionId == 0) {
            ASSERT_EQ(t.turnIndex, 0u) << input;
        } else {
            ASSERT_EQ(t.turnIndex, next_turn[t.sessionId]++) << input;
        }
        prev = t.arrivalMs;
    }
}

/** parseTrace(formatTrace(@p trace)) is @p trace, field for field and
 *  bit for bit, and formats to the same bytes again. */
void
expectRoundTrip(const ArrivalTrace &trace, const std::string &input)
{
    const std::string text = serve::formatTrace(trace);
    const ArrivalTrace again = serve::parseTrace(text);
    ASSERT_EQ(again.size(), trace.size()) << input;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TimedRequest &a = trace.requests[i];
        const TimedRequest &b = again.requests[i];
        ASSERT_TRUE(sameBits(a.arrivalMs, b.arrivalMs)) << input;
        ASSERT_EQ(a.request.inputTokens, b.request.inputTokens) << input;
        ASSERT_EQ(a.request.outputTokens, b.request.outputTokens)
            << input;
        ASSERT_EQ(a.sessionId, b.sessionId) << input;
        ASSERT_EQ(a.turnIndex, b.turnIndex) << input;
        ASSERT_EQ(a.prefixTokens, b.prefixTokens) << input;
    }
    ASSERT_EQ(serve::formatTrace(again), text) << input;
}

/** One to four random edits of @p text: flip a bit of a byte, insert
 *  whitespace, a sign or a digit, or truncate. */
std::string
mutate(std::string text, std::mt19937 &rng)
{
    static const char kWhitespace[] = " \t\n\r\v\f";
    const unsigned edits = 1 + rng() % 4;
    for (unsigned e = 0; e < edits; ++e) {
        const std::size_t at = text.empty() ? 0 : rng() % (text.size() + 1);
        switch (rng() % 5) {
        case 0:
            if (at < text.size())
                text[at] = static_cast<char>(text[at] ^ (1u << rng() % 8));
            break;
        case 1:
            text.insert(at, 1, kWhitespace[rng() % 6]);
            break;
        case 2:
            text.insert(at, 1, rng() % 2 ? '-' : '+');
            break;
        case 3:
            text.insert(at, 1, static_cast<char>('0' + rng() % 10));
            break;
        default:
            text.resize(at);
            break;
        }
    }
    return text;
}

/** Feed @p iterations mutations of @p seeds to @p parse, and each
 *  value it returns to @p check; counts the accepted and the rejected
 *  inputs. Only @p parse may throw std::runtime_error. */
template <class Parse, class Check>
void
fuzz(const std::vector<std::string> &seeds, std::uint32_t seed,
     unsigned iterations, const Parse &parse, const Check &check)
{
    std::mt19937 rng(seed);
    unsigned accepted = 0, rejected = 0;
    for (unsigned i = 0; i < iterations; ++i) {
        const std::string input = mutate(seeds[i % seeds.size()], rng);
        std::optional<decltype(parse(input))> value;
        try {
            value = parse(input);
        } catch (const std::runtime_error &) {
            ++rejected;
            continue;
        }
        ++accepted;
        check(*value, input);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Both outcomes must occur often, or the mutations test little.
    EXPECT_GT(accepted, iterations / 50);
    EXPECT_GT(rejected, iterations / 50);
}

/** The checks of a parsed trace. */
void
checkTrace(const ArrivalTrace &trace, const std::string &input)
{
    expectContract(trace, input);
    if (!::testing::Test::HasFatalFailure())
        expectRoundTrip(trace, input);
}

ArrivalTrace
poissonTrace()
{
    serve::TraceOptions opts;
    opts.seed = 11;
    opts.requests = 6;
    opts.arrivalsPerSec = 40.0;
    return serve::generatePoissonTrace(opts);
}

ArrivalTrace
sessionTrace()
{
    serve::SessionOptions opts;
    opts.seed = 12;
    opts.sessions = 3;
    opts.meanTurns = 2.0;
    return serve::generateSessionTrace(opts);
}

TEST(ParserFuzz, MutatedTracesParseToTheContractOrFail)
{
    const ArrivalTrace v2 = sessionTrace();
    ASSERT_TRUE(v2.hasSessions());
    const std::vector<std::string> seeds = {
        serve::formatTrace(poissonTrace()), serve::formatTrace(v2),
        "ianus-arrival-trace v1\n2\n0 1 1\n1e-320 18446744073709551615 "
        "7\n"};
    fuzz(seeds, 20261017, 6000, serve::parseTrace, checkTrace);
}

/** What parseTraceInSlices(text, slices) gives: the rows, formatted, or the
 *  fatal message. */
std::string
slicedOutcome(const std::string &text, std::size_t slices)
{
    try {
        return serve::formatTrace(serve::parseTraceInSlices(text, slices));
    } catch (const std::runtime_error &e) {
        return e.what();
    }
}

TEST(ParserFuzz, SlicedParsesAgreeWithOneSlice)
{
    // Each mutant parses in 1 and in 3 slices to the same rows or the
    // same fatal message. The longer seeds put several rows, and most
    // edits, inside each slice.
    serve::TraceOptions poisson;
    poisson.seed = 13;
    poisson.requests = 40;
    poisson.arrivalsPerSec = 40.0;
    serve::SessionOptions sessions;
    sessions.seed = 14;
    sessions.sessions = 10;
    sessions.meanTurns = 3.0;
    const std::vector<std::string> seeds = {
        serve::formatTrace(poissonTrace()), serve::formatTrace(sessionTrace()),
        serve::formatTrace(serve::generatePoissonTrace(poisson)),
        serve::formatTrace(serve::generateSessionTrace(sessions))};
    std::mt19937 rng(20261020);
    unsigned accepted = 0;
    const unsigned iterations = 3000;
    for (unsigned i = 0; i < iterations; ++i) {
        const std::string input = mutate(seeds[i % seeds.size()], rng);
        const std::string one = slicedOutcome(input, 1);
        ASSERT_EQ(slicedOutcome(input, 3), one) << input;
        accepted += one.rfind("fatal: ", 0) == 0 ? 0 : 1;
    }
    // Both outcomes must occur often, or the mutations test little.
    EXPECT_GT(accepted, iterations / 50);
    EXPECT_LT(accepted, iterations - iterations / 50);
}

TEST(ParserFuzz, MutatedRequestLogsImportToTheContractOrFail)
{
    const std::vector<std::string> seeds = {
        "arrival_ms,prompt_tokens,output_tokens,session_id\n"
        "0,64,8,a\n"
        "12.5,96,16,a\n"
        "3,32,4,\n"
        "40,200,8,b\n"
        "41,256,8,b\n",
        "timestamp,context_tokens,generated_tokens\r\n"
        "2023-11-16 18:00:00.25,128,16\r\n"
        "2023-11-16T18:00:01Z,512,64\r\n"};
    fuzz(seeds, 7919, 6000, serve::importRequestLog, checkTrace);
}

TEST(ParserFuzz, MutatedRateProfilesParseToTheContractOrFail)
{
    const std::vector<std::string> seeds = {
        "const:25:1000", "sin:20:5:1000:4000", "steps:1000:10,0,5"};
    auto check = [](const serve::RateProfile &p, const std::string &input) {
        ASSERT_TRUE(std::isfinite(p.durationMs) && p.durationMs > 0.0)
            << input;
        ASSERT_TRUE(std::isfinite(p.peakRate()) && p.peakRate() > 0.0)
            << input;
        for (double r : p.stepRates)
            ASSERT_TRUE(std::isfinite(r) && r >= 0.0) << input;
        if (p.kind == serve::RateProfile::Kind::Sinusoid) {
            ASSERT_GE(p.amplitudeRate, 0.0) << input;
            ASSERT_LE(p.amplitudeRate, p.baseRate) << input;
            ASSERT_TRUE(std::isfinite(p.periodMs) && p.periodMs > 0.0)
                << input;
        }
        if (p.kind == serve::RateProfile::Kind::Steps) {
            ASSERT_FALSE(p.stepRates.empty()) << input;
        }
    };
    fuzz(seeds, 4242, 3000, serve::parseRateProfile, check);
}

/** A uniformly random non-negative finite double: random exponent
 *  (0 is subnormal) and random 52-bit mantissa. */
double
randomDouble(std::mt19937_64 &rng)
{
    const std::uint64_t exponent = rng() % 2047; // 2047 is inf/nan
    const std::uint64_t mantissa = rng() & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t bits = exponent << 52 | mantissa;
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

TEST(ParserFuzz, ArrivalDoublesRoundTripBitExactly)
{
    std::mt19937_64 rng(53);
    std::vector<double> values = {0.0,     -0.0,    DBL_TRUE_MIN,
                                  DBL_MIN, DBL_MAX, 0.1 + 0.2,
                                  1e-320,  1e300};
    for (int i = 0; i < 20000; ++i)
        values.push_back(randomDouble(rng));
    for (int i = 0; i < 2000; ++i) // small subnormals and 17-digit values
        values.push_back(static_cast<double>(rng() % 1000) * DBL_TRUE_MIN);
    for (int i = 0; i < 2000; ++i)
        values.push_back(static_cast<double>(rng() >> 11) * 0x1.0p-20);

    for (double v : values) {
        ArrivalTrace trace;
        TimedRequest t;
        t.arrivalMs = v;
        t.request = {64, 8};
        trace.requests.push_back(t);
        const std::string text = serve::formatTrace(trace);
        const ArrivalTrace parsed = serve::parseTrace(text);
        ASSERT_EQ(parsed.size(), 1u) << text;
        ASSERT_TRUE(sameBits(parsed.requests[0].arrivalMs, v)) << text;

        // The same bits strtod, the C library's parser, reads.
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        ASSERT_TRUE(sameBits(std::strtod(buf, nullptr), v)) << buf;
    }
}

} // namespace
