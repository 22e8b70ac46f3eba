/** @file Trace persistence and closed-loop generation: golden-file
 *  determinism of the versioned text format, replay equivalence, and
 *  seed-deterministic closed-loop sessions. */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using serve::ArrivalTrace;
using serve::ClosedLoopOptions;
using serve::TraceOptions;

workloads::ModelConfig m = workloads::gpt2("m");

ArrivalTrace
sampleTrace(std::size_t requests = 32, std::uint64_t seed = 9)
{
    TraceOptions opts;
    opts.seed = seed;
    opts.requests = requests;
    opts.arrivalsPerSec = 200.0;
    return serve::generatePoissonTrace(opts);
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

// --- Text format ----------------------------------------------------------

TEST(TraceRoundtrip, FormatParseFormatIsByteIdentical)
{
    ArrivalTrace trace = sampleTrace();
    std::string once = serve::formatTrace(trace);
    ArrivalTrace parsed = serve::parseTrace(once);
    // The golden-file anchor: re-serializing the parsed trace must
    // reproduce the bytes, so %.17g doubles round-trip exactly.
    EXPECT_EQ(serve::formatTrace(parsed), once);
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed.requests[i].arrivalMs,
                  trace.requests[i].arrivalMs);
        EXPECT_EQ(parsed.requests[i].request.inputTokens,
                  trace.requests[i].request.inputTokens);
        EXPECT_EQ(parsed.requests[i].request.outputTokens,
                  trace.requests[i].request.outputTokens);
    }
}

TEST(TraceRoundtrip, EmptyTraceRoundtrips)
{
    ArrivalTrace empty;
    ArrivalTrace parsed = serve::parseTrace(serve::formatTrace(empty));
    EXPECT_EQ(parsed.size(), 0u);
}

TEST(TraceRoundtrip, SaveLoadRoundtripsThroughAFile)
{
    ArrivalTrace trace = sampleTrace();
    std::string path = tempPath("roundtrip.trace");
    serve::saveTrace(trace, path);
    ArrivalTrace loaded = serve::loadTrace(path);
    EXPECT_EQ(serve::formatTrace(loaded), serve::formatTrace(trace));
    std::remove(path.c_str());
}

TEST(TraceRoundtrip, ParseRejectsMalformedTraces)
{
    ArrivalTrace trace = sampleTrace(4);
    std::string good = serve::formatTrace(trace);

    EXPECT_THROW(serve::parseTrace(""), std::runtime_error);
    EXPECT_THROW(serve::parseTrace("not-a-trace v1\n0\n"),
                 std::runtime_error);
    // Unknown versions are a different magic line (v2 is valid now).
    EXPECT_THROW(serve::parseTrace("ianus-arrival-trace v3\n0\n"),
                 std::runtime_error);
    // Count contradicting the rows, both ways.
    EXPECT_THROW(
        serve::parseTrace("ianus-arrival-trace v1\n2\n1.5 64 8\n"),
        std::runtime_error);
    EXPECT_THROW(serve::parseTrace(good + "99 64 8\n"),
                 std::runtime_error);
    // Malformed rows: missing fields, zero tokens, negative or
    // regressing arrivals.
    EXPECT_THROW(serve::parseTrace("ianus-arrival-trace v1\n1\n1.5 64\n"),
                 std::runtime_error);
    EXPECT_THROW(
        serve::parseTrace("ianus-arrival-trace v1\n1\n1.5 0 8\n"),
        std::runtime_error);
    // Negative token counts must not wrap modulo 2^64 into huge
    // "valid" requests (strtoull accepts a leading '-').
    EXPECT_THROW(
        serve::parseTrace("ianus-arrival-trace v1\n1\n1.5 -64 8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::parseTrace("ianus-arrival-trace v1\n1\n1.5 64 -8\n"),
        std::runtime_error);
    EXPECT_THROW(serve::parseTrace("ianus-arrival-trace v1\n-1\n"),
                 std::runtime_error);
    EXPECT_THROW(
        serve::parseTrace("ianus-arrival-trace v1\n1\n-1.5 64 8\n"),
        std::runtime_error);
    EXPECT_THROW(serve::parseTrace(
                     "ianus-arrival-trace v1\n2\n5 64 8\n4 64 8\n"),
                 std::runtime_error);
    // Non-finite arrivals: strtod happily parses the literals "nan"
    // and "inf", but neither names an instant the serving clock can
    // reach — and a NaN row would also defeat the ordering check
    // (NaN < prev is false for every prev).
    EXPECT_THROW(
        serve::parseTrace("ianus-arrival-trace v1\n1\nnan 64 8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::parseTrace("ianus-arrival-trace v1\n1\ninf 64 8\n"),
        std::runtime_error);
    EXPECT_THROW(serve::parseTrace("ianus-arrival-trace v1\n2\n"
                                   "1.5 64 8\nnan 64 8\n"),
                 std::runtime_error);
    EXPECT_THROW(serve::loadTrace(tempPath("missing.trace")),
                 std::runtime_error);
}

TEST(TraceRoundtrip, ParseRejectsSignsHexAndOtherWhitespace)
{
    auto v1 = [](const std::string &rows, const char *count = "1") {
        return std::string("ianus-arrival-trace v1\n") + count + "\n" +
               rows;
    };
    // strtoull skipped \v, \f and \r and then took the '-', wrapping
    // the output to 2^64 - 8 tokens.
    EXPECT_THROW(serve::parseTrace(v1("1.5 64\v-8\n")),
                 std::runtime_error);
    EXPECT_THROW(serve::parseTrace(v1("1.5 \f-64 8\n")),
                 std::runtime_error);
    // Fields are separated by spaces or tabs only.
    for (const char *row : {"1.5\v64 8\n", "1.5 64\f8\n", "1.5\r64 8\n",
                            "\r1.5 64 8\n", "1.5 64 8\r\n"})
        EXPECT_THROW(serve::parseTrace(v1(row)), std::runtime_error)
            << row;
    // No '+' signs, hex integers or hex floats: formatTrace writes none.
    for (const char *row : {"+1.5 64 8\n", "1.5 +64 8\n", "1.5 64 +8\n",
                            "0x1p3 64 8\n", "1.5 0x40 8\n"})
        EXPECT_THROW(serve::parseTrace(v1(row)), std::runtime_error)
            << row;
    EXPECT_THROW(serve::parseTrace(v1("", "+0")), std::runtime_error);
    EXPECT_THROW(serve::parseTrace(v1("", "\v0")), std::runtime_error);
    // Values outside their type, and bytes after a NUL, are rejected
    // too (strtoull clamped, strtod flushed to zero, and the C string
    // ended at the NUL).
    EXPECT_THROW(serve::parseTrace(v1("1.5 18446744073709551616 8\n")),
                 std::runtime_error);
    EXPECT_THROW(serve::parseTrace(v1("1e-400 64 8\n")),
                 std::runtime_error);
    using namespace std::string_literals;
    EXPECT_THROW(serve::parseTrace(v1("1.5 64 8\0junk\n"s)),
                 std::runtime_error);
    EXPECT_THROW(serve::parseTrace(
                     "ianus-arrival-trace v2\n1\n1.5 64 8 1 0 \v-1\n"),
                 std::runtime_error);
    // A directory has no size to read.
    EXPECT_THROW(serve::loadTrace(::testing::TempDir()), std::runtime_error);
    // The loader reads a file where it lies, with nothing after its last
    // byte: an empty file is no trace, and a last row without its
    // newline still parses.
    const std::string path = tempPath("unterminated.trace");
    auto write = [&path](const char *text) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs(text, f);
        std::fclose(f);
    };
    write("");
    EXPECT_THROW(serve::loadTrace(path), std::runtime_error);
    write("ianus-arrival-trace v1\n1\n1.5 64 8");
    const ArrivalTrace last = serve::loadTrace(path);
    std::remove(path.c_str());
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last.requests[0].arrivalMs, 1.5);
    EXPECT_EQ(last.requests[0].request.outputTokens, 8u);

    // Spaces and tabs still separate fields, and every value up to
    // 2^64 - 1 parses.
    ArrivalTrace ok = serve::parseTrace(
        v1("\t 1.5 \t18446744073709551615  8\n"));
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok.requests[0].arrivalMs, 1.5);
    EXPECT_EQ(ok.requests[0].request.inputTokens, ~std::uint64_t{0});
    EXPECT_EQ(ok.requests[0].request.outputTokens, 8u);
}

// --- Session traces (v2) --------------------------------------------------

serve::ArrivalTrace
sampleSessionTrace(std::uint64_t seed = 5, std::size_t sessions = 6)
{
    serve::SessionOptions opts;
    opts.seed = seed;
    opts.sessions = sessions;
    opts.meanTurns = 3.0;
    opts.meanThinkMs = 150.0;
    opts.sessionsPerSec = 40.0;
    return serve::generateSessionTrace(opts);
}

TEST(TraceRoundtrip, SessionTraceUsesV2AndRoundtripsByteIdentically)
{
    ArrivalTrace trace = sampleSessionTrace();
    ASSERT_TRUE(trace.hasSessions());
    std::string once = serve::formatTrace(trace);
    EXPECT_EQ(once.rfind("ianus-arrival-trace v2\n", 0), 0u);
    ArrivalTrace parsed = serve::parseTrace(once);
    // Same golden-file anchor as v1: save -> load -> re-save is the
    // identity on bytes, session columns included.
    EXPECT_EQ(serve::formatTrace(parsed), once);
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed.requests[i].sessionId,
                  trace.requests[i].sessionId);
        EXPECT_EQ(parsed.requests[i].turnIndex,
                  trace.requests[i].turnIndex);
        EXPECT_EQ(parsed.requests[i].prefixTokens,
                  trace.requests[i].prefixTokens);
    }
}

TEST(TraceRoundtrip, TaglessTraceStillEmitsV1)
{
    // Single-turn traces keep the v1 bytes of every earlier PR — the
    // session columns appear only when a session tag exists.
    ArrivalTrace trace = sampleTrace(8);
    EXPECT_FALSE(trace.hasSessions());
    EXPECT_EQ(serve::formatTrace(trace).rfind("ianus-arrival-trace v1\n",
                                              0),
              0u);
}

TEST(TraceRoundtrip, V1RowsParseAsSingleTurn)
{
    ArrivalTrace parsed = serve::parseTrace(
        "ianus-arrival-trace v1\n2\n1.5 64 8\n2.5 128 16\n");
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_FALSE(parsed.hasSessions());
    for (const auto &t : parsed.requests) {
        EXPECT_EQ(t.sessionId, 0u);
        EXPECT_EQ(t.turnIndex, 0u);
        EXPECT_EQ(t.prefixTokens, 0u);
    }
}

TEST(TraceRoundtrip, ParseRejectsMalformedSessionColumns)
{
    auto v2 = [](const std::string &rows, std::size_t count) {
        return "ianus-arrival-trace v2\n" + std::to_string(count) +
               "\n" + rows;
    };
    // v2 rows need all six columns.
    EXPECT_THROW(serve::parseTrace(v2("1.5 64 8\n", 1)),
                 std::runtime_error);
    // Single-turn sentinel (session 0) with a session field set.
    EXPECT_THROW(serve::parseTrace(v2("1.5 64 8 0 1 0\n", 1)),
                 std::runtime_error);
    EXPECT_THROW(serve::parseTrace(v2("1.5 64 8 0 0 32\n", 1)),
                 std::runtime_error);
    // An opening turn inherits nothing.
    EXPECT_THROW(serve::parseTrace(v2("1.5 64 8 1 0 32\n", 1)),
                 std::runtime_error);
    // The prefix is a strict subset of the input.
    EXPECT_THROW(
        serve::parseTrace(v2("1.5 64 8 1 0 0\n2.5 64 8 1 1 64\n", 2)),
        std::runtime_error);
    // Turn indices must count 0,1,2,... per session in row order.
    EXPECT_THROW(serve::parseTrace(v2("1.5 64 8 1 1 0\n", 1)),
                 std::runtime_error);
    EXPECT_THROW(
        serve::parseTrace(v2("1.5 64 8 1 0 0\n2.5 96 8 1 2 32\n", 2)),
        std::runtime_error);
    // Negative session columns must not wrap modulo 2^64.
    EXPECT_THROW(serve::parseTrace(v2("1.5 64 8 -1 0 0\n", 1)),
                 std::runtime_error);
    // A well-formed two-turn session parses.
    ArrivalTrace ok = serve::parseTrace(
        v2("1.5 64 8 1 0 0\n2.5 104 8 1 1 72\n", 2));
    ASSERT_EQ(ok.size(), 2u);
    EXPECT_TRUE(ok.hasSessions());
    EXPECT_EQ(ok.requests[1].prefixTokens, 72u);
}

// One row per rule of the request-row contract that submit() enforces,
// each breaking it as the second row of a v2 file: fatal, with the row
// named and quoted ahead of the rule.
TEST(TraceRoundtrip, RowContractErrorsNameAndQuoteTheRow)
{
    const std::map<std::string, std::string> rule_of_row = {
        {"2.5 0 8 0 0 0", "at least one input token"},
        {"2.5 64 0 0 0 0", "at least one output token"},
        {"nan 64 8 0 0 0", "finite non-negative time"},
        {"0.5 64 8 0 0 0", "non-decreasing (got 0.5 ms after 1.5 ms)"},
        {"2.5 64 8 0 1 0", "session 0) cannot carry turn 1"},
        {"2.5 64 8 2 0 32", "turn 0 cannot carry a prefix of 32"},
        {"2.5 64 8 1 1 64", "each turn must add new prompt tokens"},
    };
    for (const auto &[row, rule] : rule_of_row) {
        const std::string text =
            "ianus-arrival-trace v2\n2\n1.5 64 8 1 0 0\n" + row + "\n";
        try {
            (void)serve::parseTrace(text);
            ADD_FAILURE() << "accepted '" << row << "'";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("arrival trace row 1 '" + row + "': "),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(rule), std::string::npos) << what;
        }
    }
}

TEST(TraceRoundtrip, SessionGeneratorIsSeedDeterministicAndWellFormed)
{
    ArrivalTrace a = sampleSessionTrace(21);
    ArrivalTrace b = sampleSessionTrace(21);
    EXPECT_EQ(serve::formatTrace(a), serve::formatTrace(b));
    EXPECT_NE(serve::formatTrace(a),
              serve::formatTrace(sampleSessionTrace(22)));

    // Well-formedness: sorted arrivals; per-session turn indices count
    // 0,1,2,... in row order; prefix k = input + output of turn k-1;
    // no input exceeds the context window.
    serve::SessionOptions opts;
    opts.seed = 21;
    opts.sessions = 6;
    opts.meanTurns = 3.0;
    opts.meanThinkMs = 150.0;
    opts.sessionsPerSec = 40.0;
    double prev = 0.0;
    std::map<std::uint64_t, std::uint64_t> nextTurn, nextPrefix;
    std::map<std::uint64_t, double> lastArrival;
    for (const auto &t : a.requests) {
        EXPECT_GE(t.arrivalMs, prev);
        prev = t.arrivalMs;
        ASSERT_NE(t.sessionId, 0u);
        EXPECT_EQ(t.turnIndex, nextTurn[t.sessionId]++);
        EXPECT_EQ(t.prefixTokens, nextPrefix[t.sessionId]);
        EXPECT_LT(t.prefixTokens, t.request.inputTokens);
        EXPECT_LE(t.request.inputTokens, opts.maxContextTokens);
        if (t.turnIndex > 0) {
            EXPECT_GT(t.arrivalMs, lastArrival[t.sessionId]);
        }
        lastArrival[t.sessionId] = t.arrivalMs;
        nextPrefix[t.sessionId] =
            t.request.inputTokens + t.request.outputTokens;
    }
    EXPECT_EQ(nextTurn.size(), 6u);
}

TEST(TraceRoundtrip, SessionGeneratorValidatesItsOptions)
{
    serve::SessionOptions opts;
    opts.sessions = 0;
    EXPECT_THROW(serve::generateSessionTrace(opts), std::runtime_error);
    opts = serve::SessionOptions{};
    opts.meanTurns = 0.5;
    EXPECT_THROW(serve::generateSessionTrace(opts), std::runtime_error);
    opts = serve::SessionOptions{};
    opts.meanThinkMs = 0.0;
    EXPECT_THROW(serve::generateSessionTrace(opts), std::runtime_error);
    opts = serve::SessionOptions{};
    opts.sessionsPerSec = 0.0;
    EXPECT_THROW(serve::generateSessionTrace(opts), std::runtime_error);
    opts = serve::SessionOptions{};
    opts.deltaTokenChoices = {1024};
    // A delta no opening turn could fit inside maxContextTokens.
    EXPECT_THROW(serve::generateSessionTrace(opts), std::runtime_error);
}

// --- Replay equivalence ---------------------------------------------------

TEST(TraceRoundtrip, ReplayedTraceReportMatchesInMemoryTrace)
{
    ArrivalTrace trace = sampleTrace(24, 42);
    std::string path = tempPath("replay.trace");
    serve::saveTrace(trace, path);
    ArrivalTrace loaded = serve::loadTrace(path);
    std::remove(path.c_str());

    auto drain = [&](const ArrivalTrace &t) {
        serve::PoolOptions popts;
        popts.replicas = 2;
        serve::DevicePool pool(SystemConfig::ianusDefault(), m, popts);
        serve::ServingOptions opts;
        opts.batching = serve::BatchingMode::Continuous;
        opts.maxBatch = 4;
        serve::ServingEngine engine(pool, opts,
                                    serve::makePolicy("sjf"),
                                    serve::makeRouter("predicted-finish"));
        serve::submitAll(t, engine);
        return engine.drain();
    };
    serve::ServingReport a = drain(trace);
    serve::ServingReport b = drain(loaded);
    ASSERT_EQ(a.requests(), b.requests());
    for (std::size_t i = 0; i < a.requests(); ++i) {
        EXPECT_EQ(a.results[i].id, b.results[i].id);
        EXPECT_EQ(a.results[i].deviceIndex, b.results[i].deviceIndex);
        EXPECT_EQ(a.results[i].startMs, b.results[i].startMs);
        EXPECT_EQ(a.results[i].finishMs, b.results[i].finishMs);
        EXPECT_EQ(a.results[i].firstTokenMs, b.results[i].firstTokenMs);
    }
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
}

// --- Closed loop ----------------------------------------------------------

serve::ClosedLoopResult
closedLoopSession(std::uint64_t seed,
                  const std::string &policy = "fcfs")
{
    serve::PoolOptions popts;
    popts.replicas = 2;
    serve::DevicePool pool(SystemConfig::ianusDefault(), m, popts);
    serve::ServingEngine engine(pool, serve::ServingOptions{},
                                serve::makePolicy(policy));
    ClosedLoopOptions opts;
    opts.seed = seed;
    opts.clients = 3;
    opts.requestsPerClient = 4;
    opts.meanThinkMs = 20.0;
    opts.inputTokenChoices = {64, 128};
    opts.outputTokenChoices = {2, 4, 8};
    return serve::runClosedLoop(engine, opts);
}

TEST(TraceRoundtrip, ClosedLoopCompletesEveryClientRequest)
{
    serve::ClosedLoopResult res = closedLoopSession(7);
    EXPECT_EQ(res.report.requests(), 12u); // 3 clients x 4 requests
    EXPECT_EQ(res.realized.size(), 12u);
    // The realized trace is a valid open-loop trace: non-decreasing
    // arrivals, round-trippable through the text format.
    double prev = 0.0;
    for (const auto &t : res.realized.requests) {
        EXPECT_GE(t.arrivalMs, prev);
        prev = t.arrivalMs;
    }
    std::string text = serve::formatTrace(res.realized);
    EXPECT_EQ(serve::formatTrace(serve::parseTrace(text)), text);
}

TEST(TraceRoundtrip, ClosedLoopArrivalsFollowCompletions)
{
    serve::ClosedLoopResult res = closedLoopSession(7);
    // Each client's k-th arrival (k > 1) must strictly follow some
    // earlier completion: with 3 clients, at most 3 requests can ever
    // be in flight, so the 4th arrival is later than the 1st finish.
    std::vector<double> finishes;
    for (const auto &r : res.report.results)
        finishes.push_back(r.finishMs);
    std::sort(finishes.begin(), finishes.end());
    EXPECT_GT(res.realized.requests[3].arrivalMs, finishes.front());
}

TEST(TraceRoundtrip, ClosedLoopIsSeedDeterministicAcrossRuns)
{
    serve::ClosedLoopResult a = closedLoopSession(11);
    serve::ClosedLoopResult b = closedLoopSession(11);
    // Bit-identical realized traces...
    EXPECT_EQ(serve::formatTrace(a.realized),
              serve::formatTrace(b.realized));
    // ...and bit-identical reports.
    ASSERT_EQ(a.report.requests(), b.report.requests());
    for (std::size_t i = 0; i < a.report.requests(); ++i) {
        EXPECT_EQ(a.report.results[i].id, b.report.results[i].id);
        EXPECT_EQ(a.report.results[i].finishMs,
                  b.report.results[i].finishMs);
        EXPECT_EQ(a.report.results[i].deviceIndex,
                  b.report.results[i].deviceIndex);
    }
    EXPECT_EQ(a.report.makespanMs, b.report.makespanMs);

    serve::ClosedLoopResult c = closedLoopSession(12);
    EXPECT_NE(serve::formatTrace(a.realized),
              serve::formatTrace(c.realized));
}

TEST(TraceRoundtrip, ClosedLoopThrottlesWithThePool)
{
    // The defining closed-loop property: a slower pool sees *later*
    // arrivals for the same seed, because clients wait for completions.
    auto horizon = [&](const SystemConfig &cfg) {
        serve::DevicePool pool;
        pool.addReplica(
            std::make_unique<serve::CompiledModel>(cfg, m));
        serve::ServingEngine engine(pool);
        ClosedLoopOptions opts;
        opts.seed = 3;
        opts.clients = 2;
        opts.requestsPerClient = 3;
        opts.meanThinkMs = 5.0;
        opts.inputTokenChoices = {128};
        opts.outputTokenChoices = {8};
        return serve::runClosedLoop(engine, opts).realized.horizonMs();
    };
    EXPECT_LT(horizon(SystemConfig::ianusDefault()),
              horizon(SystemConfig::npuMem()));
}

TEST(TraceRoundtrip, ClosedLoopValidatesItsOptions)
{
    serve::DevicePool pool;
    pool.addReplica(std::make_unique<serve::CompiledModel>(
        SystemConfig::ianusDefault(), m));
    serve::ServingEngine engine(pool);
    ClosedLoopOptions opts;
    opts.clients = 0;
    EXPECT_THROW(serve::runClosedLoop(engine, opts), std::runtime_error);
    opts = ClosedLoopOptions{};
    opts.requestsPerClient = 0;
    EXPECT_THROW(serve::runClosedLoop(engine, opts), std::runtime_error);
    opts = ClosedLoopOptions{};
    opts.meanThinkMs = -1.0;
    EXPECT_THROW(serve::runClosedLoop(engine, opts), std::runtime_error);
    opts = ClosedLoopOptions{};
    opts.inputTokenChoices.clear();
    EXPECT_THROW(serve::runClosedLoop(engine, opts), std::runtime_error);
    // A non-empty queue would tangle foreign requests into the session.
    engine.submit({64, 2});
    EXPECT_THROW(serve::runClosedLoop(engine, ClosedLoopOptions{}),
                 std::runtime_error);
}

TEST(TraceRoundtrip, InjectOutsideADrainIsFatal)
{
    serve::DevicePool pool;
    pool.addReplica(std::make_unique<serve::CompiledModel>(
        SystemConfig::ianusDefault(), m));
    serve::ServingEngine engine(pool);
    EXPECT_THROW(engine.inject({64, 2}, 0.0), std::runtime_error);
}

/** A policy that breaks the selectBatch contract, making drain throw. */
struct ThrowingPolicy : serve::SchedulingPolicy
{
    const char *name() const override { return "throwing"; }
    std::vector<std::size_t>
    selectBatch(const std::vector<serve::QueuedRequest> &,
                const serve::SchedulerContext &) override
    {
        return {};
    }
};

TEST(TraceRoundtrip, InjectAfterAThrowingDrainIsStillFatal)
{
    serve::DevicePool pool;
    pool.addReplica(std::make_unique<serve::CompiledModel>(
        SystemConfig::ianusDefault(), m));
    serve::ServingEngine engine(pool, serve::ServingOptions{},
                                std::make_unique<ThrowingPolicy>());
    engine.submit({64, 2});
    EXPECT_THROW((void)engine.drain(), std::runtime_error);
    // The aborted drain's injector (which captured its now-destroyed
    // locals) must be gone: inject fails cleanly, not via a dangling
    // callable.
    EXPECT_THROW(engine.inject({64, 2}, 0.0), std::runtime_error);
}

} // namespace
