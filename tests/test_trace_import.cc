/** @file Production request-log import: CSV schema handling, timestamp
 *  styles, session reconstruction, and the non-stationary
 *  diurnal/bursty generators built on the same deterministic draw
 *  discipline. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "serve/device_pool.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using serve::ArrivalTrace;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

// --- CSV import -----------------------------------------------------------

TEST(TraceImport, NumericTimestampsSortAndRebase)
{
    // Out-of-order rows with a non-zero epoch: the importer sorts and
    // rebases so the first arrival is 0.
    ArrivalTrace t = serve::importRequestLog(
        "arrival_ms,prompt_tokens,output_tokens\n"
        "1500,128,8\n"
        "1000,64,16\n"
        "1250,256,32\n");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.requests[0].arrivalMs, 0.0);
    EXPECT_EQ(t.requests[0].request.inputTokens, 64u);
    EXPECT_EQ(t.requests[1].arrivalMs, 250.0);
    EXPECT_EQ(t.requests[1].request.inputTokens, 256u);
    EXPECT_EQ(t.requests[2].arrivalMs, 500.0);
    EXPECT_EQ(t.requests[2].request.outputTokens, 8u);
    EXPECT_FALSE(t.hasSessions());
}

TEST(TraceImport, CalendarTimestampsParseToMillisecondOffsets)
{
    // The Azure-style schema: calendar stamps with fractional seconds,
    // case-insensitive headers, extra columns ignored.
    ArrivalTrace t = serve::importRequestLog(
        "TIMESTAMP,ContextTokens,GeneratedTokens,Extra\n"
        "2023-11-16 18:00:00.000,128,32,x\n"
        "2023-11-16 18:00:00.500,64,16,y\n"
        "2023-11-16 18:00:02.250,176,24,z\n");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.requests[0].arrivalMs, 0.0);
    EXPECT_EQ(t.requests[1].arrivalMs, 500.0);
    EXPECT_EQ(t.requests[2].arrivalMs, 2250.0);
}

TEST(TraceImport, Iso8601TSeparatorAndZuluParse)
{
    ArrivalTrace t = serve::importRequestLog(
        "time,input_tokens,completion_tokens\n"
        "2024-02-29T00:00:00Z,64,8\n"
        "2024-02-29T00:00:01Z,64,8\n");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.requests[1].arrivalMs, 1000.0);
}

TEST(TraceImport, SessionIdsDensifyInFirstAppearanceOrder)
{
    ArrivalTrace t = serve::importRequestLog(
        "arrival_ms,prompt_tokens,output_tokens,session_id\n"
        "0,128,32,conv-b\n"
        "100,64,16,\n"
        "200,164,24,conv-b\n"
        "300,80,8,conv-a\n");
    ASSERT_EQ(t.size(), 4u);
    ASSERT_TRUE(t.hasSessions());
    EXPECT_EQ(t.requests[0].sessionId, 1u); // conv-b appears first
    EXPECT_EQ(t.requests[0].turnIndex, 0u);
    EXPECT_EQ(t.requests[1].sessionId, 0u); // blank = single-turn
    EXPECT_EQ(t.requests[2].sessionId, 1u);
    EXPECT_EQ(t.requests[2].turnIndex, 1u);
    EXPECT_EQ(t.requests[3].sessionId, 2u);
    EXPECT_EQ(t.requests[3].turnIndex, 0u);
}

TEST(TraceImport, PrefixInferenceFollowsTheConversation)
{
    // Turn 2's prompt (164) covers turn 1's input+output (128+32), so
    // the grown context is the shared prefix; turn 3's prompt (80)
    // does not cover 164+24 — a context reset, prefix 0.
    ArrivalTrace t = serve::importRequestLog(
        "arrival_ms,prompt_tokens,output_tokens,session_id\n"
        "0,128,32,s\n"
        "100,164,24,s\n"
        "200,80,8,s\n");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.requests[0].prefixTokens, 0u);
    EXPECT_EQ(t.requests[1].prefixTokens, 160u);
    EXPECT_EQ(t.requests[2].prefixTokens, 0u);
}

TEST(TraceImport, ReimportIsAPureFunctionOfTheFile)
{
    const std::string csv =
        "arrival_ms,prompt_tokens,output_tokens,session_id\n"
        "0,128,32,alpha\n"
        "50,64,16,beta\n"
        "90,164,24,alpha\n";
    ArrivalTrace a = serve::importRequestLog(csv);
    ArrivalTrace b = serve::importRequestLog(csv);
    EXPECT_EQ(serve::formatTrace(a), serve::formatTrace(b));
}

TEST(TraceImport, ImportedSessionsRoundTripThroughV2)
{
    ArrivalTrace t = serve::importRequestLog(
        "arrival_ms,prompt_tokens,output_tokens,conversation_id\n"
        "0,128,32,c1\n"
        "100,64,16,c2\n"
        "250,164,24,c1\n");
    ASSERT_TRUE(t.hasSessions());
    std::string text = serve::formatTrace(t);
    EXPECT_EQ(text.rfind("ianus-arrival-trace v2", 0), 0u);
    ArrivalTrace parsed = serve::parseTrace(text);
    EXPECT_EQ(serve::formatTrace(parsed), text);
    ASSERT_EQ(parsed.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(parsed.requests[i].sessionId, t.requests[i].sessionId);
        EXPECT_EQ(parsed.requests[i].turnIndex, t.requests[i].turnIndex);
        EXPECT_EQ(parsed.requests[i].prefixTokens,
                  t.requests[i].prefixTokens);
    }
}

TEST(TraceImport, MalformedLogsAreFatalWithRowNumbers)
{
    // No header / no rows.
    EXPECT_THROW(serve::importRequestLog(""), std::runtime_error);
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"),
        std::runtime_error);
    // Missing required columns.
    EXPECT_THROW(serve::importRequestLog("prompt_tokens,output_tokens\n"
                                         "64,8\n"),
                 std::runtime_error);
    EXPECT_THROW(serve::importRequestLog("arrival_ms,output_tokens\n"
                                         "0,8\n"),
                 std::runtime_error);
    EXPECT_THROW(serve::importRequestLog("arrival_ms,prompt_tokens\n"
                                         "0,64\n"),
                 std::runtime_error);
    // Unparsable timestamp, zero/negative tokens, short row.
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "soon,64,8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "0,0,8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "0,64,-8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "0,64\n"),
        std::runtime_error);
    // Non-finite timestamps name no instant.
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "nan,64,8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "inf,64,8\n"),
        std::runtime_error);
    // Mixing timestamp styles interleaves two unrelated clocks.
    EXPECT_THROW(
        serve::importRequestLog("timestamp,prompt_tokens,output_tokens\n"
                                "2023-11-16 18:00:00,64,8\n"
                                "1500,64,8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::importRequestLog("timestamp,prompt_tokens,output_tokens\n"
                                "1500,64,8\n"
                                "2023-11-16 18:00:00,64,8\n"),
        std::runtime_error);
    // Calendar stamps with impossible fields.
    EXPECT_THROW(
        serve::importRequestLog("timestamp,prompt_tokens,output_tokens\n"
                                "2023-13-01 00:00:00,64,8\n"),
        std::runtime_error);
    EXPECT_THROW(serve::loadRequestLog(tempPath("missing.csv")),
                 std::runtime_error);

    // A zero token count breaks the one shape rule every request meets,
    // and says so in its words, after the row number.
    struct Zero
    {
        const char *row;
        workloads::InferenceRequest shape;
    };
    for (const Zero &z : {Zero{"0,0,8\n", {0, 8}}, Zero{"0,64,0\n", {64, 0}}}) {
        try {
            serve::importRequestLog(
                std::string("arrival_ms,prompt_tokens,output_tokens\n") +
                "0,64,8\n" + z.row);
            ADD_FAILURE() << "no fatal for " << z.row;
        } catch (const std::runtime_error &e) {
            const std::string want =
                std::string("request log row 3: ") + serve::shapeError(z.shape);
            EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceImport, CrlfLogFatalsQuoteLinesWithoutTheCarriageReturn)
{
    // A fatal quotes the offending line as the log holds it, less its
    // CRLF line end: a header with no output column, and a short row.
    struct Case
    {
        const char *csv;
        const char *quoted;
    };
    for (const Case &c :
         {Case{"time,prompt_tokens\r\n0,64\r\n", "'time,prompt_tokens'"},
          Case{"time,prompt_tokens,output_tokens\r\n0,64\r\n",
               "'0,64'"}}) {
        try {
            serve::importRequestLog(c.csv);
            ADD_FAILURE() << "no fatal for " << c.quoted;
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_EQ(what.find('\r'), std::string::npos) << what;
            EXPECT_NE(what.find(c.quoted), std::string::npos) << what;
        }
    }
}

TEST(TraceImport, StrayCarriageReturnIsFatalInAHeaderAsInARow)
{
    // Only a stray mid-line '\r' reaches a header name (the CRLF line
    // end is stripped first). It no longer names a column, so a header
    // holding one is as fatal as a row holding one.
    try {
        serve::importRequestLog("ti\rme,prompt_tokens,output_tokens\n"
                                "0,64,8\n");
        ADD_FAILURE() << "no fatal for a '\\r' inside a header name";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("names no timestamp column"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(serve::importRequestLog("time,prompt_tokens,output_tokens\n"
                                         "0,\r64,8\n"),
                 std::runtime_error);
    // A CRLF log still imports.
    const ArrivalTrace ok = serve::importRequestLog(
        "time,prompt_tokens,output_tokens\r\n0,64,8\r\n");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok.requests[0].request.inputTokens, 64u);
    EXPECT_EQ(ok.requests[0].request.outputTokens, 8u);
}

TEST(TraceImport, TokenCountsRejectSignsHexAndOtherWhitespace)
{
    auto log = [](const std::string &rows) {
        return "arrival_ms,prompt_tokens,output_tokens\n" + rows;
    };
    // strtoull skipped the \f and took the '-', wrapping the prompt to
    // 2^64 - 64 tokens.
    EXPECT_THROW(serve::importRequestLog(log("0,\f-64,8\n")),
                 std::runtime_error);
    EXPECT_THROW(serve::importRequestLog(log("0,64,\v-8\n")),
                 std::runtime_error);
    for (const char *row :
         {"0,+64,8\n", "0,64,+8\n", "0,0x40,8\n", "0,\r64,8\n",
          "0,64,\v8\n", "0,18446744073709551616,8\n"})
        EXPECT_THROW(serve::importRequestLog(log(row)), std::runtime_error)
            << row;
    // Leading spaces and tabs, and a CRLF line end, still parse.
    ArrivalTrace ok = serve::importRequestLog(log("0, 64,\t8\r\n"));
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok.requests[0].request.inputTokens, 64u);
    EXPECT_EQ(ok.requests[0].request.outputTokens, 8u);
}

TEST(TraceImport, ImportedTimestampsStayFinite)
{
    // %lf reads "nan" seconds, and two finite stamps can lie further
    // apart than a double holds; either would leave a non-finite
    // arrival that parseTrace rejects.
    EXPECT_THROW(
        serve::importRequestLog("timestamp,prompt_tokens,output_tokens\n"
                                "2023-11-16 18:00:00,64,8\n"
                                "2023-11-16 18:00:nan,64,8\n"
                                "2023-11-16 18:00:05,64,8\n"),
        std::runtime_error);
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "-1e308,64,8\n"
                                "1e308,64,8\n"),
        std::runtime_error);
    // Nor does a NUL end a field early.
    using namespace std::string_literals;
    EXPECT_THROW(
        serve::importRequestLog("arrival_ms,prompt_tokens,output_tokens\n"
                                "1500\0junk,64,8\n"s),
        std::runtime_error);
}

TEST(TraceImport, PrefixInferenceDoesNotOverflow)
{
    // The prior turn's input + output wraps past 2^64 to 4 tokens:
    // no prefix fits, so the turn inherits none.
    ArrivalTrace t = serve::importRequestLog(
        "arrival_ms,prompt_tokens,output_tokens,session_id\n"
        "0,18446744073709551615,5,a\n"
        "10,10,5,a\n");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.requests[1].turnIndex, 1u);
    EXPECT_EQ(t.requests[1].prefixTokens, 0u);
}

TEST(TraceImport, LoadRequestLogReadsAFile)
{
    const std::string path = tempPath("import.csv");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("arrival_ms,prompt_tokens,output_tokens\r\n"
               "0,64,8\r\n"
               "100,128,16\r\n",
               f);
    std::fclose(f);
    ArrivalTrace t = serve::loadRequestLog(path);
    std::remove(path.c_str());
    ASSERT_EQ(t.size(), 2u); // CRLF rows parse like LF rows
    EXPECT_EQ(t.requests[1].arrivalMs, 100.0);
    EXPECT_EQ(t.requests[1].request.inputTokens, 128u);
}

TEST(TraceImport, ImportedLogDrainsDeterministically)
{
    ArrivalTrace t = serve::importRequestLog(
        "arrival_ms,prompt_tokens,output_tokens,session_id\n"
        "0,128,16,a\n"
        "20,64,8,\n"
        "45,160,16,a\n"
        "70,96,8,b\n"
        "95,120,16,b\n");
    serve::DevicePool pool;
    for (int i = 0; i < 2; ++i)
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), workloads::gpt2("m")));
    auto drain = [&] {
        serve::ServingOptions opts;
        serve::ServingEngine engine(pool, opts,
                                    serve::makePolicy("fcfs"),
                                    serve::makeRouter("round-robin"));
        serve::submitAll(t, engine);
        return engine.drain();
    };
    serve::ServingReport a = drain();
    serve::ServingReport b = drain();
    ASSERT_EQ(a.requests(), t.size());
    ASSERT_EQ(a.requests(), b.requests());
    for (std::size_t i = 0; i < a.requests(); ++i) {
        EXPECT_EQ(a.results[i].id, b.results[i].id);
        EXPECT_EQ(a.results[i].startMs, b.results[i].startMs);
        EXPECT_EQ(a.results[i].finishMs, b.results[i].finishMs);
        EXPECT_EQ(a.results[i].deviceIndex, b.results[i].deviceIndex);
    }
}

// --- Rate profiles --------------------------------------------------------

TEST(TraceImport, RateProfileGrammarParses)
{
    serve::RateProfile c = serve::parseRateProfile("const:25:60000");
    EXPECT_EQ(c.rateAt(0.0), 25.0);
    EXPECT_EQ(c.rateAt(59999.0), 25.0);
    EXPECT_EQ(c.rateAt(60000.0), 0.0); // past the day
    EXPECT_EQ(c.rateAt(-1.0), 0.0);
    EXPECT_EQ(c.peakRate(), 25.0);

    serve::RateProfile s =
        serve::parseRateProfile("sin:20:10:1000:4000");
    EXPECT_EQ(s.peakRate(), 30.0);
    EXPECT_NEAR(s.rateAt(250.0), 30.0, 1e-9); // quarter period = crest
    EXPECT_NEAR(s.rateAt(750.0), 10.0, 1e-9); // trough stays positive

    serve::RateProfile st =
        serve::parseRateProfile("steps:3000:10,40,10");
    EXPECT_EQ(st.rateAt(0.0), 10.0);
    EXPECT_EQ(st.rateAt(1500.0), 40.0);
    EXPECT_EQ(st.rateAt(2999.0), 10.0);
    EXPECT_EQ(st.peakRate(), 40.0);
}

TEST(TraceImport, RateProfileGrammarRejectsNonsense)
{
    EXPECT_THROW(serve::parseRateProfile(""), std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("ramp:1:2"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("const:25"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("const:0:1000"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("const:25:0"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("const:abc:1000"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("sin:20:30:1000:4000"),
                 std::runtime_error); // amplitude > base goes negative
    EXPECT_THROW(serve::parseRateProfile("sin:20:5:0:4000"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("steps:1000:"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("steps:1000:0,0"),
                 std::runtime_error);
    EXPECT_THROW(serve::parseRateProfile("steps:1000:10,-5"),
                 std::runtime_error);
}

// --- Non-stationary generators --------------------------------------------

TEST(TraceImport, DiurnalTraceIsSeedDeterministic)
{
    serve::DiurnalOptions opts;
    opts.seed = 5;
    opts.profile = serve::parseRateProfile("steps:6000:10,50,10");
    ArrivalTrace a = serve::generateDiurnalTrace(opts);
    ArrivalTrace b = serve::generateDiurnalTrace(opts);
    EXPECT_EQ(serve::formatTrace(a), serve::formatTrace(b));
    opts.seed = 6;
    EXPECT_NE(serve::formatTrace(serve::generateDiurnalTrace(opts)),
              serve::formatTrace(a));
}

TEST(TraceImport, DiurnalTraceFollowsTheProfile)
{
    serve::DiurnalOptions opts;
    opts.seed = 9;
    opts.profile = serve::parseRateProfile("steps:30000:10,60,10");
    ArrivalTrace t = serve::generateDiurnalTrace(opts);
    std::size_t counts[3] = {0, 0, 0};
    double prev = 0.0;
    for (const serve::TimedRequest &r : t.requests) {
        ASSERT_GE(r.arrivalMs, prev);
        prev = r.arrivalMs;
        ASSERT_LT(r.arrivalMs, 30000.0);
        counts[static_cast<std::size_t>(r.arrivalMs / 10000.0)] += 1;
    }
    // Peak window offers 6x the shoulders; 3x realized is a generous
    // bound that fails only if the thinning is broken.
    EXPECT_GT(counts[1], 3 * counts[0]);
    EXPECT_GT(counts[1], 3 * counts[2]);
}

TEST(TraceImport, BurstyTraceIsSeedDeterministicAndModulated)
{
    serve::BurstyOptions opts;
    opts.seed = 13;
    opts.durationMs = 30'000.0;
    opts.baseRate = 10.0;
    opts.burstRateRatio = 6.0;
    opts.meanBurstMs = 1'000.0;
    opts.meanGapMs = 4'000.0;
    ArrivalTrace a = serve::generateBurstyTrace(opts);
    ArrivalTrace b = serve::generateBurstyTrace(opts);
    EXPECT_EQ(serve::formatTrace(a), serve::formatTrace(b));
    ASSERT_GT(a.size(), 0u);
    double prev = 0.0;
    for (const serve::TimedRequest &r : a.requests) {
        ASSERT_GE(r.arrivalMs, prev);
        prev = r.arrivalMs;
        ASSERT_LT(r.arrivalMs, opts.durationMs);
    }
    // A modulated stream clusters: the realized count must exceed the
    // calm-only expectation (base x duration) — bursts add traffic.
    EXPECT_GT(static_cast<double>(a.size()),
              opts.baseRate * opts.durationMs / 1000.0);
}

TEST(TraceImport, GeneratorsValidateTheirOptions)
{
    serve::DiurnalOptions d;
    d.profile = serve::parseRateProfile("const:10:1000");
    d.inputTokenChoices.clear();
    EXPECT_THROW(serve::generateDiurnalTrace(d), std::runtime_error);
    d = serve::DiurnalOptions{};
    d.profile.kind = serve::RateProfile::Kind::Constant;
    d.profile.baseRate = 10.0;
    d.profile.durationMs = 0.0;
    EXPECT_THROW(serve::generateDiurnalTrace(d), std::runtime_error);
    d.profile.durationMs = 1000.0;
    d.profile.baseRate = 0.0;
    EXPECT_THROW(serve::generateDiurnalTrace(d), std::runtime_error);
    d.profile.baseRate = 10.0;
    d.startMs = -1.0;
    EXPECT_THROW(serve::generateDiurnalTrace(d), std::runtime_error);

    serve::BurstyOptions b;
    b.burstRateRatio = 0.5; // bursts must raise the rate
    EXPECT_THROW(serve::generateBurstyTrace(b), std::runtime_error);
    b = serve::BurstyOptions{};
    b.baseRate = 0.0;
    EXPECT_THROW(serve::generateBurstyTrace(b), std::runtime_error);
    b = serve::BurstyOptions{};
    b.meanGapMs = 0.0;
    EXPECT_THROW(serve::generateBurstyTrace(b), std::runtime_error);
    b = serve::BurstyOptions{};
    b.durationMs = 0.0;
    EXPECT_THROW(serve::generateBurstyTrace(b), std::runtime_error);
}

TEST(TraceImport, GeneratedTracesRoundTripThroughTheV1Format)
{
    serve::DiurnalOptions opts;
    opts.seed = 21;
    opts.profile = serve::parseRateProfile("sin:30:20:2000:8000");
    ArrivalTrace t = serve::generateDiurnalTrace(opts);
    ASSERT_GT(t.size(), 0u);
    std::string text = serve::formatTrace(t);
    EXPECT_EQ(text.rfind("ianus-arrival-trace v1", 0), 0u);
    EXPECT_EQ(serve::formatTrace(serve::parseTrace(text)), text);
}

} // namespace
