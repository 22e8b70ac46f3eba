/** @file ServingEngine: FCFS replay, determinism, percentile math. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "serve/drain.hh"
#include "serve/serving_engine.hh"

namespace
{

using namespace ianus;
using serve::ServingReport;
using workloads::InferenceRequest;

workloads::ModelConfig m = workloads::gpt2("m");

serve::ServingReport
runMix(const serve::CompiledModel &model,
       const std::vector<InferenceRequest> &mix,
       serve::ServingOptions opts = {})
{
    serve::ServingEngine engine(model, opts);
    for (const auto &req : mix)
        engine.submit(req);
    return engine.drain();
}

TEST(ServingEngine, FcfsPreservesSubmissionOrder)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    std::vector<InferenceRequest> mix = {{64, 4}, {128, 1}, {64, 8}};
    ServingReport rep = runMix(model, mix);
    ASSERT_EQ(rep.requests(), 3u);
    for (std::size_t i = 0; i < mix.size(); ++i) {
        EXPECT_EQ(rep.results[i].id, i);
        EXPECT_EQ(rep.results[i].request.inputTokens,
                  mix[i].inputTokens);
        EXPECT_EQ(rep.results[i].request.outputTokens,
                  mix[i].outputTokens);
    }
    EXPECT_EQ(rep.policy, "fcfs");
}

TEST(ServingEngine, DeterministicAcrossRuns)
{
    std::vector<InferenceRequest> mix = {{64, 4}, {128, 8}, {64, 4},
                                         {256, 2}};
    serve::CompiledModel a(SystemConfig::ianusDefault(), m);
    serve::CompiledModel b(SystemConfig::ianusDefault(), m);
    ServingReport ra = runMix(a, mix);
    ServingReport rb = runMix(b, mix);
    ASSERT_EQ(ra.requests(), rb.requests());
    for (std::size_t i = 0; i < ra.requests(); ++i) {
        EXPECT_EQ(ra.results[i].totalMs(), rb.results[i].totalMs());
        EXPECT_EQ(ra.results[i].firstTokenMs, rb.results[i].firstTokenMs);
        EXPECT_EQ(ra.results[i].msPerToken, rb.results[i].msPerToken);
    }
    EXPECT_EQ(ra.makespanMs, rb.makespanMs);
    EXPECT_EQ(ra.generatedTokens, rb.generatedTokens);
    EXPECT_EQ(ra.aggregate.commands, rb.aggregate.commands);
}

TEST(ServingEngine, MatchesCompiledModelRun)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    InferenceRequest req{64, 8};
    ServingReport rep = runMix(model, {req});
    ASSERT_EQ(rep.requests(), 1u);
    InferenceReport direct = model.run(req);
    const serve::RequestResult &r = rep.results[0];
    EXPECT_EQ(r.serviceMs, direct.totalMs());
    EXPECT_EQ(r.firstTokenMs, direct.summarizationMs());
    EXPECT_EQ(r.msPerToken, direct.msPerGeneratedToken());
    EXPECT_EQ(r.queueMs(), 0.0);
}

TEST(ServingEngine, QueueingDelaysLaterRequests)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    std::vector<InferenceRequest> mix = {{64, 4}, {64, 4}, {64, 4}};
    ServingReport rep = runMix(model, mix);
    // All arrive at t=0; the device is busy, so queueing delay grows.
    EXPECT_EQ(rep.results[0].queueMs(), 0.0);
    EXPECT_GT(rep.results[1].queueMs(), 0.0);
    EXPECT_GT(rep.results[2].queueMs(), rep.results[1].queueMs());
    // TTFT includes the wait.
    EXPECT_GT(rep.results[2].firstTokenMs, rep.results[0].firstTokenMs);
    // Makespan equals the sum of service times for a t=0 FCFS replay.
    double sum = 0.0;
    for (const auto &r : rep.results)
        sum += r.serviceMs;
    EXPECT_DOUBLE_EQ(rep.makespanMs, sum);
}

TEST(ServingEngine, ExplicitArrivalsIdleTheDevice)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingEngine engine(model);
    engine.submit({64, 4}, 0.0);
    engine.submit({64, 4}, 1e7); // arrives long after the first finishes
    ServingReport rep = engine.drain();
    EXPECT_EQ(rep.results[1].queueMs(), 0.0);
    EXPECT_EQ(rep.results[1].startMs, 1e7);
}

TEST(ServingEngine, SloMissRateCountsSlowTokens)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    std::vector<InferenceRequest> mix = {{64, 8}, {64, 8}};
    serve::ServingOptions strict;
    strict.sloMsPerToken = 1e-9; // everything misses
    ServingReport miss = runMix(model, mix, strict);
    EXPECT_DOUBLE_EQ(miss.sloMissRate(), 1.0);

    serve::ServingOptions loose;
    loose.sloMsPerToken = 1e9; // nothing misses
    ServingReport hit = runMix(model, mix, loose);
    EXPECT_DOUBLE_EQ(hit.sloMissRate(), 0.0);
    EXPECT_GT(hit.tokensPerSecond(), 0.0);
}

TEST(ServingEngine, RejectsInvalidSubmitsAndOptions)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingEngine engine(model);
    EXPECT_THROW(engine.submit({0, 8}), std::runtime_error);
    EXPECT_THROW(engine.submit({64, 0}), std::runtime_error);
    EXPECT_THROW(engine.submit({64, 4}, std::nan("")),
                 std::runtime_error);
    EXPECT_THROW(engine.submit({64, 4},
                               std::numeric_limits<double>::infinity()),
                 std::runtime_error);
    EXPECT_THROW(engine.submit({64, 4}, -1.0), std::runtime_error);
    engine.submit({64, 4}, 5.0);
    EXPECT_THROW(engine.submit({64, 4}, 1.0), std::runtime_error);

    serve::ServingOptions bad;
    bad.tokenStride = 0;
    EXPECT_THROW(serve::ServingEngine(model, bad), std::runtime_error);
    serve::ServingOptions bad_slo;
    bad_slo.sloMsPerToken = 0.0;
    EXPECT_THROW(serve::ServingEngine(model, bad_slo),
                 std::runtime_error);
}

TEST(ServingReport, PercentileMath)
{
    // Linear interpolation between closest ranks, p/100 * (n-1).
    std::vector<double> v = {40, 10, 20, 30}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, 0), 10.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, 100), 40.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, 50), 25.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, 25), 17.5);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, 75), 32.5);
    EXPECT_DOUBLE_EQ(ServingReport::percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile({7.0}, 99), 7.0);
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(i * 10.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(ten, 95), 95.5);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(ten, 99), 99.1);
}

TEST(ServingReport, PercentileContractAtTheEdges)
{
    // The documented contract (serving_engine.hh): empty input yields
    // 0.0 whatever p is; p outside [0, 100] clamps to the nearest
    // bound; a NaN p is fatal — even on empty input, since the caller
    // bug does not depend on what the vector happens to hold.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(ServingReport::percentile({}, -50), 0.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile({}, 250), 0.0);
    std::vector<double> v = {40, 10, 20, 30};
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, -1), 10.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, -1e9), 10.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, 101), 40.0);
    EXPECT_DOUBLE_EQ(ServingReport::percentile(v, 1e9), 40.0);
    EXPECT_THROW(ServingReport::percentile(v, nan), std::runtime_error);
    EXPECT_THROW(ServingReport::percentile({}, nan), std::runtime_error);
    EXPECT_THROW(ServingReport::percentiles(v, {50.0, nan}),
                 std::runtime_error);
    // Clamping holds through every derived percentile accessor.
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingEngine engine(model, serve::ServingOptions{});
    engine.submit({64, 4});
    ServingReport rep = engine.drain();
    EXPECT_DOUBLE_EQ(rep.latencyPercentile(-5), rep.latencyPercentile(0));
    EXPECT_DOUBLE_EQ(rep.ttftPercentile(400), rep.ttftPercentile(100));
}

TEST(ServingReport, BatchPercentilesShareOneSort)
{
    // percentiles() reads all ranks off one shared selection pass and
    // must agree with repeated single-percentile calls.
    std::vector<double> v = {40, 10, 20, 30};
    std::vector<double> ps = {0, 25, 50, 75, 95, 100};
    std::vector<double> batch = ServingReport::percentiles(v, ps);
    ASSERT_EQ(batch.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_DOUBLE_EQ(batch[i], ServingReport::percentile(v, ps[i]));
    EXPECT_TRUE(
        ServingReport::percentiles({}, {50, 99}) ==
        (std::vector<double>{0.0, 0.0}));
}

TEST(ServingReport, SelectedPercentilesMatchAFullSort)
{
    // percentiles() selects only the ranks its ps read; every value must
    // equal the closest-ranks interpolation over a fully sorted copy,
    // exactly. Small value ranges force heavy duplicates, and the p
    // lists are unsorted, repeated, and step past both bounds.
    auto readSorted = [](const std::vector<double> &v, double p) {
        if (v.empty())
            return 0.0;
        if (p <= 0.0)
            return v.front();
        if (p >= 100.0)
            return v.back();
        double rank = p / 100.0 * static_cast<double>(v.size() - 1);
        std::size_t lo = static_cast<std::size_t>(rank);
        double frac = rank - static_cast<double>(lo);
        if (lo + 1 >= v.size())
            return v.back();
        return v[lo] + frac * (v[lo + 1] - v[lo]);
    };
    auto reference = [&](std::vector<double> v, double p) {
        std::sort(v.begin(), v.end());
        return readSorted(v, p);
    };
    const std::vector<std::vector<double>> p_lists = {
        {50.0},
        {99.0, 50.0, 95.0, 50.0},
        {100.0, 0.0, 100.0, 0.0},
        {-25.0, 250.0, 99.9, 0.1, -1e9, 1e9},
        {95.0, 5.0, 95.0, 37.5, 62.5, 12.5, 87.5, 5.0},
        {99.99, 0.01, 33.3, 66.7, 100.0, 0.0, 50.0, -0.5}};
    std::mt19937 rng(20241017);
    std::vector<std::size_t> sizes = {1, 2, 3, 4, 5, 5000};
    std::uniform_int_distribution<std::size_t> size_dist(1, 5000);
    for (int i = 0; i < 40; ++i)
        sizes.push_back(size_dist(rng));
    for (std::size_t n : sizes) {
        // Between 1 and ~n/4 distinct values, halves included.
        std::uniform_int_distribution<int> value_dist(
            0, 1 + static_cast<int>(n / 4));
        std::vector<double> v(n);
        for (double &x : v)
            x = 0.5 * value_dist(rng);
        for (const std::vector<double> &ps : p_lists) {
            std::vector<double> got = ServingReport::percentiles(v, ps);
            ASSERT_EQ(got.size(), ps.size());
            for (std::size_t k = 0; k < ps.size(); ++k)
                EXPECT_EQ(got[k], reference(v, ps[k]))
                    << "n " << n << " p " << ps[k];
        }
        EXPECT_EQ(ServingReport::percentile(v, 42.0),
                  reference(v, 42.0))
            << "n " << n;
    }

    // A report's passes over its results run in slices: sizes below and
    // above the slice size (from twice it, a report takes one slice per
    // core by itself), and every forced slice count from 1 to 8, read
    // the same percentiles as a full sort and the same four counters as
    // a serial loop. Few distinct values make heavy duplicates; the ps
    // read ranks 0 and n - 1 and pairs of adjacent ranks.
    using serve::ResultCount;
    using serve::ResultSample;
    for (std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{5000},
                          serve::resultSliceRows + 3,
                          2 * serve::resultSliceRows + 5}) {
        ServingReport rep;
        rep.makespanMs = 1234.5;
        rep.results.resize(n);
        std::uniform_int_distribution<int> value_dist(0, 40);
        std::uint64_t slo = 0, deadline = 0, preempted = 0, good = 0;
        for (serve::RequestResult &r : rep.results) {
            r.arrivalMs = 0.5 * value_dist(rng);
            r.finishMs = r.arrivalMs + 0.25 * value_dist(rng);
            r.firstTokenMs = 0.5 * value_dist(rng);
            r.serviceMs = 0.125 * value_dist(rng);
            r.request.outputTokens = 1 + rng() % 64;
            r.sloMiss = rng() % 3 == 0;
            r.deadlineMiss = rng() % 2 == 0;
            r.preemptions = rng() % 3;
            slo += r.sloMiss;
            deadline += r.deadlineMiss;
            preempted += r.preemptions;
            good += r.deadlineMiss ? 0 : r.request.outputTokens;
        }
        const double last = static_cast<double>(n - 1);
        const std::size_t mid = n / 2;
        const std::vector<double> ps = {
            50.0, 0.0, 100.0, 99.0, 12.5,
            100.0 * static_cast<double>(mid) / std::max(last, 1.0),
            100.0 * static_cast<double>(mid + 1) / std::max(last, 1.0)};
        const std::map<ResultSample, double (*)(const serve::RequestResult &)>
            samples = {
                {ResultSample::Latency,
                 [](const serve::RequestResult &r) { return r.totalMs(); }},
                {ResultSample::Ttft,
                 [](const serve::RequestResult &r) {
                     return r.firstTokenMs;
                 }},
                {ResultSample::Service,
                 [](const serve::RequestResult &r) { return r.serviceMs; }}};
        std::map<ResultSample, std::vector<double>> want;
        for (const auto &[what, sample] : samples) {
            std::vector<double> sorted;
            for (const serve::RequestResult &r : rep.results)
                sorted.push_back(sample(r));
            std::sort(sorted.begin(), sorted.end());
            for (double p : ps)
                want[what].push_back(readSorted(sorted, p));
        }
        const std::map<ResultCount, std::uint64_t> counts = {
            {ResultCount::SloMisses, slo},
            {ResultCount::DeadlineMisses, deadline},
            {ResultCount::Preemptions, preempted},
            {ResultCount::GoodputTokens, good}};
        for (std::size_t k = 1; k <= 8; ++k) {
            for (const auto &[what, values] : want)
                EXPECT_EQ(serve::resultPercentiles(rep.results, what, ps, k),
                          values)
                    << "n " << n << " slices " << k;
            for (const auto &[what, count] : counts)
                EXPECT_EQ(serve::countResults(rep.results, what, k), count)
                    << "n " << n << " slices " << k;
        }
        // The public calls, on the slices the report picks by itself.
        EXPECT_EQ(rep.latencyPercentiles(ps), want[ResultSample::Latency]);
        EXPECT_EQ(rep.ttftPercentiles(ps), want[ResultSample::Ttft]);
        EXPECT_EQ(rep.serviceTimePercentile(99.0),
                  want[ResultSample::Service][3]);
        const double rows = static_cast<double>(n);
        EXPECT_EQ(rep.sloMissRate(), static_cast<double>(slo) / rows);
        EXPECT_EQ(rep.deadlineMissRate(),
                  static_cast<double>(deadline) / rows);
        EXPECT_EQ(rep.preemptions(), preempted);
        EXPECT_EQ(rep.sloGoodputTokensPerSec(),
                  static_cast<double>(good) / (rep.makespanMs / 1000.0));
    }
}

TEST(ServingReport, ServiceTimePercentileExcludesQueueing)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    std::vector<InferenceRequest> mix = {{64, 4}, {64, 4}, {64, 4}};
    ServingReport rep = runMix(model, mix);
    // Identical requests: every service-time percentile is the same,
    // while end-to-end latency grows with queueing.
    EXPECT_DOUBLE_EQ(rep.serviceTimePercentile(0),
                     rep.serviceTimePercentile(100));
    EXPECT_DOUBLE_EQ(rep.serviceTimePercentile(50),
                     rep.results[0].serviceMs);
    EXPECT_GT(rep.latencyPercentile(100), rep.serviceTimePercentile(100));
    std::vector<double> lat = rep.latencyPercentiles({50, 95, 99});
    EXPECT_DOUBLE_EQ(lat[0], rep.latencyPercentile(50));
    EXPECT_DOUBLE_EQ(lat[2], rep.latencyPercentile(99));
    std::vector<double> ttft = rep.ttftPercentiles({50});
    EXPECT_DOUBLE_EQ(ttft[0], rep.ttftPercentile(50));
}

TEST(ServingReport, AggregateStatsAccumulate)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    ServingReport one = runMix(model, {{64, 4}});
    ServingReport two = runMix(model, {{64, 4}, {64, 4}});
    EXPECT_DOUBLE_EQ(two.aggregate.commands, 2 * one.aggregate.commands);
    EXPECT_DOUBLE_EQ(two.aggregate.muFlops, 2 * one.aggregate.muFlops);
    EXPECT_EQ(two.generatedTokens, 2 * one.generatedTokens);
}

TEST(ServingEngine, DrainResetsTheArrivalClock)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingEngine engine(model);
    engine.submit({64, 2}, 5.0);
    engine.drain();
    // A default (arrival 0) submit is valid again after a drain.
    EXPECT_NO_THROW(engine.submit({64, 2}));
    ServingReport rep = engine.drain();
    EXPECT_EQ(rep.requests(), 1u);
}

TEST(ServingEngine, DrainEmptiesTheQueue)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingEngine engine(model);
    engine.submit({64, 2});
    engine.submit({64, 2});
    EXPECT_EQ(engine.pending(), 2u);
    engine.drain();
    EXPECT_EQ(engine.pending(), 0u);
    ServingReport empty = engine.drain();
    EXPECT_EQ(empty.requests(), 0u);
}

} // namespace
