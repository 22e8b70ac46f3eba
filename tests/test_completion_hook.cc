/**
 * @file Per-request cost after the slim RequestResult: results keep no
 * RunStats, so the completion hook is where each request's attribution
 * is seen. Served alone it must be exactly CompiledModel::run's report;
 * on the segment path (batching, disaggregated handoffs) the hook must
 * still fire once per request; and on both paths the fleet aggregate
 * is bitwise the completion-order sum of what the hook saw.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "serve/device_pool.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

workloads::ModelConfig model = workloads::gpt2("m");

// RunStats is a Tick followed by doubles, with no padding, so equal
// bytes mean every field holds the same bits.
static_assert(sizeof(RunStats) ==
                  sizeof(Tick) +
                      sizeof(double) * (3 * RunStats::numClasses +
                                        RunStats::numUnits + 10),
              "RunStats changed: sameBits() would read padding");

bool
sameBits(const RunStats &a, const RunStats &b)
{
    return std::memcmp(&a, &b, sizeof(RunStats)) == 0;
}

/** What one completion-hook call saw. */
struct Seen
{
    RequestResult res;
    InferenceReport stats;
};

/** Drain @p trace on @p engine, recording every hook call. */
ServingReport
drainSeeing(ServingEngine &engine, const ArrivalTrace &trace,
            std::vector<Seen> &seen)
{
    engine.setCompletionHook(
        [&seen](const RequestResult &r, const InferenceReport &s) {
            seen.push_back({r, s});
        });
    submitAll(trace, engine);
    return engine.drain();
}

ArrivalTrace
smallTrace(std::uint64_t seed)
{
    TraceOptions topts;
    topts.seed = seed;
    topts.requests = 24;
    topts.arrivalsPerSec = 300.0;
    topts.inputTokenChoices = {32, 64, 128};
    topts.outputTokenChoices = {1, 4, 16};
    return generatePoissonTrace(topts);
}

/** The hook saw every result, once, in completion order, and the
 *  report's aggregate is bitwise the ordered sum of its stats. */
void
expectHookCoversTheReport(const ServingReport &rep,
                          const std::vector<Seen> &seen)
{
    ASSERT_EQ(seen.size(), rep.requests());
    RunStats sum;
    std::set<std::uint64_t> ids;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        const Seen &s = seen[i];
        EXPECT_EQ(s.res.id, rep.results[i].id) << i;
        EXPECT_EQ(s.res.finishMs, rep.results[i].finishMs) << i;
        EXPECT_EQ(s.res.generationSteps, s.stats.generationSteps) << i;
        EXPECT_EQ(s.stats.inputTokens, s.res.request.inputTokens) << i;
        EXPECT_EQ(s.stats.outputTokens, s.res.request.outputTokens) << i;
        ids.insert(s.res.id);
        sum.merge(s.stats.combined());
    }
    EXPECT_EQ(ids.size(), seen.size());
    EXPECT_TRUE(sameBits(rep.aggregate, sum));
}

TEST(RequestResult, StaysSlim)
{
    // The per-request record a million-request drain holds: scalars
    // only. Its per-request InferenceReport (two RunStats) is gone.
    static_assert(sizeof(RequestResult) <= 200,
                  "RequestResult grew past its 200-byte budget");
    EXPECT_LE(sizeof(RequestResult), 200u);
}

TEST(CompletionHook, UnbatchedStatsEqualCompiledModelRun)
{
    // Two different devices, so a request's cost depends on where it
    // ran; a stride > 1 exercises run()'s trapezoid integration.
    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model));
    ServingOptions opts;
    opts.tokenStride = 4;
    ServingEngine engine(pool, opts, makePolicy("fcfs"),
                         makeRouter("round-robin"));
    std::vector<Seen> seen;
    ServingReport rep = drainSeeing(engine, smallTrace(31), seen);

    expectHookCoversTheReport(rep, seen);
    std::set<std::size_t> devices;
    for (const Seen &s : seen) {
        devices.insert(s.res.deviceIndex);
        const InferenceReport want =
            pool.replica(s.res.deviceIndex)
                .run(s.res.request, opts.tokenStride);
        EXPECT_EQ(s.stats.inputTokens, want.inputTokens) << s.res.id;
        EXPECT_EQ(s.stats.outputTokens, want.outputTokens) << s.res.id;
        EXPECT_EQ(s.stats.generationSteps, want.generationSteps)
            << s.res.id;
        EXPECT_TRUE(sameBits(s.stats.summarization, want.summarization))
            << s.res.id;
        EXPECT_TRUE(sameBits(s.stats.generation, want.generation))
            << s.res.id;
        EXPECT_EQ(s.res.serviceMs, want.totalMs()) << s.res.id;
    }
    EXPECT_EQ(devices.size(), 2u);
}

TEST(CompletionHook, FiresOnTheSegmentPathThroughAHandoff)
{
    // A prefill replica hands every multi-token decoder request to the
    // decode replica; single-token requests finish at the prefill's LM
    // head and finalize locally. Continuous batching shares the decode
    // steps, so each request's generation stats are 1/B shares.
    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
                        SystemConfig::ianusDefault(), model),
                    ReplicaRole::Prefill);
    pool.addReplica(std::make_unique<CompiledModel>(
                        SystemConfig::ianusDefault(), model),
                    ReplicaRole::Decode);
    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 4;
    ServingEngine engine(pool, opts, makePolicy("fcfs"),
                         makeRouter("round-robin"));
    std::vector<Seen> seen;
    ServingReport rep = drainSeeing(engine, smallTrace(37), seen);

    expectHookCoversTheReport(rep, seen);
    std::size_t handed_off = 0, local = 0;
    for (const Seen &s : seen) {
        const RequestResult &r = s.res;
        // The whole prefill is this request's own, costed where it ran.
        EXPECT_TRUE(sameBits(
            s.stats.summarization,
            pool.replica(r.prefillIndex)
                .prefillChunkStats(0, r.request.inputTokens, true)))
            << r.id;
        EXPECT_EQ(s.stats.generationSteps, r.request.outputTokens - 1)
            << r.id;
        if (r.deviceIndex != r.prefillIndex) {
            ++handed_off;
            EXPECT_EQ(r.prefillIndex, 0u) << r.id;
            EXPECT_EQ(r.deviceIndex, 1u) << r.id;
            EXPECT_GT(s.stats.generation.wallTicks, 0u) << r.id;
        } else {
            ++local;
            EXPECT_EQ(r.request.outputTokens, 1u) << r.id;
        }
    }
    EXPECT_GT(handed_off, 0u);
    EXPECT_GT(local, 0u);
    EXPECT_EQ(rep.kvTransfers, handed_off);
}

} // namespace
