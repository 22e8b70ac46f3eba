/**
 * @file
 * Batched serving: the batched-step cost model (CompiledModel /
 * WorkloadBuilder) and the ServingEngine batching modes, anchored on
 * exact batch-1 equivalence with the unbatched path.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/workload_builder.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using serve::BatchingMode;
using serve::ServingReport;
using workloads::InferenceRequest;

workloads::ModelConfig m = workloads::gpt2("m");

serve::ServingOptions
batched(BatchingMode mode, std::size_t max_batch, unsigned stride = 1)
{
    serve::ServingOptions opts;
    opts.batching = mode;
    opts.maxBatch = max_batch;
    opts.tokenStride = stride;
    return opts;
}

const serve::RequestResult &
byId(const ServingReport &rep, std::uint64_t id)
{
    for (const auto &r : rep.results)
        if (r.id == id)
            return r;
    throw std::runtime_error("request missing from report");
}

// --- Cost model -----------------------------------------------------------

// The batch-of-one generation program is the scalar program: same
// commands, same order, same payloads. This is the regression anchor
// that keeps the batched cost model honest at its boundary.
TEST(Batching, BatchOfOneProgramMatchesScalarProgram)
{
    compiler::WorkloadBuilder builder(SystemConfig::ianusDefault(), m);
    isa::Program scalar = builder.buildGenerationToken(77);
    isa::Program batch = builder.buildGenerationBatch({77});
    ASSERT_EQ(scalar.size(), batch.size());
    for (std::uint32_t i = 0; i < scalar.size(); ++i) {
        const isa::Command &a = scalar.at(i);
        const isa::Command &b = batch.at(i);
        EXPECT_EQ(a.core, b.core);
        EXPECT_EQ(a.unit, b.unit);
        EXPECT_EQ(a.opClass, b.opClass);
        EXPECT_TRUE(std::ranges::equal(scalar.deps(a), batch.deps(b))) << i;
        EXPECT_EQ(a.describe(), b.describe());
    }
}

// generationStepStats({kv}) resolves to the same cache entry run()
// uses, so batch-1 numbers equal the unbatched path bit for bit.
TEST(Batching, BatchOfOneStatsShareTheScalarCacheEntry)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    // run({76, 2}) executes exactly one generation step at KV 77.
    InferenceReport rep = model.run({76, 2});
    const RunStats &step = model.generationStepStats({77});
    EXPECT_EQ(rep.generation.wallTicks, step.wallTicks);
    EXPECT_EQ(model.cacheStats().batchBuilds, 0u);
    EXPECT_GE(model.cacheStats().generationHits, 1u);
}

// A batched step amortizes shared FC weight traffic: two requests in
// one step cost less than two scalar steps, but no less than one.
TEST(Batching, BatchedStepCostsLessThanSerialSteps)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    const double one = model.generationStepStats({65}).wallMs();
    const double two = model.generationStepStats({65, 65}).wallMs();
    EXPECT_GT(two, one);
    EXPECT_LT(two, 2.0 * one);
}

// The cache key is the sorted KV-length multiset: request order within
// a batch never changes the cost, and the reordered lookup hits.
TEST(Batching, BatchKeyIsTheSortedMultiset)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    RunStats ab = model.generationStepStats({65, 129});
    EXPECT_EQ(model.cacheStats().batchBuilds, 1u);
    RunStats ba = model.generationStepStats({129, 65});
    EXPECT_EQ(model.cacheStats().batchBuilds, 1u);
    EXPECT_EQ(model.cacheStats().batchHits, 1u);
    EXPECT_EQ(model.cacheStats().batchEvictions, 0u);
    EXPECT_EQ(ab.wallTicks, ba.wallTicks);
    EXPECT_EQ(ab.commands, ba.commands);
    EXPECT_EQ(model.cachedPrograms(), 1u);
}

TEST(Batching, StepValidation)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    EXPECT_THROW((void)model.generationStepStats({}),
                 std::runtime_error);
    EXPECT_THROW((void)model.generationStepStats({64, 0}),
                 std::runtime_error);
    EXPECT_THROW((void)model.generationStepStats({64}, 0),
                 std::runtime_error);
}

// --- Engine: batch-1 equivalence ------------------------------------------

// --max-batch=1 forces the legacy whole-request service path through
// the new dispatch machinery: continuous mode at batch 1 reproduces
// the unbatched drain bit for bit, field by field.
TEST(Batching, ContinuousMaxBatchOneMatchesLegacyBitForBit)
{
    serve::TraceOptions topts;
    topts.seed = 9;
    topts.requests = 10;
    topts.arrivalsPerSec = 2000.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 4, 8};
    serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);

    auto run = [&](serve::ServingOptions opts) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingEngine engine(model, opts);
        serve::submitAll(trace, engine);
        return engine.drain();
    };
    serve::ServingOptions legacy;
    legacy.tokenStride = 3;
    ServingReport a = run(legacy);
    ServingReport b = run(batched(BatchingMode::Continuous, 1, 3));

    ASSERT_EQ(a.requests(), b.requests());
    for (std::size_t i = 0; i < a.requests(); ++i) {
        const serve::RequestResult &ra = a.results[i];
        const serve::RequestResult &rb = b.results[i];
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.deviceIndex, rb.deviceIndex);
        EXPECT_EQ(ra.startMs, rb.startMs);
        EXPECT_EQ(ra.finishMs, rb.finishMs);
        EXPECT_EQ(ra.serviceMs, rb.serviceMs);
        EXPECT_EQ(ra.firstTokenMs, rb.firstTokenMs);
        EXPECT_EQ(ra.msPerToken, rb.msPerToken);
        EXPECT_EQ(ra.meanBatchSize, 1.0);
    }
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    ASSERT_EQ(b.replicas.size(), 1u);
    EXPECT_EQ(a.replicas[0].busyMs, b.replicas[0].busyMs);
    EXPECT_EQ(b.batching, "continuous");
    EXPECT_EQ(b.maxBatch, 1u);
}

// --- Engine: joins and leaves ---------------------------------------------

// A request arriving while the replica is mid-generation joins the
// running batch at a token boundary instead of waiting for the drain.
TEST(Batching, RequestJoinsARunningBatchMidGeneration)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    InferenceReport probe = model.run({64, 32});
    // Arrive after the first request's prefill plus a little of its
    // generation: the batch is mid-flight, far from finishing.
    double mid = probe.summarizationMs() + probe.generationMs() / 8.0;

    serve::ServingEngine engine(model,
                                batched(BatchingMode::Continuous, 2));
    engine.submit({64, 32}, 0.0);
    engine.submit({64, 4}, mid);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 2u);

    const serve::RequestResult &joiner = byId(rep, 1);
    const serve::RequestResult &first = byId(rep, 0);
    // All three of the joiner's generation steps ran at batch 2; the
    // long request ran some steps alone and some shared.
    EXPECT_EQ(joiner.meanBatchSize, 2.0);
    EXPECT_GT(first.meanBatchSize, 1.0);
    EXPECT_LT(first.meanBatchSize, 2.0);
    // The joiner finishes while the long request is still generating.
    EXPECT_LT(joiner.finishMs, first.finishMs);
    EXPECT_EQ(rep.results.back().id, 0u);
}

// When the batch shrinks, the survivors keep generating — down to the
// last request running alone at scalar-step cost.
TEST(Batching, LastRequestFinishesAShrinkingBatchAlone)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingEngine engine(model, batched(BatchingMode::Static, 2));
    engine.submit({64, 2}, 0.0); // 1 generation step, leaves first
    engine.submit({64, 6}, 0.0); // 5 steps, finishes alone
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 2u);
    EXPECT_EQ(rep.results[0].id, 0u);
    EXPECT_EQ(rep.results[1].id, 1u);
    // The short request ran its single step at batch 2; the long one
    // ran 1 step shared + 4 alone: (1*2 + 4*1) / 5.
    EXPECT_EQ(byId(rep, 0).meanBatchSize, 2.0);
    EXPECT_EQ(byId(rep, 1).meanBatchSize, 1.2);
    EXPECT_GT(byId(rep, 0).generationSteps, 0u);
}

// Static batching seals membership: a late request waits for the
// replica to drain; continuous batching lets it join.
TEST(Batching, StaticSealsTheBatchContinuousToppsItUp)
{
    serve::CompiledModel probe_model(SystemConfig::ianusDefault(), m);
    InferenceReport probe = probe_model.run({64, 4});
    // Arrives after both prefills, during batched generation (batched
    // steps cost at least as much as the scalar steps probed here).
    double late = 2.0 * probe.summarizationMs() +
                  probe.generationMs() / 3.0;

    auto run = [&](BatchingMode mode) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingEngine engine(model, batched(mode, 4));
        engine.submit({64, 4}, 0.0);
        engine.submit({64, 4}, 0.0);
        engine.submit({64, 4}, late);
        return engine.drain();
    };

    ServingReport st = run(BatchingMode::Static);
    const serve::RequestResult &sealed_out = byId(st, 2);
    EXPECT_EQ(sealed_out.meanBatchSize, 1.0);
    EXPECT_GE(sealed_out.startMs, byId(st, 0).finishMs);
    EXPECT_GE(sealed_out.startMs, byId(st, 1).finishMs);

    ServingReport ct = run(BatchingMode::Continuous);
    EXPECT_GT(byId(ct, 2).meanBatchSize, 1.0);
    EXPECT_LT(byId(ct, 2).finishMs, sealed_out.finishMs);
}

// --- Engine: fleet accounting ---------------------------------------------

TEST(Batching, BatchedPoolAccountingStaysConsistent)
{
    serve::PoolOptions popts;
    popts.replicas = 2;
    serve::DevicePool pool(SystemConfig::ianusDefault(), m, popts);
    serve::ServingEngine engine(pool,
                                batched(BatchingMode::Continuous, 2, 2));
    for (int i = 0; i < 6; ++i)
        engine.submit({64, 4}, 0.0);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 6u);

    std::uint64_t dispatched = 0;
    for (const auto &u : rep.replicas) {
        dispatched += u.dispatched;
        EXPECT_GE(u.utilization, 0.0);
        EXPECT_LE(u.utilization, 1.0);
        EXPECT_DOUBLE_EQ(u.busyMs + u.idleMs, rep.makespanMs);
    }
    EXPECT_EQ(dispatched, 6u);
    EXPECT_GT(rep.meanBatchOccupancy(), 1.0);
    EXPECT_LE(rep.meanBatchOccupancy(), 2.0);
    for (const auto &r : rep.results) {
        EXPECT_GT(r.generationSteps, 0u);
        EXPECT_GE(r.firstTokenMs, 0.0);
        EXPECT_GE(r.serviceMs, 0.0);
        EXPECT_EQ(r.request.outputTokens, 4u);
    }
    // Batching strictly beats the unbatched drain on the same burst.
    serve::DevicePool pool2(SystemConfig::ianusDefault(), m, popts);
    serve::ServingEngine legacy(pool2);
    for (int i = 0; i < 6; ++i)
        legacy.submit({64, 4}, 0.0);
    EXPECT_LT(rep.makespanMs, legacy.drain().makespanMs);
}

TEST(Batching, OptionValidation)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions bad;
    bad.maxBatch = 0;
    EXPECT_THROW(serve::ServingEngine(model, bad), std::runtime_error);
    bad.maxBatch = 2; // batching still None
    EXPECT_THROW(serve::ServingEngine(model, bad), std::runtime_error);

    EXPECT_EQ(serve::makeBatchingMode("none"), BatchingMode::None);
    EXPECT_EQ(serve::makeBatchingMode("static"), BatchingMode::Static);
    EXPECT_EQ(serve::makeBatchingMode("continuous"),
              BatchingMode::Continuous);
    EXPECT_THROW(serve::makeBatchingMode("dynamic"), std::runtime_error);
    EXPECT_STREQ(serve::toString(BatchingMode::Continuous), "continuous");
}

} // namespace
