/**
 * @file
 * Token-boundary scheduling v2: the chunked-prefill cost model
 * (WorkloadBuilder::buildSummarizationChunk / CompiledModel chunk
 * cache) and the ServingEngine's chunked prefill + preemption, anchored
 * on bit-identical fallback to the PR-3 segment loop when both are off.
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
chunked(std::uint64_t chunk, std::size_t max_batch = 2,
        unsigned stride = 1)
{
    serve::ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = max_batch;
    opts.tokenStride = stride;
    opts.prefillChunk = chunk;
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

void
expectIdentical(const ServingReport &a, const ServingReport &b)
{
    ASSERT_EQ(a.requests(), b.requests());
    for (std::size_t i = 0; i < a.requests(); ++i) {
        const serve::RequestResult &x = a.results[i];
        const serve::RequestResult &y = b.results[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.deviceIndex, y.deviceIndex);
        EXPECT_EQ(x.startMs, y.startMs);
        EXPECT_EQ(x.finishMs, y.finishMs);
        EXPECT_EQ(x.serviceMs, y.serviceMs);
        EXPECT_EQ(x.firstTokenMs, y.firstTokenMs);
        EXPECT_EQ(x.msPerToken, y.msPerToken);
        EXPECT_EQ(x.suspendedMs, y.suspendedMs);
        EXPECT_EQ(x.preemptions, y.preemptions);
    }
    EXPECT_EQ(a.makespanMs, b.makespanMs);
}

// --- Compiler: the chunk program ------------------------------------------

// The whole-prompt chunk IS the monolithic summarization program: same
// commands, same order, same payloads — the fallback anchor.
TEST(PrefillChunk, WholePromptChunkMatchesMonolithicProgram)
{
    compiler::WorkloadBuilder builder(SystemConfig::ianusDefault(), m);
    isa::Program mono = builder.buildSummarization(96);
    isa::Program chunk = builder.buildSummarizationChunk(0, 96, true);
    ASSERT_EQ(mono.size(), chunk.size());
    for (std::uint32_t i = 0; i < mono.size(); ++i) {
        const isa::Command &a = mono.at(i);
        const isa::Command &b = chunk.at(i);
        EXPECT_EQ(a.core, b.core);
        EXPECT_EQ(a.unit, b.unit);
        EXPECT_EQ(a.opClass, b.opClass);
        EXPECT_TRUE(std::ranges::equal(mono.deps(a), chunk.deps(b))) << i;
        EXPECT_EQ(a.describe(), b.describe());
    }
}

// A resumed chunk reloads the prior KV and widens attention, so it
// costs more than the same tokens summarized from scratch — but less
// than a monolithic prefill of the whole (prior + chunk) prompt.
TEST(PrefillChunk, ResumedChunkCostSitsBetweenFreshAndMonolithic)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    double fresh = model.prefillChunkStats(0, 128, false).wallMs();
    double resumed = model.prefillChunkStats(128, 128, false).wallMs();
    double mono = model.prefillChunkStats(0, 256, true).wallMs();
    EXPECT_GT(resumed, fresh);
    EXPECT_LT(resumed, mono);
}

// Chunk entries memoize by (prior, chunk, last); the whole-prompt
// chunk resolves to the summarization cache entry, not a new build.
TEST(PrefillChunk, ChunkEntriesMemoizeAndShareTheMonolithicEntry)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    const RunStats &whole = model.prefillChunkStats(0, 64, true);
    // The summarization entry, structurally: built once, then found.
    EXPECT_EQ(&model.prefillChunkStats(0, 64, true), &whole);
    EXPECT_EQ(model.cacheStats().summarizationBuilds, 1u);
    EXPECT_EQ(model.cacheStats().summarizationHits, 1u);
    EXPECT_EQ(model.cacheStats().chunkBuilds, 0u);

    (void)model.prefillChunkStats(64, 64, true);
    EXPECT_EQ(model.cacheStats().chunkBuilds, 1u);
    (void)model.prefillChunkStats(64, 64, true);
    EXPECT_EQ(model.cacheStats().chunkBuilds, 1u);
    EXPECT_EQ(model.cacheStats().chunkHits, 1u);
    // Same shape without the LM head is a distinct program.
    (void)model.prefillChunkStats(64, 64, false);
    EXPECT_EQ(model.cacheStats().chunkBuilds, 2u);
}

TEST(PrefillChunk, Validation)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    EXPECT_THROW((void)model.prefillChunkStats(0, 0, true),
                 std::runtime_error);
    // Encoder attention is bidirectional: no causal resume point.
    compiler::WorkloadBuilder bert_builder(SystemConfig::ianusDefault(),
                                           workloads::bert("l"));
    EXPECT_THROW((void)bert_builder.buildSummarizationChunk(64, 64, true),
                 std::runtime_error);
    EXPECT_THROW((void)bert_builder.buildSummarizationChunk(0, 64, false),
                 std::runtime_error);
}

// --- Engine: chunked prefill ----------------------------------------------

// A lone joiner's prefill runs as ceil(input / chunk) back-to-back
// segments whose stats sum to its summarization report, and TTFT is
// exactly the chunk sum (no residents to interleave with).
TEST(PrefillChunk, LoneRequestPrefillSplitsIntoChunks)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingEngine engine(model, chunked(128));
    engine.submit({512, 4}, 0.0);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 1u);
    const serve::RequestResult &r = rep.results[0];
    EXPECT_EQ(r.prefillChunks, 4u);

    double sum = 0.0;
    sum += model.prefillChunkStats(0, 128, false).wallMs();
    sum += model.prefillChunkStats(128, 128, false).wallMs();
    sum += model.prefillChunkStats(256, 128, false).wallMs();
    sum += model.prefillChunkStats(384, 128, true).wallMs();
    EXPECT_DOUBLE_EQ(r.firstTokenMs, sum);
    EXPECT_EQ(rep.prefillChunk, 128u);
}

// A chunk covering the whole prompt reproduces the monolithic drain
// bit for bit: the whole-prompt chunk shares the summarization cache
// entry and the segment loop takes the same decisions.
TEST(PrefillChunk, ChunkCoveringThePromptIsBitIdenticalToMonolithic)
{
    serve::TraceOptions topts;
    topts.seed = 5;
    topts.requests = 8;
    topts.arrivalsPerSec = 500.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 4, 8};
    serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);

    auto run = [&](std::uint64_t chunk) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingEngine engine(model, chunked(chunk, 4, 2));
        serve::submitAll(trace, engine);
        return engine.drain();
    };
    ServingReport mono = run(0);
    ServingReport whole = run(4096); // covers every prompt in one chunk
    expectIdentical(mono, whole);
    for (const auto &r : whole.results)
        EXPECT_EQ(r.prefillChunks, 1u);
}

// Encoders never chunk: bidirectional attention has no resume point,
// so the engine serves them monolithically whatever the option says.
TEST(PrefillChunk, EncoderPrefillStaysMonolithic)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(),
                               workloads::bert("l"));
    serve::ServingEngine engine(model, chunked(64));
    engine.submit({384, 1}, 0.0);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 1u);
    EXPECT_EQ(rep.results[0].prefillChunks, 1u);
}

// The TTFT mechanism: with SJF, a short prompt arriving mid-way
// through a long prompt's prefill jumps ahead at the next chunk
// boundary instead of waiting out the whole summarization.
TEST(PrefillChunk, ShortPromptJumpsTheLongPrefillAtAChunkBoundary)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    double mid = model.prefillChunkStats(0, 128, false).wallMs() / 2.0;

    auto run = [&](std::uint64_t chunk) {
        serve::ServingEngine engine(model, chunked(chunk, 4, 2),
                                    serve::makePolicy("sjf"));
        engine.submit({512, 4}, 0.0);
        engine.submit({64, 4}, mid);
        return engine.drain();
    };
    ServingReport mono = run(0);
    ServingReport ch = run(128);
    // Chunked, the short's first token beats the long's; monolithic,
    // the short waits for the whole 512-token summarization first.
    EXPECT_LT(byId(ch, 1).arrivalMs + byId(ch, 1).firstTokenMs,
              byId(ch, 0).firstTokenMs);
    EXPECT_LT(byId(ch, 1).firstTokenMs, byId(mono, 1).firstTokenMs);
}

// --- Engine: preemption ---------------------------------------------------

// EDF evicts the loose-deadline long generation at a token boundary;
// the urgent short runs to completion and the long resumes on the same
// replica at the KV length reached — no generation step is re-run.
TEST(Preempt, EdfEvictsLongGenerationAndResumesIt)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions opts;
    opts.preempt = true;
    opts.sloMsPerToken = 5.0;
    serve::ServingEngine engine(model, opts, serve::makePolicy("edf"));
    engine.submit({64, 300}, 0.0);
    double mid = model.prefillChunkStats(0, 64, true).wallMs() + 20.0;
    engine.submit({64, 4}, mid);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 2u);

    const serve::RequestResult &longr = byId(rep, 0);
    const serve::RequestResult &shortr = byId(rep, 1);
    EXPECT_EQ(longr.preemptions, 1u);
    EXPECT_EQ(shortr.preemptions, 0u);
    EXPECT_LT(shortr.finishMs, longr.finishMs);
    EXPECT_GT(longr.suspendedMs, 0.0);
    // Residency excludes the suspension; nothing was re-generated.
    EXPECT_DOUBLE_EQ(longr.serviceMs,
                     longr.finishMs - longr.startMs - longr.suspendedMs);
    EXPECT_EQ(longr.generationSteps, 299u);
    EXPECT_EQ(shortr.generationSteps, 3u);
    EXPECT_EQ(longr.deviceIndex, shortr.deviceIndex);
    EXPECT_EQ(rep.preemptions(), 1u);
    EXPECT_DOUBLE_EQ(rep.preemptionRate(), 0.5);
    EXPECT_TRUE(rep.preempt);
    // TTFT predates the eviction: preemption strikes generation only.
    EXPECT_DOUBLE_EQ(longr.firstTokenMs,
                     model.prefillChunkStats(0, 64, true).wallMs());
}

// FCFS urgency is arrival order: a waiting request can never be more
// urgent than a resident, so preempt=true is bit-inert under FCFS.
TEST(Preempt, FcfsPreemptIsBitInert)
{
    serve::TraceOptions topts;
    topts.seed = 13;
    topts.requests = 12;
    topts.arrivalsPerSec = 300.0;
    topts.outputTokenChoices = {4, 8, 64};
    serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);

    auto run = [&](bool preempt) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingOptions opts = chunked(0, 2, 2);
        opts.preempt = preempt;
        serve::ServingEngine engine(model, opts);
        serve::submitAll(trace, engine);
        return engine.drain();
    };
    ServingReport off = run(false);
    ServingReport on = run(true);
    expectIdentical(off, on);
    EXPECT_EQ(on.preemptions(), 0u);
}

// Preemption counts are deterministic: the same seeded trace replays
// to identical per-request eviction counts on a fresh engine.
TEST(Preempt, PreemptionCountsAreDeterministic)
{
    serve::TraceOptions topts;
    topts.seed = 11;
    topts.requests = 24;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {8, 8, 8, 256};
    topts.arrivalsPerSec = 60.0;
    serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);

    auto run = [&]() {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingOptions opts = chunked(0, 2, 4);
        opts.preempt = true;
        opts.sloMsPerToken = 4.0;
        serve::ServingEngine engine(model, opts,
                                    serve::makePolicy("edf"));
        serve::submitAll(trace, engine);
        return engine.drain();
    };
    ServingReport a = run();
    ServingReport b = run();
    expectIdentical(a, b);
    EXPECT_GT(a.preemptions(), 0u);
    EXPECT_EQ(a.preemptions(), b.preemptions());
}

// The deadline flag is finish vs arrival + SLO x output — the metric
// EDF schedules against, and the one preemption moves.
TEST(Preempt, DeadlineMissAccounting)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions opts;
    opts.sloMsPerToken = 10.0;
    serve::ServingEngine engine(model, opts);
    engine.submit({64, 4}, 0.0);
    engine.submit({64, 4}, 0.0); // queues behind the first
    ServingReport rep = engine.drain();
    for (const auto &r : rep.results) {
        bool late = r.finishMs >
                    r.arrivalMs +
                        opts.sloMsPerToken *
                            static_cast<double>(r.request.outputTokens);
        EXPECT_EQ(r.deadlineMiss, late);
    }
    double expected =
        (rep.results[0].deadlineMiss ? 0.5 : 0.0) +
        (rep.results[1].deadlineMiss ? 0.5 : 0.0);
    EXPECT_DOUBLE_EQ(rep.deadlineMissRate(), expected);
}

TEST(Preempt, StaticBatchingIsRejected)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions bad;
    bad.batching = BatchingMode::Static;
    bad.maxBatch = 2;
    bad.preempt = true;
    EXPECT_THROW(serve::ServingEngine(model, bad), std::runtime_error);
}

// --- Engine: KV capacity pressure -----------------------------------------

serve::KvOptions
kvQueue(std::uint64_t capacity, std::uint64_t block = 32)
{
    serve::KvOptions kv;
    kv.capacityTokens = capacity;
    kv.blockTokens = block;
    kv.admission = serve::KvAdmission::Queue;
    return kv;
}

// The eviction/park/resume cycle under capacity pressure. 384 tokens =
// 12 blocks of 32; the long request's worst case (64 + 300) reserves
// all 12, the short's (64 + 4) needs 3. With two batch slots the slot
// is never the constraint — only the block pool is:
//  - the short is KV-blocked until EDF evicts the long, whose parking
//    keeps its written KV charged but frees the un-grown headroom;
//  - the parked long cannot resume while the short holds blocks (its
//    worst-case re-reservation no longer fits) even though a batch
//    slot is open the whole time;
//  - the short's release unblocks the resume, and no request is lost.
TEST(KvCapacity, EvictParkResumeCycleUnderPressure)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions opts = chunked(0, 2, 1);
    opts.preempt = true;
    opts.sloMsPerToken = 5.0;
    opts.kv = kvQueue(384);

    auto run = [&](bool kv_on) {
        serve::ServingOptions o = opts;
        if (!kv_on)
            o.kv = serve::KvOptions{};
        serve::ServingEngine engine(model, o,
                                    serve::makePolicy("edf"));
        engine.submit({64, 300}, 0.0);
        double mid = model.prefillChunkStats(0, 64, true).wallMs() + 20.0;
        engine.submit({64, 4}, mid);
        return engine.drain();
    };

    // Without the capacity model both fit the 2-slot batch: nothing
    // ever evicts. The eviction below is purely KV-driven.
    ServingReport free_rep = run(false);
    EXPECT_EQ(free_rep.preemptions(), 0u);

    ServingReport rep = run(true);
    ASSERT_EQ(rep.requests(), 2u);
    const serve::RequestResult &longr = byId(rep, 0);
    const serve::RequestResult &shortr = byId(rep, 1);
    EXPECT_EQ(longr.preemptions, 1u);
    EXPECT_EQ(shortr.preemptions, 0u);
    EXPECT_LT(shortr.finishMs, longr.finishMs);
    // Resume waited for the short's blocks: the suspension covers the
    // short's entire residency.
    EXPECT_GE(longr.suspendedMs, shortr.serviceMs - 1e-9);
    // Nothing was re-generated, and nothing leaked.
    EXPECT_EQ(longr.generationSteps, 299u);
    EXPECT_EQ(shortr.generationSteps, 3u);
    ASSERT_EQ(rep.replicas.size(), 1u);
    EXPECT_EQ(rep.replicas[0].kvTokensEnd, 0u);
    EXPECT_EQ(rep.replicas[0].kvBlocksLeaked, 0u);
    EXPECT_EQ(rep.kvShed, 0u);
    EXPECT_GT(rep.kvPeakPressure, 0.9);
    EXPECT_TRUE(rep.kv.enabled());
}

// Queue admission without preemption: the blocked request simply waits
// in the ready queue until the resident's release frees its blocks.
TEST(KvCapacity, QueueAdmissionHoldsAtTheGate)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions opts = chunked(0, 2, 1);
    opts.kv = kvQueue(384);
    serve::ServingEngine engine(model, opts);
    engine.submit({64, 300}, 0.0);
    engine.submit({64, 4}, 0.0);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 2u);
    const serve::RequestResult &longr = byId(rep, 0);
    const serve::RequestResult &shortr = byId(rep, 1);
    // The short dispatched only after the long released its pool.
    EXPECT_GE(shortr.startMs, longr.finishMs - 1e-9);
    EXPECT_EQ(rep.preemptions(), 0u); // FCFS: waiting, not evicting
    EXPECT_EQ(rep.replicas[0].kvTokensEnd, 0u);
}

// Shed admission drops what it cannot place, and the report says so.
TEST(KvCapacity, ShedAdmissionDropsAndCounts)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions opts = chunked(0, 2, 1);
    opts.kv = kvQueue(384);
    opts.kv.admission = serve::KvAdmission::Shed;
    serve::ServingEngine engine(model, opts);
    engine.submit({64, 300}, 0.0);
    engine.submit({64, 4}, 0.0);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), 1u); // the short was shed, not served
    EXPECT_EQ(rep.results[0].id, 0u);
    EXPECT_EQ(rep.kvShed, 1u);
    EXPECT_DOUBLE_EQ(rep.kvShedRate(), 0.5);
    EXPECT_EQ(rep.replicas[0].kvTokensEnd, 0u);
    EXPECT_EQ(rep.replicas[0].kvBlocksLeaked, 0u);
}

// A capacity nothing ever reaches is bit-identical to no capacity at
// all: same segment decisions, same doubles, zero spill — the KV layer
// rides the segment loop without perturbing it.
TEST(KvCapacity, UnreachedCapacityIsBitIdenticalToUnbounded)
{
    serve::TraceOptions topts;
    topts.seed = 17;
    topts.requests = 10;
    topts.arrivalsPerSec = 400.0;
    topts.outputTokenChoices = {4, 8, 32};
    serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);

    auto run = [&](std::uint64_t capacity) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingOptions opts = chunked(128, 4, 2);
        if (capacity > 0)
            opts.kv = kvQueue(capacity, 16);
        serve::ServingEngine engine(model, opts);
        serve::submitAll(trace, engine);
        return engine.drain();
    };
    ServingReport off = run(0);
    ServingReport on = run(1u << 20);
    expectIdentical(off, on);
    EXPECT_EQ(on.kvSpilledSegments, 0u);
    EXPECT_EQ(on.kvShed, 0u);
    EXPECT_EQ(on.replicas[0].kvBlocksLeaked, 0u);
}

// A request beyond every replica's ceiling can never dispatch under
// queue admission — waiting forever is a silent loss, so it is fatal.
TEST(KvCapacity, ImpossibleRequestUnderQueueIsFatal)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions opts = chunked(0, 2, 1);
    opts.kv = kvQueue(384);
    serve::ServingEngine engine(model, opts);
    engine.submit({64, 400}, 0.0); // worst case 464 > 384 capacity
    EXPECT_THROW(engine.drain(), std::runtime_error);
}

// Engine-level option validation mirrors the CLI's.
TEST(KvCapacity, OptionValidation)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    serve::ServingOptions bad;
    bad.kv.blockTokens = 0;
    EXPECT_THROW(serve::ServingEngine(model, bad), std::runtime_error);

    serve::ServingOptions no_cap;
    no_cap.kv.admission = serve::KvAdmission::Shed;
    EXPECT_THROW(serve::ServingEngine(model, no_cap),
                 std::runtime_error);

    serve::ServingOptions tiny;
    tiny.kv.capacityTokens = 8;
    tiny.kv.blockTokens = 16;
    EXPECT_THROW(serve::ServingEngine(model, tiny), std::runtime_error);
}

} // namespace
