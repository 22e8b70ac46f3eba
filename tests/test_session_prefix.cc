/**
 * @file Prefix-cache correctness for multi-turn sessions: a hit's
 * chunked re-prefill must cost exactly what the calibrated chunk table
 * says a resume from `prior` cached tokens costs; an evicted prefix
 * must fall back to the monolithic full re-prefill, bit for bit; the
 * feature must be inert for single-turn traces and when disabled; and
 * session-sticky routing must keep a session's turns on its replica.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/sharded_drain.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

workloads::ModelConfig model = workloads::gpt2("m");

/** The RunStats fields the prefill-cost assertions compare bit-exactly
 *  (wall time, command count, compute, and traffic pin the whole
 *  table-driven cost model). */
void
expectStatsEqual(const RunStats &a, const RunStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.wallTicks, b.wallTicks) << what;
    EXPECT_EQ(a.commands, b.commands) << what;
    EXPECT_EQ(a.muFlops, b.muFlops) << what;
    EXPECT_EQ(a.dramReadBytes, b.dramReadBytes) << what;
}

/** A two-turn session: turn 0 = (prior_in, prior_out) at t=0, turn 1
 *  arrives at `gap_ms` with the inherited prefix plus `delta` fresh
 *  tokens. */
ArrivalTrace
twoTurnTrace(std::uint64_t prior_in, std::uint64_t prior_out,
             std::uint64_t delta, double gap_ms = 5000.0)
{
    ArrivalTrace trace;
    TimedRequest t0;
    t0.sessionId = 1;
    t0.request = {prior_in, prior_out};
    trace.requests.push_back(t0);
    TimedRequest t1;
    t1.sessionId = 1;
    t1.turnIndex = 1;
    t1.prefixTokens = prior_in + prior_out;
    t1.request = {t1.prefixTokens + delta, 8};
    t1.arrivalMs = gap_ms;
    trace.requests.push_back(t1);
    return trace;
}

/** Each request's cost attribution, by id, as the completion hook
 *  handed it over (results keep no per-request RunStats). */
using StatsById = std::map<std::uint64_t, InferenceReport>;

ServingReport
drainOn(const DevicePool &pool, const ArrivalTrace &trace,
        ServingOptions opts, const std::string &router = "round-robin",
        StatsById *stats = nullptr)
{
    ServingEngine engine(pool, opts, makePolicy("fcfs"),
                         makeRouter(router));
    if (stats)
        engine.setCompletionHook(
            [stats](const RequestResult &r, const InferenceReport &s) {
                stats->emplace(r.id, s);
            });
    submitAll(trace, engine);
    return engine.drain();
}

// --- Hit cost == chunk-table cost -----------------------------------------

// Property: for random (prior, delta) splits of a two-turn session on
// an idle replica, the hit turn's summarization RunStats must equal
// prefillChunkStats(prior, delta, last) taken directly from the
// replica's table — the engine adds no cost of its own and forgets no
// prior context.
TEST(SessionPrefix, HitPrefillCostEqualsChunkTableEntry)
{
    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    const CompiledModel &cm = pool.replica(0);

    struct Split
    {
        std::uint64_t priorIn, priorOut, delta;
    };
    // (prior, delta) splits spanning small/large prior and delta.
    const std::vector<Split> splits = {
        {64, 16, 32},  {64, 16, 128}, {128, 32, 64},
        {96, 64, 96},  {192, 16, 32}, {256, 32, 128},
    };
    for (const Split &s : splits) {
        ArrivalTrace trace =
            twoTurnTrace(s.priorIn, s.priorOut, s.delta);
        StatsById stats;
        ServingReport rep = drainOn(pool, trace, ServingOptions{},
                                    "round-robin", &stats);
        const std::uint64_t prior = s.priorIn + s.priorOut;
        std::string what = "prior " + std::to_string(prior) +
                           " delta " + std::to_string(s.delta);

        ASSERT_EQ(rep.requests(), 2u) << what;
        const RequestResult *turn1 = nullptr;
        for (const auto &r : rep.results)
            if (r.turnIndex == 1)
                turn1 = &r;
        ASSERT_NE(turn1, nullptr) << what;
        EXPECT_TRUE(turn1->prefixHit) << what;
        EXPECT_EQ(turn1->prefilledTokens, s.delta) << what;
        EXPECT_EQ(rep.prefixHits, 1u) << what;
        EXPECT_EQ(rep.prefillTokensSaved, prior) << what;
        expectStatsEqual(stats.at(turn1->id).summarization,
                         cm.prefillChunkStats(prior, s.delta, true),
                         what);
    }
}

// The same property through the chunked-prefill path: a 96-token delta
// resumed in 48-token chunks must cost exactly the two table entries
// prefillChunkStats(prior, 48, false) + prefillChunkStats(prior+48,
// 48, true), merged.
TEST(SessionPrefix, ChunkedHitComposesChunkTableEntries)
{
    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    const CompiledModel &cm = pool.replica(0);

    const std::uint64_t prior = 64 + 16, delta = 96;
    ArrivalTrace trace = twoTurnTrace(64, 16, delta);
    ServingOptions opts;
    opts.prefillChunk = 48;
    StatsById stats;
    ServingReport rep = drainOn(pool, trace, opts, "round-robin", &stats);

    const RequestResult *turn1 = nullptr;
    for (const auto &r : rep.results)
        if (r.turnIndex == 1)
            turn1 = &r;
    ASSERT_NE(turn1, nullptr);
    ASSERT_TRUE(turn1->prefixHit);
    EXPECT_EQ(turn1->prefillChunks, 2u);
    RunStats expected = cm.prefillChunkStats(prior, 48, false);
    expected.merge(cm.prefillChunkStats(prior + 48, 48, true));
    // merge() sums the additive fields; compare those.
    const RunStats &got = stats.at(turn1->id).summarization;
    EXPECT_EQ(got.commands, expected.commands);
    EXPECT_EQ(got.muFlops, expected.muFlops);
    EXPECT_EQ(got.dramReadBytes, expected.dramReadBytes);
}

// --- Eviction falls back to the monolithic cost ---------------------------

// A pinned prefix reclaimed mid-session (to fund a large foreign
// admission under a tight KV budget) must turn the next turn into an
// honest miss: full re-prefill whose summarization equals the
// monolithic table entry — the same bytes a cold single-turn request
// of that length produces — and no KV block may leak in the process.
TEST(SessionPrefix, EvictedPrefixReprefillsAtMonolithicCost)
{
    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    const CompiledModel &cm = pool.replica(0);

    // Session turn 0 parks an 80-token prefix (5 of 16 blocks). The
    // foreign request's worst case (192 + 32 = 14 blocks) exceeds the
    // 11 free blocks, so admission must reclaim the pin.
    ArrivalTrace trace = twoTurnTrace(64, 16, 64, 6000.0);
    TimedRequest big;
    big.request = {192, 32};
    big.arrivalMs = 1000.0;
    trace.requests.insert(trace.requests.begin() + 1, big);

    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 2;
    opts.kv.capacityTokens = 256;
    opts.kv.blockTokens = 16;
    opts.kv.admission = KvAdmission::Queue;
    StatsById stats;
    ServingReport rep = drainOn(pool, trace, opts, "round-robin", &stats);

    ASSERT_EQ(rep.requests(), 3u);
    const RequestResult *turn1 = nullptr;
    for (const auto &r : rep.results)
        if (r.sessionId == 1 && r.turnIndex == 1)
            turn1 = &r;
    ASSERT_NE(turn1, nullptr);
    EXPECT_FALSE(turn1->prefixHit);
    EXPECT_EQ(rep.prefixHits, 0u);
    EXPECT_EQ(rep.prefixMisses, 1u);
    EXPECT_EQ(rep.prefillTokensSaved, 0u);
    EXPECT_EQ(turn1->prefilledTokens, turn1->request.inputTokens);
    expectStatsEqual(
        stats.at(turn1->id).summarization,
        cm.prefillChunkStats(0, turn1->request.inputTokens, true),
        "evicted re-prefill");
    for (const auto &u : rep.replicas) {
        EXPECT_EQ(u.kvTokensEnd, 0u);
        EXPECT_EQ(u.kvBlocksLeaked, 0u);
    }
}

// --- Inertness regressions ------------------------------------------------

/** Field-for-field report equality (the bit-identity oracle). */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b,
                       const std::string &what)
{
    ASSERT_EQ(a.requests(), b.requests()) << what;
    for (std::size_t i = 0; i < a.requests(); ++i) {
        const RequestResult &x = a.results[i];
        const RequestResult &y = b.results[i];
        EXPECT_EQ(x.id, y.id) << what;
        EXPECT_EQ(x.deviceIndex, y.deviceIndex) << what;
        EXPECT_EQ(x.startMs, y.startMs) << what;
        EXPECT_EQ(x.firstTokenMs, y.firstTokenMs) << what;
        EXPECT_EQ(x.finishMs, y.finishMs) << what;
        EXPECT_EQ(x.suspendedMs, y.suspendedMs) << what;
        EXPECT_EQ(x.preemptions, y.preemptions) << what;
        EXPECT_EQ(x.prefillChunks, y.prefillChunks) << what;
        EXPECT_EQ(x.prefilledTokens, y.prefilledTokens) << what;
    }
    EXPECT_EQ(a.makespanMs, b.makespanMs) << what;
    EXPECT_EQ(a.generatedTokens, b.generatedTokens) << what;
    EXPECT_EQ(a.simEvents, b.simEvents) << what;
    EXPECT_EQ(a.kvPeakPressure, b.kvPeakPressure) << what;
    EXPECT_EQ(a.aggregate.commands, b.aggregate.commands) << what;
    EXPECT_EQ(a.aggregate.muFlops, b.aggregate.muFlops) << what;
}

// PR-7 regression: on a single-turn (tagless) trace the session-aware
// engine with the prefix cache enabled (the default) must replay the
// prefix-cache-disabled run bit for bit — across policies, batching
// modes, and shard counts. The cache can only engage when a session
// tag exists, so tagless traces take the exact pre-session code path.
TEST(SessionPrefix, SingleTurnTracesAreBitIdenticalWithCacheOnOrOff)
{
    workloads::ModelConfig m = model;
    serve::PoolOptions popts;
    popts.replicas = 4;
    DevicePool pool(SystemConfig::ianusDefault(), m, popts);

    TraceOptions topts;
    topts.seed = 17;
    topts.requests = 24;
    topts.arrivalsPerSec = 300.0;
    topts.inputTokenChoices = {64, 128, 256};
    topts.outputTokenChoices = {4, 16, 32};
    ArrivalTrace trace = generatePoissonTrace(topts);
    ASSERT_FALSE(trace.hasSessions());

    const std::vector<std::string> policies = {"fcfs", "sjf"};
    const std::vector<std::string> routers = {"round-robin",
                                              "kv-affinity"};
    for (const std::string &policy : policies)
        for (const std::string &router : routers)
            for (bool batched : {false, true})
                for (std::size_t shards : {1u, 2u, 4u}) {
                    ServingOptions on;
                    on.batching = batched ? BatchingMode::Continuous
                                          : BatchingMode::None;
                    on.maxBatch = batched ? 4 : 1;
                    on.prefixCache = true;
                    ServingOptions off = on;
                    off.prefixCache = false;
                    ShardOptions sh;
                    sh.shards = shards;
                    sh.threads = 1;
                    ServingReport a = drainSharded(pool, on, trace, sh,
                                                   policy, router);
                    ServingReport b = drainSharded(pool, off, trace, sh,
                                                   policy, router);
                    expectReportsIdentical(
                        a, b,
                        policy + "/" + router +
                            (batched ? "/cont" : "/none") + "/s" +
                            std::to_string(shards));
                    EXPECT_EQ(a.prefixHits, 0u);
                    EXPECT_EQ(a.prefixMisses, 0u);
                }
}

// Disabling the cache on a chatty (session-tagged) trace must take
// exactly the cold path: bit-identical timings to the same trace with
// its tags stripped, zero hit/miss accounting, and every turn
// re-prefilling its full context.
TEST(SessionPrefix, DisabledCacheMatchesTaglessColdPathExactly)
{
    serve::PoolOptions popts;
    popts.replicas = 2;
    DevicePool pool(SystemConfig::ianusDefault(), model, popts);

    SessionOptions sopts;
    sopts.seed = 13;
    sopts.sessions = 4;
    sopts.meanTurns = 3.0;
    sopts.meanThinkMs = 400.0;
    sopts.sessionsPerSec = 30.0;
    ArrivalTrace tagged = generateSessionTrace(sopts);
    ArrivalTrace stripped = tagged;
    for (TimedRequest &t : stripped.requests)
        t.sessionId = t.turnIndex = t.prefixTokens = 0;

    for (const char *router : {"round-robin", "kv-affinity"}) {
        ServingOptions opts;
        opts.batching = BatchingMode::Continuous;
        opts.maxBatch = 4;
        opts.prefixCache = false;
        ServingReport cold = drainOn(pool, stripped, opts, router);
        ServingReport off = drainOn(pool, tagged, opts, router);
        expectReportsIdentical(cold, off,
                               std::string(router) + "/cache-off");
        EXPECT_EQ(off.prefixHits, 0u);
        EXPECT_EQ(off.prefixMisses, 0u);
        for (const auto &r : off.results)
            EXPECT_EQ(r.prefilledTokens, r.request.inputTokens);
    }
}

// --- Session-sticky routing -----------------------------------------------

// kv-affinity keeps every turn of a session on the replica that cached
// its prefix: with an idle pool and think times well past the service
// time, a 4-turn session hits on all 3 resumable turns, all on one
// replica.
TEST(SessionPrefix, KvAffinityStickinessYieldsAllHits)
{
    serve::PoolOptions popts;
    popts.replicas = 2;
    DevicePool pool(SystemConfig::ianusDefault(), model, popts);

    ArrivalTrace trace;
    std::uint64_t prefix = 0;
    double arrival = 0.0;
    for (std::uint64_t k = 0; k < 4; ++k) {
        TimedRequest t;
        t.sessionId = 1;
        t.turnIndex = k;
        t.prefixTokens = prefix;
        t.request = {prefix + 32, 8};
        t.arrivalMs = arrival;
        trace.requests.push_back(t);
        prefix = t.request.inputTokens + t.request.outputTokens;
        arrival += 2000.0;
    }

    ServingReport rep =
        drainOn(pool, trace, ServingOptions{}, "kv-affinity");
    ASSERT_EQ(rep.requests(), 4u);
    const std::size_t dev = rep.results.front().deviceIndex;
    for (const auto &r : rep.results)
        EXPECT_EQ(r.deviceIndex, dev) << "turn " << r.turnIndex;
    EXPECT_EQ(rep.prefixHits, 3u);
    EXPECT_EQ(rep.prefixMisses, 0u);
    EXPECT_EQ(rep.prefixHitRate(), 1.0);
}

// --- Sharded session drains -----------------------------------------------

// Whole sessions stay on one shard, the merged report is thread-count
// invariant, and one shard reproduces the plain drain bit for bit —
// the PR-7 sharding contract extended to chatty traces.
TEST(SessionPrefix, ShardedSessionDrainIsDeterministicAndSessionWhole)
{
    serve::PoolOptions popts;
    popts.replicas = 4;
    DevicePool pool(SystemConfig::ianusDefault(), model, popts);

    SessionOptions sopts;
    sopts.seed = 29;
    sopts.sessions = 6;
    sopts.meanTurns = 3.0;
    sopts.meanThinkMs = 500.0;
    sopts.sessionsPerSec = 15.0;
    ArrivalTrace trace = generateSessionTrace(sopts);

    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 4;

    // shards == 1 == plain drain, bit for bit (sessions included).
    ShardOptions one;
    one.shards = 1;
    one.threads = 1;
    ServingReport plain = drainOn(pool, trace, opts, "kv-affinity");
    ServingReport merged = drainSharded(pool, opts, trace, one, "fcfs",
                                        "kv-affinity");
    expectReportsIdentical(plain, merged, "one-shard");
    EXPECT_EQ(plain.prefixHits, merged.prefixHits);
    EXPECT_EQ(plain.prefillTokensSaved, merged.prefillTokensSaved);

    for (std::size_t shards : {2u, 4u}) {
        ShardOptions serial;
        serial.shards = shards;
        serial.threads = 1;
        ShardOptions wide;
        wide.shards = shards;
        wide.threads = 0; // one thread per shard
        ServingReport a =
            drainSharded(pool, opts, trace, serial, "fcfs",
                         "kv-affinity");
        ServingReport b = drainSharded(pool, opts, trace, wide, "fcfs",
                                       "kv-affinity");
        std::string what = "shards " + std::to_string(shards);
        expectReportsIdentical(a, b, what);
        EXPECT_EQ(a.prefixHits, b.prefixHits) << what;
        EXPECT_EQ(a.prefixMisses, b.prefixMisses) << what;
        EXPECT_EQ(a.prefillTokensSaved, b.prefillTokensSaved) << what;

        // Every turn of a session landed inside one shard's replica
        // range — the partition never splits a conversation.
        const std::size_t R = 4;
        std::map<std::uint64_t, std::size_t> shardOf;
        for (const auto &r : a.results) {
            if (r.sessionId == 0)
                continue;
            const std::size_t s = r.deviceIndex * shards / R;
            auto [it, fresh] = shardOf.emplace(r.sessionId, s);
            EXPECT_EQ(it->second, s)
                << what << " session " << r.sessionId;
        }
    }
}

} // namespace
