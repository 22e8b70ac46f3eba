/**
 * @file Disaggregated prefill/decode pools: role plumbing, the KV
 * transfer cost model's properties, bit-identity of the all-unified
 * configuration with the disaggregation code path enabled, exact
 * equality of a zero-cost-link pair with a unified replica, delta-only
 * transfers on session traces, option validation, and sharded-drain
 * role partitioning (determinism across thread counts, shards == 1
 * identity, single-role shards rejected).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "drain_audit.hh"
#include "serve/device_pool.hh"
#include "serve/kv_manager.hh"
#include "serve/serving_engine.hh"
#include "serve/sharded_drain.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

workloads::ModelConfig model = workloads::gpt2("m");

const double kInf = std::numeric_limits<double>::infinity();

/** A pool of identical IANUS replicas with the given roles. */
DevicePool
makePool(const std::vector<ReplicaRole> &roles)
{
    DevicePool pool;
    for (ReplicaRole r : roles)
        pool.addReplica(std::make_unique<CompiledModel>(
                            SystemConfig::ianusDefault(), model),
                        r);
    return pool;
}

/** Report equality, the bit-identity anchor: every measured field,
 *  doubles compared bit for bit — "close" is a regression here. */
void
expectSameReport(const ServingReport &a, const ServingReport &b,
                 const std::string &cell)
{
    EXPECT_EQ(test::reportDifference(a, b), "") << cell;
}

// --- Replica roles ----------------------------------------------------------

TEST(ReplicaRoles, NamesRoundTrip)
{
    for (ReplicaRole r : {ReplicaRole::Unified, ReplicaRole::Prefill,
                          ReplicaRole::Decode})
        EXPECT_EQ(makeReplicaRole(toString(r)), r);
    EXPECT_THROW(makeReplicaRole("both"), std::runtime_error);
    EXPECT_THROW(makeReplicaRole(""), std::runtime_error);
}

TEST(ReplicaRoles, PoolStoresAndReportsRoles)
{
    const std::vector<ReplicaRole> typed = {ReplicaRole::Prefill,
                                            ReplicaRole::Decode};
    DevicePool pool = makePool(typed);
    EXPECT_EQ(pool.roles(), typed);
    EXPECT_TRUE(pool.disaggregated());
    EXPECT_FALSE(makePool({ReplicaRole::Unified, ReplicaRole::Unified})
                     .disaggregated());
}

TEST(ReplicaRoles, SizedCtorDefaultsToUnified)
{
    PoolOptions popts;
    popts.replicas = 3;
    DevicePool pool(SystemConfig::ianusDefault(), model, popts);
    EXPECT_FALSE(pool.disaggregated());
    EXPECT_EQ(pool.roles(),
              std::vector<ReplicaRole>(3, ReplicaRole::Unified));
}

// --- Transfer cost model ----------------------------------------------------

TEST(KvTransferCost, BytesAreLinearInTokens)
{
    const std::uint64_t per = kvBytesPerToken(model);
    ASSERT_GT(per, 0u);
    EXPECT_EQ(kvTransferBytes(model, 0), 0u);
    EXPECT_EQ(kvTransferBytes(model, 1), per);
    for (std::uint64_t a : {7u, 128u, 513u})
        for (std::uint64_t b : {1u, 64u, 1024u})
            EXPECT_EQ(kvTransferBytes(model, a + b),
                      kvTransferBytes(model, a) +
                          kvTransferBytes(model, b));
}

TEST(KvTransferCost, LatencyMonotoneInTokensAtFixedBandwidth)
{
    const double link = 32.0; // GB/s
    double prev = -1.0;
    for (std::uint64_t tokens : {1u, 16u, 129u, 512u, 4096u}) {
        double ms = kvTransferMs(kvTransferBytes(model, tokens), link);
        EXPECT_GT(ms, prev) << tokens << " tokens";
        prev = ms;
    }
}

TEST(KvTransferCost, LatencyLinearInBytesAtFixedBandwidth)
{
    const double link = 51.2;
    const std::uint64_t bytes = kvTransferBytes(model, 100);
    // Doubling the payload exactly doubles the wire time (power-of-two
    // scaling is exact in IEEE doubles).
    EXPECT_DOUBLE_EQ(kvTransferMs(2 * bytes, link),
                     2.0 * kvTransferMs(bytes, link));
    EXPECT_DOUBLE_EQ(kvTransferMs(4 * bytes, link),
                     4.0 * kvTransferMs(bytes, link));
    // And bytes / (GB/s * 1e6) is the definition, verbatim.
    EXPECT_DOUBLE_EQ(kvTransferMs(bytes, link),
                     static_cast<double>(bytes) / (link * 1e6));
}

TEST(KvTransferCost, FasterLinkIsNeverSlower)
{
    const std::uint64_t bytes = kvTransferBytes(model, 512);
    EXPECT_LT(kvTransferMs(bytes, 100.0), kvTransferMs(bytes, 10.0));
}

TEST(KvTransferCost, InfiniteLinkCostsExactlyZero)
{
    EXPECT_EQ(kvTransferMs(kvTransferBytes(model, 100000), kInf), 0.0);
}

TEST(KvTransferCost, RejectsNonPositiveBandwidth)
{
    EXPECT_THROW(kvTransferMs(1024, 0.0), std::runtime_error);
    EXPECT_THROW(kvTransferMs(1024, -1.0), std::runtime_error);
}

TEST(KvTransferCost, DerivedLinkComesFromPcieParameters)
{
    SystemConfig sys = SystemConfig::ianusDefault();
    const double link = deriveKvLinkGBs(sys);
    EXPECT_GT(link, 0.0);
    EXPECT_DOUBLE_EQ(link, sys.pcie.bytesPerTick * 1000.0 *
                               sys.dmaEfficiency);
}

// --- Option validation ------------------------------------------------------

TEST(DisaggOptions, RolesMustMatchReplicaCount)
{
    DevicePool pool = makePool(
        {ReplicaRole::Unified, ReplicaRole::Unified});
    ServingOptions opts;
    opts.roles = {ReplicaRole::Prefill};
    EXPECT_THROW(ServingEngine(pool, opts), std::runtime_error);
}

TEST(DisaggOptions, TypedPoolNeedsBothCapabilities)
{
    ServingOptions opts;
    {
        DevicePool pool =
            makePool({ReplicaRole::Prefill, ReplicaRole::Prefill});
        EXPECT_THROW(ServingEngine(pool, opts), std::runtime_error);
    }
    {
        DevicePool pool =
            makePool({ReplicaRole::Decode, ReplicaRole::Decode});
        EXPECT_THROW(ServingEngine(pool, opts), std::runtime_error);
    }
    {
        // prefill + unified is viable (unified decodes), and so is
        // unified + decode.
        DevicePool pool =
            makePool({ReplicaRole::Prefill, ReplicaRole::Unified});
        ServingEngine engine(pool, opts);
    }
}

TEST(DisaggOptions, StaticBatchingIsRejected)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingOptions opts;
    opts.batching = BatchingMode::Static;
    opts.maxBatch = 4;
    EXPECT_THROW(ServingEngine(pool, opts), std::runtime_error);
}

TEST(DisaggOptions, LinkBandwidthMustBeNonNegative)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingOptions opts;
    opts.kvLinkGBs = -1.0;
    EXPECT_THROW(ServingEngine(pool, opts), std::runtime_error);
    opts.kvLinkGBs = std::nan("");
    EXPECT_THROW(ServingEngine(pool, opts), std::runtime_error);
}

TEST(DisaggOptions, PoolRolesSeedTheOptions)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingEngine engine(pool, ServingOptions{});
    engine.submit({64, 4}, 0.0);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.roles.size(), 2u);
    EXPECT_EQ(rep.roles[0], ReplicaRole::Prefill);
    EXPECT_EQ(rep.roles[1], ReplicaRole::Decode);
    EXPECT_EQ(rep.kvTransfers, 1u);
}

// --- All-unified bit-identity ----------------------------------------------

/** With every replica unified, the disaggregation code path (explicit
 *  roles + a configured link) must replay the role-less drain bit for
 *  bit across policies x routers x batching x shard counts. */
TEST(DisaggBitIdentity, AllUnifiedReplaysPlainDrains)
{
    DevicePool pool = makePool({ReplicaRole::Unified,
                                ReplicaRole::Unified,
                                ReplicaRole::Unified,
                                ReplicaRole::Unified});

    TraceOptions topts;
    topts.seed = 7;
    topts.requests = 24;
    topts.arrivalsPerSec = 300.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 8, 24};
    ArrivalTrace trace = generatePoissonTrace(topts);

    struct BatchCell
    {
        BatchingMode mode;
        std::size_t cap;
        bool preempt;
    };
    const std::vector<BatchCell> batchings = {
        {BatchingMode::None, 1, false},
        {BatchingMode::Continuous, 4, true}};

    for (const std::string &router :
         {std::string("round-robin"), std::string("predicted-finish"),
          std::string("slo-budget")})
        for (const std::string &policy :
             {std::string("fcfs"), std::string("sjf")})
            for (const BatchCell &cell : batchings)
                for (std::size_t shards : {1u, 2u, 4u}) {
                    ServingOptions base;
                    base.batching = cell.mode;
                    base.maxBatch = cell.cap;
                    base.preempt = cell.preempt;
                    base.tokenStride = 4;

                    ServingOptions typed = base;
                    typed.roles.assign(4, ReplicaRole::Unified);
                    typed.kvLinkGBs = 8.0; // set, but never exercised

                    ShardOptions sh;
                    sh.shards = shards;
                    sh.threads = 1;
                    ServingReport a = drainSharded(pool, base, trace,
                                                   sh, policy, router);
                    ServingReport b = drainSharded(pool, typed, trace,
                                                   sh, policy, router);
                    expectSameReport(
                        a, b,
                        router + "/" + policy + "/" +
                            toString(cell.mode) + "/shards=" +
                            std::to_string(shards));
                }
}

// --- Zero-cost link equality ------------------------------------------------

/** A 1-prefill + 1-decode pair over an infinite-bandwidth link runs
 *  every request's prefill and decode segments at the same instants a
 *  single unified replica does (sparse arrivals, so the two phases
 *  never overlap): per-request timings match exactly, only the replica
 *  indices differ. */
TEST(DisaggZeroCostLink, PairMatchesUnifiedReplicaExactly)
{
    // preempt=true forces the unified drain through the segmented loop
    // the disaggregated drain always uses (no preemption ever fires on
    // this sparse trace) — the segment math is then shared verbatim.
    ServingOptions uopts;
    uopts.preempt = true;
    DevicePool unified = makePool({ReplicaRole::Unified});
    ServingEngine uengine(unified, uopts);

    ServingOptions dopts;
    dopts.kvLinkGBs = kInf;
    DevicePool pair =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingEngine dengine(pair, dopts);

    // Arrivals far apart: each request drains completely before the
    // next lands, so phase overlap cannot help the pair.
    const std::vector<workloads::InferenceRequest> reqs = {
        {64, 8}, {128, 4}, {64, 16}, {128, 8}};
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        uengine.submit(reqs[i], 4000.0 * static_cast<double>(i));
        dengine.submit(reqs[i], 4000.0 * static_cast<double>(i));
    }
    ServingReport u = uengine.drain();
    ServingReport d = dengine.drain();

    ASSERT_EQ(u.results.size(), reqs.size());
    ASSERT_EQ(d.results.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const RequestResult &x = u.results[i];
        const RequestResult &y = d.results[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.firstTokenMs, y.firstTokenMs) << "r" << i;
        EXPECT_EQ(x.finishMs, y.finishMs) << "r" << i;
        EXPECT_EQ(x.startMs, y.startMs) << "r" << i;
        EXPECT_EQ(x.serviceMs, y.serviceMs) << "r" << i;
        EXPECT_EQ(x.msPerToken, y.msPerToken) << "r" << i;
        // The pair splits the lifecycle across its replicas.
        EXPECT_EQ(y.prefillIndex, 0u) << "r" << i;
        EXPECT_EQ(y.deviceIndex, 1u) << "r" << i;
        EXPECT_EQ(y.kvTransferMs, 0.0) << "r" << i;
        EXPECT_EQ(y.kvTransferTokens, reqs[i].inputTokens + 1)
            << "r" << i;
    }
    EXPECT_EQ(u.makespanMs, d.makespanMs);
    EXPECT_EQ(d.kvTransfers, reqs.size());
    EXPECT_EQ(d.kvTransferMs, 0.0);
    for (const auto &r : d.replicas) {
        EXPECT_EQ(r.kvTokensEnd, 0u);
        EXPECT_EQ(r.kvBlocksLeaked, 0u);
    }
}

// --- Transfer accounting on live drains ------------------------------------

TEST(DisaggTransfers, ReportSumsPerRequestTransfers)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 4;
    opts.tokenStride = 4;
    opts.kvLinkGBs = 16.0;
    ServingEngine engine(pool, opts);

    TraceOptions topts;
    topts.seed = 3;
    topts.requests = 10;
    topts.arrivalsPerSec = 200.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {4, 8, 16};
    ArrivalTrace trace = generatePoissonTrace(topts);
    submitAll(trace, engine);
    ServingReport rep = engine.drain();

    ASSERT_EQ(rep.requests(), trace.size());
    std::uint64_t transfers = 0;
    double ms = 0.0, gb = 0.0;
    for (const RequestResult &r : rep.results) {
        // Every request prefills on the prefill replica and decodes on
        // the decode replica (outputs are all > 1).
        EXPECT_EQ(r.prefillIndex, 0u) << r.id;
        EXPECT_EQ(r.deviceIndex, 1u) << r.id;
        EXPECT_EQ(r.kvTransferTokens, r.request.inputTokens + 1)
            << r.id;
        EXPECT_DOUBLE_EQ(
            r.kvTransferMs,
            kvTransferMs(kvTransferBytes(model, r.kvTransferTokens),
                         16.0))
            << r.id;
        transfers += 1;
        ms += r.kvTransferMs;
        // The report accumulates GB transfer by transfer; summing the
        // same way keeps the comparison exact.
        gb += static_cast<double>(
                  kvTransferBytes(model, r.kvTransferTokens)) /
              1e9;
    }
    EXPECT_EQ(rep.kvTransfers, transfers);
    EXPECT_DOUBLE_EQ(rep.kvTransferMs, ms);
    EXPECT_DOUBLE_EQ(rep.kvTransferGB, gb);
    // Dispatch conservation: admission on the prefill side plus one
    // handoff arrival on the decode side.
    EXPECT_EQ(rep.replicas[0].dispatched + rep.replicas[1].dispatched,
              trace.size() + rep.preemptions() + rep.kvTransfers);
}

TEST(DisaggTransfers, SingleTokenRequestsFinishOnThePrefillReplica)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingOptions opts;
    opts.kvLinkGBs = 16.0;
    ServingEngine engine(pool, opts);
    engine.submit({64, 1}, 0.0); // no decode phase: nothing to ship
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.results.size(), 1u);
    EXPECT_EQ(rep.results[0].deviceIndex, 0u);
    EXPECT_EQ(rep.results[0].prefillIndex, 0u);
    EXPECT_EQ(rep.kvTransfers, 0u);
    EXPECT_EQ(rep.results[0].kvTransferTokens, 0u);
}

// --- Delta-only transfers on session traces ---------------------------------

/** A disaggregated prefix hit prefills and ships only the delta: the
 *  pinned prefix already lives on the decode replica. */
TEST(DisaggSessions, PrefixHitsTransferOnlyTheDelta)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 4;
    opts.tokenStride = 4;
    opts.kvLinkGBs = 16.0;
    ServingEngine engine(pool, opts);

    SessionOptions sopts;
    sopts.seed = 11;
    sopts.sessions = 4;
    sopts.meanTurns = 3.0;
    sopts.meanThinkMs = 500.0; // think >> service so later turns hit
    sopts.sessionsPerSec = 10.0;
    ArrivalTrace trace = generateSessionTrace(sopts);
    ASSERT_TRUE(trace.hasSessions());

    submitAll(trace, engine);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), trace.size());
    EXPECT_GT(rep.prefixHits, 0u);

    for (const RequestResult &r : rep.results) {
        if (r.request.outputTokens == 1)
            continue; // finalized on the prefill replica, no transfer
        if (r.prefixHit) {
            EXPECT_EQ(r.prefilledTokens,
                      r.request.inputTokens - r.prefixTokens)
                << r.id;
            EXPECT_EQ(r.kvTransferTokens,
                      r.request.inputTokens + 1 - r.prefixTokens)
                << r.id;
        } else {
            EXPECT_EQ(r.prefilledTokens, r.request.inputTokens) << r.id;
            EXPECT_EQ(r.kvTransferTokens, r.request.inputTokens + 1)
                << r.id;
        }
        EXPECT_EQ(r.prefillIndex, 0u) << r.id;
        EXPECT_EQ(r.deviceIndex, 1u) << r.id;
    }
    for (const auto &u : rep.replicas) {
        EXPECT_EQ(u.kvTokensEnd, 0u);
        EXPECT_EQ(u.kvBlocksLeaked, 0u);
    }
}

/** NPU-MEM prefill and IANUS decode replicas, interleaved P,D,P,D, at
 *  1x the derived KV capacity. Session pins fill the decode side until
 *  a handoff can reserve only by reclaiming them; a drain that parked
 *  such handoffs for good lost turns. With seed 7 at 20 sessions/s,
 *  850 sessions is about the shortest trace that reached that state. */
TEST(DisaggSessions, PinnedDecodePoolServesEveryTurn)
{
    DevicePool pool;
    for (std::size_t i = 0; i < 4; ++i) {
        const bool prefill = i % 2 == 0;
        pool.addReplica(std::make_unique<CompiledModel>(
                            prefill ? SystemConfig::npuMem()
                                    : SystemConfig::ianusDefault(),
                            model),
                        prefill ? ReplicaRole::Prefill
                                : ReplicaRole::Decode);
    }
    ServingOptions opts;
    opts.tokenStride = 8;
    opts.prefillChunk = 128;
    opts.preempt = true;
    opts.prefixCache = true;
    opts.kv.capacityTokens =
        deriveKvCapacityTokens(SystemConfig::ianusDefault(), model);
    opts.kv.admission = KvAdmission::Queue;
    ServingEngine engine(pool, opts, makePolicy("edf"),
                         makeRouter("kv-affinity"));

    SessionOptions sopts;
    sopts.seed = 7;
    sopts.sessions = 850;
    sopts.sessionsPerSec = 20.0;
    ArrivalTrace trace = generateSessionTrace(sopts);

    submitAll(trace, engine);
    ServingReport rep = engine.drain();
    EXPECT_EQ(rep.results.size() + rep.kvShed, trace.size());
    EXPECT_GT(rep.prefixHits, 0u);
    for (const auto &u : rep.replicas) {
        EXPECT_EQ(u.kvTokensEnd, 0u);
        EXPECT_EQ(u.kvBlocksLeaked, 0u);
    }
}

// --- Determinism and sharding -----------------------------------------------

TEST(DisaggSharding, DeterministicAcrossReplaysAndThreads)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode,
                  ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 4;
    opts.tokenStride = 4;
    opts.kvLinkGBs = 16.0;
    opts.kv.capacityTokens = 4096;
    opts.kv.blockTokens = 16;
    opts.kv.admission = KvAdmission::Queue;

    TraceOptions topts;
    topts.seed = 13;
    topts.requests = 20;
    topts.arrivalsPerSec = 250.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {4, 8, 16};
    ArrivalTrace trace = generatePoissonTrace(topts);

    ShardOptions serial;
    serial.shards = 2;
    serial.threads = 1;
    ShardOptions parallel;
    parallel.shards = 2;
    parallel.threads = 4;
    ServingReport a =
        drainSharded(pool, opts, trace, serial, "fcfs", "round-robin");
    ServingReport b =
        drainSharded(pool, opts, trace, parallel, "fcfs", "round-robin");
    ServingReport c =
        drainSharded(pool, opts, trace, serial, "fcfs", "round-robin");
    expectSameReport(a, b, "serial-vs-parallel");
    expectSameReport(a, c, "replay");
    EXPECT_GT(a.kvTransfers, 0u);
    for (const auto &u : a.replicas) {
        EXPECT_EQ(u.kvTokensEnd, 0u);
        EXPECT_EQ(u.kvBlocksLeaked, 0u);
    }
}

TEST(DisaggSharding, SingleShardMatchesPlainDrain)
{
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 4;
    opts.tokenStride = 4;
    opts.kvLinkGBs = 16.0;

    TraceOptions topts;
    topts.seed = 17;
    topts.requests = 12;
    topts.arrivalsPerSec = 200.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {4, 8};
    ArrivalTrace trace = generatePoissonTrace(topts);

    ServingEngine engine(pool, opts, makePolicy("fcfs"),
                         makeRouter("round-robin"));
    submitAll(trace, engine);
    ServingReport plain = engine.drain();

    ShardOptions sh;
    sh.shards = 1;
    ServingReport sharded =
        drainSharded(pool, opts, trace, sh, "fcfs", "round-robin");
    expectSameReport(plain, sharded, "shards=1");
}

TEST(DisaggSharding, SingleRoleShardsAreRejected)
{
    // Contiguous halves of P,P,D,D are single-role: the partition
    // cannot hand KV across shards and must be refused up front.
    DevicePool pool =
        makePool({ReplicaRole::Prefill, ReplicaRole::Prefill,
                  ReplicaRole::Decode, ReplicaRole::Decode});
    ServingOptions opts;
    TraceOptions topts;
    topts.requests = 4;
    ArrivalTrace trace = generatePoissonTrace(topts);
    ShardOptions sh;
    sh.shards = 2;
    EXPECT_THROW(
        drainSharded(pool, opts, trace, sh, "fcfs", "round-robin"),
        std::runtime_error);
    // The P,D,P,D arrangement partitions cleanly.
    DevicePool ok =
        makePool({ReplicaRole::Prefill, ReplicaRole::Decode,
                  ReplicaRole::Prefill, ReplicaRole::Decode});
    ServingReport rep =
        drainSharded(ok, opts, trace, sh, "fcfs", "round-robin");
    EXPECT_EQ(rep.requests(), trace.size());
}

} // namespace
