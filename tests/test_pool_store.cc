/**
 * @file
 * The pool's shared program store (serve/device_pool.hh): replicas
 * with equal (SystemConfig, ModelConfig, BuildOptions) triples share
 * one store of program statistics, so a pool builds each distinct
 * program once. Every replica still serves exactly the statistics a
 * standalone CompiledModel of its triple serves, bit for bit; unequal
 * triples never share; and a sharded drain on several threads builds
 * each key once pool-wide and matches the serial drain.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "serve/device_pool.hh"
#include "serve/sharded_drain.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

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

/** Distinct scalar keys probe() looks up: two summarizations, two
 *  resumed chunks and two generation steps. */
constexpr std::uint64_t kScalarKeys = 6;

/** One lookup of every kind, some twice; the batched step is the only
 *  batched key. Returns the served stats in lookup order. */
std::vector<RunStats>
probe(const CompiledModel &m)
{
    std::vector<RunStats> out;
    out.push_back(m.prefillChunkStats(0, 32, true));
    out.push_back(m.prefillChunkStats(0, 64, true));
    out.push_back(m.prefillChunkStats(0, 32, true));
    out.push_back(m.prefillChunkStats(32, 32, false));
    out.push_back(m.prefillChunkStats(32, 32, true));
    out.push_back(m.prefillChunkStats(0, 64, true)); // the summarization
    out.push_back(m.generationStepStats({65}));
    out.push_back(m.generationStepStats({100}));
    out.push_back(m.generationStepStats({100, 65})); // batched
    out.push_back(m.generationStepStats({65, 100})); // same multiset
    out.push_back(m.generationStepStats({65}));
    return out;
}

std::uint64_t
scalarBuilds(const CacheStats &c)
{
    return c.summarizationBuilds + c.chunkBuilds + c.generationBuilds;
}

std::uint64_t
poolBuilds(const DevicePool &pool)
{
    std::uint64_t builds = 0;
    for (std::size_t i = 0; i < pool.size(); ++i)
        builds += pool.replica(i).cacheStats().builds();
    return builds;
}

/** Replica @p i of @p pool serves what a standalone twin of its
 *  triple serves, field for field and bit for bit, with the same
 *  number of lookups. Every replica probes the same keys, so its store
 *  holds each probed program once, as the twin's does, however many
 *  replicas share it. */
void
expectMatchesStandaloneTwin(const DevicePool &pool, std::size_t i,
                            const std::string &cell)
{
    const CompiledModel &r = pool.replica(i);
    CompiledModel twin(r.config(), r.model(), r.options());
    const std::vector<RunStats> got = probe(r);
    const std::vector<RunStats> want = probe(twin);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_TRUE(sameBits(got[k], want[k]))
            << cell << " replica " << i << " lookup " << k;
    const CacheStats &a = r.cacheStats();
    const CacheStats &b = twin.cacheStats();
    EXPECT_EQ(a.summarizationBuilds + a.summarizationHits,
              b.summarizationBuilds + b.summarizationHits)
        << cell;
    EXPECT_EQ(a.chunkBuilds + a.chunkHits, b.chunkBuilds + b.chunkHits)
        << cell;
    EXPECT_EQ(a.generationBuilds + a.generationHits,
              b.generationBuilds + b.generationHits)
        << cell;
    EXPECT_EQ(a.batchBuilds + a.batchHits, b.batchBuilds + b.batchHits)
        << cell;
    EXPECT_EQ(r.cachedPrograms(), kScalarKeys + 1) << cell;
    EXPECT_EQ(twin.cachedPrograms(), kScalarKeys + 1) << cell;
}

TEST(PoolStore, EqualReplicasBuildEachProgramOnce)
{
    PoolOptions opts;
    opts.replicas = 3;
    DevicePool pool(SystemConfig::ianusDefault(), workloads::gpt2("m"),
                    opts);
    for (std::size_t i = 0; i < pool.size(); ++i)
        expectMatchesStandaloneTwin(pool, i, "homogeneous");

    // The first replica built every program, the one batched multiset
    // included; the others found them in the store and counted hits.
    EXPECT_EQ(scalarBuilds(pool.replica(0).cacheStats()), kScalarKeys);
    EXPECT_EQ(pool.replica(0).cacheStats().batchBuilds, 1u);
    for (std::size_t i = 1; i < pool.size(); ++i) {
        EXPECT_EQ(scalarBuilds(pool.replica(i).cacheStats()), 0u);
        EXPECT_EQ(pool.replica(i).cacheStats().batchBuilds, 0u);
        EXPECT_EQ(pool.replica(i).cacheStats().batchHits, 2u);
    }
    EXPECT_EQ(poolBuilds(pool), kScalarKeys + 1);
}

TEST(PoolStore, AddedReplicasAdoptTheFirstEqualStore)
{
    DevicePool pool;
    for (const SystemConfig &sys :
         {SystemConfig::npuMem(), SystemConfig::ianusDefault(),
          SystemConfig::npuMem(), SystemConfig::ianusDefault()})
        pool.addReplica(
            std::make_unique<CompiledModel>(sys, workloads::gpt2("m")));
    for (std::size_t i = 0; i < pool.size(); ++i)
        expectMatchesStandaloneTwin(pool, i, "interleaved");
    // Two triples, two stores: each builds its scalar keys once.
    EXPECT_EQ(scalarBuilds(pool.replica(0).cacheStats()), kScalarKeys);
    EXPECT_EQ(scalarBuilds(pool.replica(1).cacheStats()), kScalarKeys);
    EXPECT_EQ(scalarBuilds(pool.replica(2).cacheStats()), 0u);
    EXPECT_EQ(scalarBuilds(pool.replica(3).cacheStats()), 0u);
}

struct Triple
{
    SystemConfig sys;
    workloads::ModelConfig model;
    compiler::BuildOptions opts{};
};

TEST(PoolStore, UnequalTriplesNeverShare)
{
    const workloads::ModelConfig m = workloads::gpt2("m");
    compiler::BuildOptions naive;
    naive.policy = compiler::SchedulingPolicy::Naive;
    compiler::BuildOptions tp2;
    tp2.devices = 2;
    struct Pair
    {
        const char *name;
        Triple a, b;
    };
    const std::vector<Pair> pairs = {
        {"ianus/npu-mem", {SystemConfig::ianusDefault(), m},
         {SystemConfig::npuMem(), m}},
        {"ianus/partitioned", {SystemConfig::ianusDefault(), m},
         {SystemConfig::partitioned(), m}},
        {"npu-mem/partitioned", {SystemConfig::npuMem(), m},
         {SystemConfig::partitioned(), m}},
        {"pas/naive", {SystemConfig::ianusDefault(), m},
         {SystemConfig::ianusDefault(), m, naive}},
        {"devices 1/2", {SystemConfig::ianusDefault(), m},
         {SystemConfig::ianusDefault(), m, tp2}},
        {"gpt2 m/l", {SystemConfig::ianusDefault(), m},
         {SystemConfig::ianusDefault(), workloads::gpt2("l")}},
    };
    for (const Pair &p : pairs) {
        DevicePool pool;
        pool.addReplica(
            std::make_unique<CompiledModel>(p.a.sys, p.a.model, p.a.opts));
        pool.addReplica(
            std::make_unique<CompiledModel>(p.b.sys, p.b.model, p.b.opts));
        for (std::size_t i = 0; i < pool.size(); ++i)
            expectMatchesStandaloneTwin(pool, i, p.name);
        // The second replica found nothing of the first's: it built
        // every scalar key itself.
        EXPECT_EQ(scalarBuilds(pool.replica(1).cacheStats()), kScalarKeys)
            << p.name;
    }
}

TEST(PoolStore, EqualityCoversNestedParameters)
{
    // Defaulted operator== compares every field, nested structs too.
    const SystemConfig base = SystemConfig::ianusDefault();
    EXPECT_EQ(base, SystemConfig::ianusDefault());
    std::vector<SystemConfig> tweaked(8, base);
    tweaked[0].mu.freqGhz += 0.1;
    tweaked[1].vu.launchOverhead += 1;
    tweaked[2].coreMem.actScratchpadBytes *= 2;
    tweaked[3].sched.pendingSlots += 1;
    tweaked[4].mem.timing.tRP += 1;
    tweaked[5].pimUnit.actafTicks += 1;
    tweaked[6].noc.syncLatency += 1;
    tweaked[7].pcie.latency += 1;
    for (std::size_t i = 0; i < tweaked.size(); ++i)
        EXPECT_NE(tweaked[i], base) << "tweak " << i;

    workloads::ModelConfig renamed = workloads::gpt2("m");
    renamed.name = "gpt2-m-copy";
    EXPECT_EQ(workloads::gpt2("m"), workloads::gpt2("m"));
    EXPECT_NE(renamed, workloads::gpt2("m"));
    compiler::BuildOptions forced;
    forced.fcPlacement = compiler::FcPlacement::ForcePim;
    EXPECT_NE(forced, compiler::BuildOptions{});

    // A replica one DRAM timing apart gets a store of its own.
    DevicePool pool;
    for (const SystemConfig &sys : {base, tweaked[4]})
        pool.addReplica(
            std::make_unique<CompiledModel>(sys, workloads::gpt2("m")));
    (void)pool.replica(0).prefillChunkStats(0, 32, true);
    (void)pool.replica(1).prefillChunkStats(0, 32, true);
    EXPECT_EQ(pool.replica(1).cacheStats().summarizationBuilds, 1u);
}

TEST(PoolStore, ThreadedShardedDrainBuildsEachKeyOnce)
{
    TraceOptions topts;
    topts.seed = 23;
    topts.requests = 48;
    topts.arrivalsPerSec = 600.0;
    topts.inputTokenChoices = {32, 64, 128};
    topts.outputTokenChoices = {2, 8, 24};
    const ArrivalTrace trace = generatePoissonTrace(topts);
    ServingOptions opts;
    opts.tokenStride = 4;

    // Unbatched service costs each request with CompiledModel::run, so
    // the distinct programs are those one model needs for the trace.
    CompiledModel solo(SystemConfig::ianusDefault(), workloads::gpt2("m"));
    for (const TimedRequest &t : trace.requests)
        (void)solo.run(t.request, opts.tokenStride);
    const std::uint64_t distinct = solo.cacheStats().builds();

    PoolOptions popts;
    popts.replicas = 4;
    std::vector<ServingReport> reports;
    for (std::size_t threads : {1u, 2u}) {
        // A cold pool per run, so both runs build from scratch.
        DevicePool pool(SystemConfig::ianusDefault(), workloads::gpt2("m"),
                        popts);
        ShardOptions shard;
        shard.shards = 2;
        shard.threads = threads;
        reports.push_back(
            drainSharded(pool, opts, trace, shard, "fcfs", "round-robin"));
        // Only the pool-wide sum is fixed: which replica builds a key
        // first depends on thread timing.
        EXPECT_EQ(poolBuilds(pool), distinct) << "threads " << threads;
    }

    // Every field of every result. drainSharded takes no completion
    // hook, but in this unbatched drain a request's cost is a pure
    // function of (deviceIndex, request) — both compared below — and
    // the aggregate check covers the stats themselves.
    const ServingReport &a = reports[0];
    const ServingReport &b = reports[1];
    ASSERT_EQ(a.results.size(), trace.requests.size());
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const RequestResult &x = a.results[i];
        const RequestResult &y = b.results[i];
        EXPECT_EQ(x.id, y.id) << i;
        EXPECT_EQ(x.request.inputTokens, y.request.inputTokens) << i;
        EXPECT_EQ(x.request.outputTokens, y.request.outputTokens) << i;
        EXPECT_EQ(x.arrivalMs, y.arrivalMs) << i;
        EXPECT_EQ(x.startMs, y.startMs) << i;
        EXPECT_EQ(x.finishMs, y.finishMs) << i;
        EXPECT_EQ(x.serviceMs, y.serviceMs) << i;
        EXPECT_EQ(x.firstTokenMs, y.firstTokenMs) << i;
        EXPECT_EQ(x.msPerToken, y.msPerToken) << i;
        EXPECT_EQ(x.sloMiss, y.sloMiss) << i;
        EXPECT_EQ(x.deadlineMiss, y.deadlineMiss) << i;
        EXPECT_EQ(x.prefixHit, y.prefixHit) << i;
        EXPECT_EQ(x.source, y.source) << i;
        EXPECT_EQ(x.deviceIndex, y.deviceIndex) << i;
        EXPECT_EQ(x.prefillIndex, y.prefillIndex) << i;
        EXPECT_EQ(x.kvTransferMs, y.kvTransferMs) << i;
        EXPECT_EQ(x.kvTransferTokens, y.kvTransferTokens) << i;
        EXPECT_EQ(x.meanBatchSize, y.meanBatchSize) << i;
        EXPECT_EQ(x.preemptions, y.preemptions) << i;
        EXPECT_EQ(x.suspendedMs, y.suspendedMs) << i;
        EXPECT_EQ(x.prefillChunks, y.prefillChunks) << i;
        EXPECT_EQ(x.sessionId, y.sessionId) << i;
        EXPECT_EQ(x.turnIndex, y.turnIndex) << i;
        EXPECT_EQ(x.prefixTokens, y.prefixTokens) << i;
        EXPECT_EQ(x.prefilledTokens, y.prefilledTokens) << i;
        EXPECT_EQ(x.generationSteps, y.generationSteps) << i;
    }
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_TRUE(sameBits(a.aggregate, b.aggregate));
}

TEST(PoolStore, ContinuousBatchingBuildsEachMultisetOncePerPool)
{
    // An offline burst of few shapes: equal replicas meet the same KV
    // multisets, each of them looked up on several replicas.
    TraceOptions topts;
    topts.seed = 5;
    topts.requests = 64;
    topts.arrivalsPerSec = 100'000.0;
    topts.inputTokenChoices = {32, 64};
    topts.outputTokenChoices = {16};
    const ArrivalTrace trace = generatePoissonTrace(topts);
    ServingOptions opts;
    opts.batching = BatchingMode::Continuous;
    opts.maxBatch = 8;
    opts.tokenStride = 4;
    PoolOptions popts;
    popts.replicas = 4;
    DevicePool pool(SystemConfig::ianusDefault(), workloads::gpt2("m"),
                    popts);
    // The same drain over four standalone models, a private store each.
    std::vector<std::unique_ptr<CompiledModel>> alone;
    std::vector<const CompiledModel *> view;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        alone.push_back(std::make_unique<CompiledModel>(
            SystemConfig::ianusDefault(), workloads::gpt2("m")));
        view.push_back(alone.back().get());
    }
    ServingEngine shared(pool, opts, makePolicy("fcfs"),
                         makeRouter("queue-depth"));
    ServingEngine apart(view, opts, makePolicy("fcfs"),
                        makeRouter("queue-depth"));
    submitAll(trace, shared);
    submitAll(trace, apart);
    const ServingReport a = shared.drain();
    const ServingReport b = apart.drain();
    EXPECT_TRUE(a.results == b.results);
    EXPECT_TRUE(sameBits(a.aggregate, b.aggregate));

    // No insert evicted a batched entry, so the pool's store holds the
    // multisets the whole drain looked up, and each private store those
    // its own replica looked up.
    const std::vector<std::vector<std::uint64_t>> distinct =
        pool.replica(0).batchedKeys();
    std::uint64_t builds = 0, held = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const CacheStats &c = pool.replica(i).cacheStats();
        const CacheStats &own = alone[i]->cacheStats();
        ASSERT_EQ(c.batchEvictions, 0u) << "replica " << i;
        ASSERT_EQ(own.batchEvictions, 0u) << "replica " << i;
        EXPECT_EQ(c.batchBuilds + c.batchHits, own.batchBuilds + own.batchHits)
            << "replica " << i;
        builds += c.batchBuilds;
        held += alone[i]->batchedKeys().size();
    }
    EXPECT_EQ(builds, distinct.size());
    EXPECT_LT(distinct.size(), held) << "no multiset recurred across "
                                        "replicas; the test shares nothing";

    // Every entry the store holds is a standalone twin's, bit for bit,
    // on every replica that reads it.
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const CompiledModel &r = pool.replica(i);
        CompiledModel twin(r.config(), r.model(), r.options());
        for (const std::vector<std::uint64_t> &kv : distinct)
            EXPECT_TRUE(sameBits(r.generationStepStats(kv),
                                 twin.generationStepStats(kv)))
                << "replica " << i << " batch of " << kv.size();
    }
}

} // namespace
