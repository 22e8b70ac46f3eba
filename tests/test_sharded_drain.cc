/**
 * @file Determinism contract of serve::drainSharded
 * (serve/sharded_drain.hh):
 *
 *  - shards == 1 reproduces a plain ServingEngine::drain bit for bit,
 *    across every router x policy, continuous batching,
 *    preemption + chunking, and KV queue admission;
 *  - the merged report is independent of the worker thread count —
 *    the serial execution (threads == 1) is the reference the
 *    parallel one must match field for field, over shards 1/2/4/8;
 *  - with shards > 1 the merge conserves requests, ids, tokens, and
 *    device attribution even though the partition changes placement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/sharded_drain.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

/** Field-exact report comparison: doubles with EXPECT_EQ, not _NEAR —
 *  the contract is bit-identity, not closeness. */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b,
                       const std::string &cell)
{
    ASSERT_EQ(a.results.size(), b.results.size()) << cell;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const RequestResult &x = a.results[i];
        const RequestResult &y = b.results[i];
        const std::string at = cell + " result " + std::to_string(i);
        EXPECT_EQ(x.id, y.id) << at;
        EXPECT_EQ(x.deviceIndex, y.deviceIndex) << at;
        EXPECT_EQ(x.arrivalMs, y.arrivalMs) << at;
        EXPECT_EQ(x.startMs, y.startMs) << at;
        EXPECT_EQ(x.firstTokenMs, y.firstTokenMs) << at;
        EXPECT_EQ(x.finishMs, y.finishMs) << at;
        EXPECT_EQ(x.serviceMs, y.serviceMs) << at;
        EXPECT_EQ(x.suspendedMs, y.suspendedMs) << at;
        EXPECT_EQ(x.preemptions, y.preemptions) << at;
        EXPECT_EQ(x.prefillChunks, y.prefillChunks) << at;
        EXPECT_EQ(x.meanBatchSize, y.meanBatchSize) << at;
        EXPECT_EQ(x.sloMiss, y.sloMiss) << at;
        EXPECT_EQ(x.deadlineMiss, y.deadlineMiss) << at;
    }
    ASSERT_EQ(a.replicas.size(), b.replicas.size()) << cell;
    for (std::size_t d = 0; d < a.replicas.size(); ++d) {
        const ReplicaUtilization &x = a.replicas[d];
        const ReplicaUtilization &y = b.replicas[d];
        const std::string at = cell + " replica " + std::to_string(d);
        EXPECT_EQ(x.dispatched, y.dispatched) << at;
        EXPECT_EQ(x.busyMs, y.busyMs) << at;
        EXPECT_EQ(x.idleMs, y.idleMs) << at;
        EXPECT_EQ(x.utilization, y.utilization) << at;
    }
    EXPECT_EQ(a.policy, b.policy) << cell;
    EXPECT_EQ(a.router, b.router) << cell;
    EXPECT_EQ(a.batching, b.batching) << cell;
    EXPECT_EQ(a.makespanMs, b.makespanMs) << cell;
    EXPECT_EQ(a.generatedTokens, b.generatedTokens) << cell;
    EXPECT_EQ(a.simEvents, b.simEvents) << cell;
    EXPECT_EQ(a.kvShed, b.kvShed) << cell;
    EXPECT_EQ(a.kvPeakPressure, b.kvPeakPressure) << cell;
    EXPECT_EQ(a.kvMeanFragmentation, b.kvMeanFragmentation) << cell;
    EXPECT_EQ(a.kvFragWasteTokens, b.kvFragWasteTokens) << cell;
    EXPECT_EQ(a.kvFragGrossTokens, b.kvFragGrossTokens) << cell;
    EXPECT_EQ(a.kvSpilledSegments, b.kvSpilledSegments) << cell;
    EXPECT_EQ(a.kvMaxDilation, b.kvMaxDilation) << cell;
    EXPECT_EQ(a.prefixHits, b.prefixHits) << cell;
    EXPECT_EQ(a.prefixMisses, b.prefixMisses) << cell;
    EXPECT_EQ(a.prefillTokensSaved, b.prefillTokensSaved) << cell;
    EXPECT_EQ(a.aggregate.commands, b.aggregate.commands) << cell;
    EXPECT_EQ(a.aggregate.muFlops, b.aggregate.muFlops) << cell;
    EXPECT_EQ(a.aggregate.dramReadBytes, b.aggregate.dramReadBytes)
        << cell;
    EXPECT_EQ(a.aggregate.wallTicks, b.aggregate.wallTicks) << cell;
}

/** Heterogeneous 8-replica pool (alternating IANUS / NPU-MEM) so
 *  estimate-driven routers see skewed signals in every shard. */
DevicePool
makePool(const workloads::ModelConfig &model, std::size_t replicas)
{
    DevicePool pool;
    for (std::size_t i = 0; i < replicas; ++i)
        pool.addReplica(std::make_unique<CompiledModel>(
            i % 2 == 0 ? SystemConfig::ianusDefault()
                       : SystemConfig::npuMem(),
            model));
    return pool;
}

ArrivalTrace
makeTrace(std::size_t requests)
{
    TraceOptions topts;
    topts.seed = 11;
    topts.requests = requests;
    topts.arrivalsPerSec = 600.0;
    topts.inputTokenChoices = {32, 64, 128};
    topts.outputTokenChoices = {2, 8, 24};
    return generatePoissonTrace(topts);
}

/** Cells of the reduced sweep grid the contract is enforced over. */
struct GridCell
{
    std::string router;
    std::string policy;
    BatchingMode batching = BatchingMode::None;
    std::size_t maxBatch = 1;
    bool preempt = false;
    std::uint64_t chunk = 0;
    bool kvQueue = false;
};

std::vector<GridCell>
reducedGrid()
{
    std::vector<GridCell> cells;
    // Every router x policy on the plain path.
    for (const char *router :
         {"round-robin", "least-loaded", "queue-depth",
          "predicted-finish", "kv-affinity"})
        for (const char *policy : {"fcfs", "sjf", "edf"})
            cells.push_back({router, policy});
    // Continuous batching, preemption + chunking, KV queue admission.
    cells.push_back(
        {"queue-depth", "sjf", BatchingMode::Continuous, 4});
    cells.push_back(
        {"round-robin", "edf", BatchingMode::None, 1, true, 64});
    GridCell kv{"kv-affinity", "fcfs"};
    kv.kvQueue = true;
    cells.push_back(kv);
    return cells;
}

ServingOptions
optionsFor(const GridCell &cell)
{
    ServingOptions opts;
    opts.batching = cell.batching;
    opts.maxBatch = cell.maxBatch;
    opts.preempt = cell.preempt;
    opts.prefillChunk = cell.chunk;
    opts.tokenStride = 4;
    if (cell.kvQueue) {
        opts.kv.capacityTokens = 384;
        opts.kv.blockTokens = 16;
        opts.kv.admission = KvAdmission::Queue;
    }
    return opts;
}

std::string
cellName(const GridCell &cell)
{
    return cell.router + "/" + cell.policy + "/" +
           toString(cell.batching) + (cell.preempt ? "/preempt" : "") +
           (cell.chunk ? "/chunk" : "") + (cell.kvQueue ? "/kvq" : "");
}

// With shards == 1, drainSharded is the identity wrapper: its report
// must match a plain ServingEngine::drain bit for bit on every grid
// cell (the merge adds nothing, removes nothing, and reorders
// nothing).
TEST(ShardedDrain, SingleShardMatchesPlainDrainAcrossGrid)
{
    workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool = makePool(model, 4);
    ArrivalTrace trace = makeTrace(12);

    for (const GridCell &cell : reducedGrid()) {
        ServingOptions opts = optionsFor(cell);

        ServingEngine engine(pool, opts, makePolicy(cell.policy),
                             makeRouter(cell.router));
        submitAll(trace, engine);
        ServingReport plain = engine.drain();

        ShardOptions shard;
        shard.shards = 1;
        ServingReport merged = drainSharded(pool, opts, trace, shard,
                                            cell.policy, cell.router);

        EXPECT_EQ(merged.shards, 1u);
        expectReportsIdentical(plain, merged, cellName(cell));
    }
}

// The thread count is pure wall-clock policy: for every shard count in
// {1, 2, 4, 8}, running the shards serially (threads == 1) and on one
// thread per shard (threads == 0) must produce field-identical merged
// reports, on both a plain cell and a preempt + chunk + batching cell.
TEST(ShardedDrain, ParallelMatchesSerialAcrossShardCounts)
{
    workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool = makePool(model, 8);
    ArrivalTrace trace = makeTrace(24);

    std::vector<GridCell> cells;
    cells.push_back({"queue-depth", "sjf"});
    cells.push_back(
        {"round-robin", "edf", BatchingMode::Continuous, 4, true, 64});

    for (const GridCell &cell : cells)
        for (std::size_t shards : {1u, 2u, 4u, 8u}) {
            ServingOptions opts = optionsFor(cell);
            ShardOptions serial;
            serial.shards = shards;
            serial.threads = 1;
            ShardOptions parallel;
            parallel.shards = shards;
            parallel.threads = 0; // one worker per shard

            ServingReport a = drainSharded(pool, opts, trace, serial,
                                           cell.policy, cell.router);
            ServingReport b = drainSharded(pool, opts, trace, parallel,
                                           cell.policy, cell.router);

            const std::string name =
                cellName(cell) + "/S=" + std::to_string(shards);
            EXPECT_EQ(a.shards, shards) << name;
            EXPECT_EQ(b.shards, shards) << name;
            expectReportsIdentical(a, b, name);
        }
}

// Oversubscribed workers (threads > shards clamps; threads == 3 over 8
// shards makes workers steal uneven slices) still match the serial
// reference.
TEST(ShardedDrain, OddThreadCountsMatchSerial)
{
    workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool = makePool(model, 8);
    ArrivalTrace trace = makeTrace(16);
    ServingOptions opts;
    opts.tokenStride = 4;

    ShardOptions serial;
    serial.shards = 8;
    serial.threads = 1;
    ServingReport ref =
        drainSharded(pool, opts, trace, serial, "sjf", "queue-depth");

    for (std::size_t threads : {2u, 3u, 5u, 16u}) {
        ShardOptions par;
        par.shards = 8;
        par.threads = threads;
        ServingReport rep =
            drainSharded(pool, opts, trace, par, "sjf", "queue-depth");
        expectReportsIdentical(ref, rep,
                               "threads=" + std::to_string(threads));
    }
}

// Merge conservation with shards > 1: placement changes (that is the
// partition's documented effect) but nothing is lost — every trace
// position completes exactly once, each request is served inside its
// shard's replica range, completion times are non-decreasing in the
// merged order, and summed counters match the per-result tallies.
TEST(ShardedDrain, MergeConservesRequestsAndAttribution)
{
    workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool = makePool(model, 8);
    ArrivalTrace trace = makeTrace(24);
    ServingOptions opts;
    opts.tokenStride = 4;

    for (std::size_t shards : {2u, 4u, 8u}) {
        ShardOptions sh;
        sh.shards = shards;
        ServingReport rep =
            drainSharded(pool, opts, trace, sh, "fcfs", "round-robin");
        const std::string name = "S=" + std::to_string(shards);

        ASSERT_EQ(rep.results.size(), trace.size()) << name;
        EXPECT_EQ(rep.shards, shards) << name;

        std::set<std::uint64_t> ids;
        std::uint64_t tokens = 0;
        double prev_finish = 0.0;
        for (const RequestResult &r : rep.results) {
            ids.insert(r.id);
            tokens += r.request.outputTokens;
            // Request at trace position i runs on shard i % S, whose
            // replicas are [s*R/S, (s+1)*R/S).
            const std::size_t s = r.id % shards;
            const std::size_t R = pool.size();
            EXPECT_GE(r.deviceIndex, s * R / shards) << name;
            EXPECT_LT(r.deviceIndex, (s + 1) * R / shards) << name;
            EXPECT_GE(r.finishMs, prev_finish) << name;
            prev_finish = r.finishMs;
        }
        EXPECT_EQ(ids.size(), trace.size()) << name;
        EXPECT_EQ(*ids.begin(), 0u) << name;
        EXPECT_EQ(*ids.rbegin(), trace.size() - 1) << name;
        EXPECT_EQ(rep.generatedTokens, tokens) << name;

        std::uint64_t dispatched = 0;
        for (const ReplicaUtilization &u : rep.replicas)
            dispatched += u.dispatched;
        EXPECT_EQ(dispatched, trace.size() + rep.preemptions()) << name;

        double last_finish = 0.0;
        for (const RequestResult &r : rep.results)
            last_finish = std::max(last_finish, r.finishMs);
        EXPECT_EQ(rep.makespanMs,
                  last_finish - trace.requests.front().arrivalMs)
            << name;
        for (const ReplicaUtilization &u : rep.replicas)
            EXPECT_DOUBLE_EQ(u.busyMs + u.idleMs, rep.makespanMs)
                << name;
        EXPECT_GT(rep.simEvents, 0u) << name;
    }
}

// An uneven partition (R not divisible by S) assigns floor/ceil-sized
// replica ranges that still cover the pool exactly.
TEST(ShardedDrain, UnevenPartitionCoversPool)
{
    workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool = makePool(model, 5);
    ArrivalTrace trace = makeTrace(10);
    ServingOptions opts;
    opts.tokenStride = 4;

    ShardOptions sh;
    sh.shards = 3; // ranges [0,1) [1,3) [3,5)
    ServingReport rep =
        drainSharded(pool, opts, trace, sh, "fcfs", "round-robin");
    ASSERT_EQ(rep.results.size(), trace.size());
    ASSERT_EQ(rep.replicas.size(), 5u);
    for (const RequestResult &r : rep.results) {
        const std::size_t s = r.id % 3;
        EXPECT_GE(r.deviceIndex, s * 5 / 3);
        EXPECT_LT(r.deviceIndex, (s + 1) * 5 / 3);
    }
}

// A non-stationary diurnal trace obeys the same contract as the
// Poisson cells: shards == 1 matches the plain drain bit for bit, and
// the merged report is thread-count independent at every shard count.
// The peak window concentrates arrivals, so the round-robin pre-pass
// hands shards bursty, uneven interleavings — exactly the case a
// merge-ordering bug would hide in under uniform load.
TEST(ShardedDrain, DiurnalTraceIsShardAndThreadCountInvariant)
{
    workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool = makePool(model, 4);

    DiurnalOptions dopts;
    dopts.seed = 19;
    dopts.profile = parseRateProfile("steps:4000:40,160,40");
    dopts.inputTokenChoices = {32, 64, 128};
    dopts.outputTokenChoices = {2, 8, 24};
    ArrivalTrace trace = generateDiurnalTrace(dopts);
    ASSERT_GT(trace.size(), 20u);

    ServingOptions opts;
    opts.tokenStride = 4;
    ServingEngine engine(pool, opts, makePolicy("fcfs"),
                         makeRouter("round-robin"));
    submitAll(trace, engine);
    ServingReport plain = engine.drain();

    ShardOptions one;
    one.shards = 1;
    expectReportsIdentical(
        plain,
        drainSharded(pool, opts, trace, one, "fcfs", "round-robin"),
        "diurnal/S=1");

    for (std::size_t shards : {2u, 4u}) {
        ShardOptions serial;
        serial.shards = shards;
        serial.threads = 1;
        ShardOptions parallel;
        parallel.shards = shards;
        parallel.threads = 0;
        expectReportsIdentical(
            drainSharded(pool, opts, trace, serial, "fcfs",
                         "round-robin"),
            drainSharded(pool, opts, trace, parallel, "fcfs",
                         "round-robin"),
            "diurnal/S=" + std::to_string(shards));
    }
}

// Source tags ride through the shard partition and merge untouched:
// every result keeps the tag its trace row carried in.
TEST(ShardedDrain, SourceTagsSurviveTheMerge)
{
    workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool = makePool(model, 4);
    ArrivalTrace trace = makeTrace(16);
    for (std::size_t i = 0; i < trace.requests.size(); ++i)
        trace.requests[i].source =
            i % 3 == 0 ? kInteractiveSource : kBatchSource;

    ServingOptions opts;
    opts.tokenStride = 4;
    ShardOptions sh;
    sh.shards = 4;
    ServingReport rep =
        drainSharded(pool, opts, trace, sh, "fcfs", "round-robin");
    ASSERT_EQ(rep.results.size(), trace.size());
    for (const RequestResult &r : rep.results)
        EXPECT_EQ(r.source, trace.requests[r.id].source)
            << "request " << r.id;

    std::vector<SourceSlice> slices = rep.sourceSlices();
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(slices[0].requests + slices[1].requests, trace.size());
}

/** Routes every request one past the shard's last replica. */
struct OutOfRangeRouter : Router
{
    const char *name() const override { return "oob"; }
    std::size_t route(const QueuedRequest &,
                      const std::vector<ReplicaStatus> &replicas,
                      double) override
    {
        return replicas.size();
    }
};

// A fatal inside a shard reaches the caller as an exception for every
// thread count, never std::terminate from a worker thread. Three
// replicas in two shards give the shards different sizes, so each
// shard's message names its own size: the lowest-indexed shard's
// failure is the one rethrown.
TEST(ShardedDrain, WorkerFailureReachesTheCaller)
{
    DevicePool pool = makePool(workloads::gpt2("m"), 3);
    ArrivalTrace trace = makeTrace(8);
    ServingOptions opts;
    opts.tokenStride = 4;

    std::vector<std::string> messages;
    for (std::size_t threads : {1u, 2u}) {
        ShardOptions sh;
        sh.shards = 2;
        sh.threads = threads;
        try {
            (void)drainSharded(pool, opts, trace, sh, PolicyFactory{}, [] {
                return std::make_unique<OutOfRangeRouter>();
            });
            ADD_FAILURE() << "threads " << threads << ": no exception";
        } catch (const std::runtime_error &e) {
            messages.push_back(e.what());
        }
    }
    ASSERT_EQ(messages.size(), 2u);
    EXPECT_EQ(messages[0], messages[1]);
    EXPECT_NE(messages[0].find("returned out-of-range replica 1 (pool "
                               "has 1)"),
              std::string::npos)
        << messages[0];
}

} // namespace
