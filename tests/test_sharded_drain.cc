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
 *    device attribution even though the partition changes placement;
 *  - the streamed merge equals an independent forward merge by
 *    (completion tick, shard), every result field, ties included,
 *    also when one shard lags far behind the others in wall-clock
 *    time, and a shard failing mid-stream reaches the caller;
 *  - a trace or options a plain drain rejects are fatal with its
 *    message, before any shard runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
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

static_assert(sizeof(RequestResult) == 184,
              "RequestResult changed: compare its new fields in "
              "expectEveryResultFieldEqual");

/** Every RequestResult field, compared exactly. */
void
expectEveryResultFieldEqual(const RequestResult &x, const RequestResult &y,
                            const std::string &at)
{
    EXPECT_EQ(x.id, y.id) << at;
    EXPECT_EQ(x.request.inputTokens, y.request.inputTokens) << at;
    EXPECT_EQ(x.request.outputTokens, y.request.outputTokens) << at;
    EXPECT_EQ(x.arrivalMs, y.arrivalMs) << at;
    EXPECT_EQ(x.startMs, y.startMs) << at;
    EXPECT_EQ(x.finishMs, y.finishMs) << at;
    EXPECT_EQ(x.serviceMs, y.serviceMs) << at;
    EXPECT_EQ(x.firstTokenMs, y.firstTokenMs) << at;
    EXPECT_EQ(x.msPerToken, y.msPerToken) << at;
    EXPECT_EQ(x.sloMiss, y.sloMiss) << at;
    EXPECT_EQ(x.deadlineMiss, y.deadlineMiss) << at;
    EXPECT_EQ(x.prefixHit, y.prefixHit) << at;
    EXPECT_EQ(x.source, y.source) << at;
    EXPECT_EQ(x.deviceIndex, y.deviceIndex) << at;
    EXPECT_EQ(x.prefillIndex, y.prefillIndex) << at;
    EXPECT_EQ(x.kvTransferMs, y.kvTransferMs) << at;
    EXPECT_EQ(x.kvTransferTokens, y.kvTransferTokens) << at;
    EXPECT_EQ(x.meanBatchSize, y.meanBatchSize) << at;
    EXPECT_EQ(x.preemptions, y.preemptions) << at;
    EXPECT_EQ(x.suspendedMs, y.suspendedMs) << at;
    EXPECT_EQ(x.prefillChunks, y.prefillChunks) << at;
    EXPECT_EQ(x.sessionId, y.sessionId) << at;
    EXPECT_EQ(x.turnIndex, y.turnIndex) << at;
    EXPECT_EQ(x.prefixTokens, y.prefixTokens) << at;
    EXPECT_EQ(x.prefilledTokens, y.prefilledTokens) << at;
    EXPECT_EQ(x.generationSteps, y.generationSteps) << at;
}

void
expectEveryResultFieldEqual(const std::vector<RequestResult> &a,
                            const std::vector<RequestResult> &b,
                            const std::string &cell)
{
    ASSERT_EQ(a.size(), b.size()) << cell;
    for (std::size_t i = 0; i < a.size(); ++i)
        expectEveryResultFieldEqual(a[i], b[i],
                                    cell + " result " + std::to_string(i));
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

// The name-based overload must build each shard's router with the
// drain's own SLO: an slo-budget router left at the default 10 ms/token
// disagrees with a plain drain at 2 ms/token in all 60 of these
// results, although shards == 1 must reproduce a plain drain.
TEST(ShardedDrain, NamedSloBudgetRouterUsesTheDrainsSlo)
{
    const workloads::ModelConfig model = workloads::gpt2("m");
    DevicePool pool;
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::ianusDefault(), model));
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model));
    TraceOptions topts;
    topts.seed = 3;
    topts.requests = 60;
    topts.arrivalsPerSec = 40.0;
    const ArrivalTrace trace = generatePoissonTrace(topts);
    ServingOptions opts;
    opts.tokenStride = 4;
    opts.sloMsPerToken = 2.0;

    ServingEngine engine(pool, opts, makePolicy("fcfs"),
                         makeRouter("slo-budget", opts.sloMsPerToken));
    submitAll(trace, engine);
    const ServingReport plain = engine.drain();
    ShardOptions shard;
    shard.shards = 1;
    const ServingReport merged =
        drainSharded(pool, opts, trace, shard, "fcfs", "slo-budget");
    expectReportsIdentical(plain, merged, "slo-budget at 2 ms/token");
    expectEveryResultFieldEqual(plain.results, merged.results,
                                "slo-budget at 2 ms/token");
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

    // One shard is a plain drain, tags included: submitAll forwards
    // them as drainSharded does.
    ServingEngine engine(pool, opts, makePolicy("fcfs"),
                         makeRouter("round-robin"));
    submitAll(trace, engine);
    ServingReport plain = engine.drain();
    sh.shards = 1;
    ServingReport one =
        drainSharded(pool, opts, trace, sh, "fcfs", "round-robin");
    expectEveryResultFieldEqual(plain.results, one.results, "S=1");
    EXPECT_EQ(plain.sourceSlices().size(), 2u);
}

/**
 * The merge drainSharded documents, rebuilt independently of it: the
 * same partition (whole sessions, round-robin), one plain ServingEngine
 * per shard over a replica view, and a forward k-way merge of the
 * per-shard results by (completion tick, shard), with ids and devices
 * mapped back to the trace and the pool. Sets @p makespan_ms the way
 * the merged report defines it.
 */
std::vector<RequestResult>
forwardMergedResults(const DevicePool &pool, const ServingOptions &opts,
                     const ArrivalTrace &trace, std::size_t shards,
                     const std::string &policy, const std::string &router,
                     double &makespan_ms)
{
    const std::size_t R = pool.size();
    std::vector<ArrivalTrace> part(shards);
    std::vector<std::vector<std::size_t>> global(shards);
    std::map<std::uint64_t, std::size_t> sessionShard;
    std::size_t rr = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint64_t sid = trace.requests[i].sessionId;
        std::size_t s = rr % shards;
        if (sid == 0) {
            ++rr;
        } else {
            auto [it, fresh] = sessionShard.emplace(sid, s);
            rr += fresh ? 1 : 0;
            s = it->second;
        }
        part[s].requests.push_back(trace.requests[i]);
        global[s].push_back(i);
    }

    std::vector<std::vector<RequestResult>> done(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t lo = s * R / shards;
        std::vector<const CompiledModel *> view;
        for (std::size_t d = lo; d < (s + 1) * R / shards; ++d)
            view.push_back(&pool.replica(d));
        ServingEngine engine(view, opts, makePolicy(policy),
                             makeRouter(router));
        submitAll(part[s], engine);
        done[s] = engine.drain().results;
        for (RequestResult &r : done[s]) {
            r.id = global[s].at(static_cast<std::size_t>(r.id));
            r.deviceIndex += lo;
            r.prefillIndex += lo;
        }
    }

    const double first = trace.requests.front().arrivalMs;
    double last = first;
    std::vector<RequestResult> merged;
    std::vector<std::size_t> head(shards, 0);
    for (;;) {
        std::size_t pick = shards;
        Tick pick_tick = 0;
        for (std::size_t s = 0; s < shards; ++s) {
            if (head[s] == done[s].size())
                continue;
            const Tick tick = msToTicks(done[s][head[s]].finishMs);
            if (pick == shards || tick < pick_tick) {
                pick = s;
                pick_tick = tick;
            }
        }
        if (pick == shards)
            break;
        merged.push_back(done[pick][head[pick]++]);
        last = std::max(last, merged.back().finishMs);
    }
    makespan_ms = last - first;
    return merged;
}

/** One trace and the options it drains under. */
struct MergeCase
{
    std::string name;
    ArrivalTrace trace;
    ServingOptions opts;
};

std::vector<MergeCase>
mergeCases()
{
    std::vector<MergeCase> cases;
    ServingOptions plain;
    plain.tokenStride = 4;
    cases.push_back({"poisson", makeTrace(48), plain});

    // One shape, all at t = 0: equal replicas in different shards
    // finish on the same ticks, so the merge's tie rule decides.
    ArrivalTrace burst;
    for (std::size_t i = 0; i < 48; ++i)
        burst.requests.push_back({{64, 8}, 0.0});
    cases.push_back({"ties", burst, plain});

    SessionOptions so;
    so.seed = 5;
    so.sessions = 16;
    so.sessionsPerSec = 40.0;
    ServingOptions prefix = plain;
    prefix.prefixCache = true;
    cases.push_back({"sessions", generateSessionTrace(so), prefix});

    // A KV pool too small for the longest requests: shards shed some,
    // so they return fewer results than they were given.
    TraceOptions to;
    to.seed = 3;
    to.requests = 48;
    to.arrivalsPerSec = 600.0;
    to.inputTokenChoices = {32, 64};
    to.outputTokenChoices = {8, 300};
    ServingOptions shed = plain;
    shed.batching = BatchingMode::Continuous;
    shed.maxBatch = 4;
    shed.kv.capacityTokens = 384;
    shed.kv.blockTokens = 16;
    shed.kv.admission = KvAdmission::Shed;
    cases.push_back({"shed", generatePoissonTrace(to), shed});
    return cases;
}

// The in-place merge against an independent forward merge: S = 2, 3
// and 4 shards of 4 replicas, run serially and one thread per shard,
// over a Poisson trace, an all-at-once trace full of tick ties, a
// session trace with the prefix cache, and shed admission. Every
// result field and the makespan must match.
TEST(ShardedDrain, InPlaceMergeMatchesAForwardMerge)
{
    DevicePool pool = makePool(workloads::gpt2("m"), 4);
    for (const MergeCase &c : mergeCases()) {
        for (std::size_t shards : {2u, 3u, 4u}) {
            double makespan = 0.0;
            const std::vector<RequestResult> ref = forwardMergedResults(
                pool, c.opts, c.trace, shards, "fcfs", "round-robin",
                makespan);
            std::size_t ties = 0;
            for (std::size_t i = 1; i < ref.size(); ++i)
                ties += msToTicks(ref[i].finishMs) ==
                        msToTicks(ref[i - 1].finishMs);
            if (c.name == "ties") {
                EXPECT_GE(ties, ref.size() / 4) << "S=" << shards;
            }
            for (std::size_t threads : {std::size_t{1}, shards}) {
                ShardOptions sh;
                sh.shards = shards;
                sh.threads = threads;
                const ServingReport rep = drainSharded(
                    pool, c.opts, c.trace, sh, "fcfs", "round-robin");
                const std::string cell = c.name + "/S=" +
                                         std::to_string(shards) + "/T=" +
                                         std::to_string(threads);
                if (c.name == "shed") {
                    EXPECT_GT(rep.kvShed, 0u) << cell;
                    EXPECT_EQ(rep.results.size() + rep.kvShed,
                              c.trace.size())
                        << cell;
                } else {
                    EXPECT_EQ(rep.results.size(), c.trace.size()) << cell;
                }
                if (c.name == "sessions") {
                    EXPECT_GT(rep.prefixHits, 0u) << cell;
                }
                expectEveryResultFieldEqual(ref, rep.results, cell);
                EXPECT_EQ(rep.makespanMs, makespan) << cell;
            }
        }
    }
}

/** Returns the number of offered rows: one past the shard's last
 *  replica on its first route, when every replica accepts. */
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
    EXPECT_NE(messages[0].find("returned replica 1, which was not offered "
                               "(pool has 1)"),
              std::string::npos)
        << messages[0];
}

/** What a plain engine over @p pool throws for @p opts and @p trace:
 *  at construction, or at the submit of the first bad row. */
std::string
plainFatal(const DevicePool &pool, const ServingOptions &opts,
           const ArrivalTrace &trace)
{
    try {
        ServingEngine engine(pool, opts);
        submitAll(trace, engine);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    ADD_FAILURE() << "a plain engine accepted the input";
    return {};
}

// Rows sorted within every shard but not across the trace: a plain
// drain rejects them at the submit, so drainSharded must too, with the
// same message, for one thread and one per shard. (It once checked
// each row against its own shard's previous row only, and drained
// them into a report whose makespan ended before the last finish.) An
// invalid option fails the same way, on the calling thread, before
// any shard runs: no shard builds its router.
TEST(ShardedDrain, UnsortedTraceIsFatalAsInAPlainDrain)
{
    DevicePool pool = makePool(workloads::gpt2("m"), 4);
    auto arriving = [](std::initializer_list<double> arrivals) {
        ArrivalTrace t;
        for (double a : arrivals)
            t.requests.push_back({{64, 8}, a});
        return t;
    };
    ServingOptions plain;
    plain.tokenStride = 4;
    ServingOptions zeroStride = plain;
    zeroStride.tokenStride = 0;
    struct Case
    {
        std::size_t shards;
        ServingOptions opts;
        ArrivalTrace trace;
        std::string rule;
    };
    // Three shards take rows 0 and 3, 1 and 4, 2 and 5: each pair is
    // sorted, but 5 ms follows 20 ms in the trace.
    const std::vector<Case> cases = {
        {2, plain, arriving({50.0, 0.0}),
         "request arrivals must be non-decreasing (got 0 ms after 50 ms)"},
        {3, plain, arriving({0.0, 10.0, 20.0, 5.0, 15.0, 25.0}),
         "request arrivals must be non-decreasing (got 5 ms after 20 ms)"},
        {2, zeroStride, makeTrace(8), "token stride must be positive"},
        {3, zeroStride, makeTrace(8), "token stride must be positive"},
    };
    for (const Case &c : cases) {
        const std::string want = plainFatal(pool, c.opts, c.trace);
        EXPECT_NE(want.find(c.rule), std::string::npos) << want;
        for (std::size_t threads : {std::size_t{1}, c.shards}) {
            const std::string cell = c.rule + " S=" +
                                     std::to_string(c.shards) + " T=" +
                                     std::to_string(threads);
            ShardOptions sh;
            sh.shards = c.shards;
            sh.threads = threads;
            std::atomic<std::size_t> routers{0};
            try {
                (void)drainSharded(pool, c.opts, c.trace, sh,
                                   PolicyFactory{},
                                   [&routers]() -> std::unique_ptr<Router> {
                                       ++routers;
                                       return std::make_unique<
                                           RoundRobinRouter>();
                                   });
                ADD_FAILURE() << cell << ": no exception";
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(e.what(), want) << cell;
            }
            EXPECT_EQ(routers.load(), 0u) << cell;
        }
    }
}

/** Round-robin routing that sleeps ~20 us per call, so its shard lags
 *  the others in wall-clock time (never in simulated time). */
struct SlowRouter : RoundRobinRouter
{
    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override
    {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        return RoundRobinRouter::route(request, replicas, now_ms);
    }
};

// One slow shard: the other shards' results wait in the merge stream
// behind its watermark instead of being placed as they come. (A drain
// publishes a chunk per 1024th of its trace, so these small traces
// stream result by result.) The merged results must not change: every
// field and the makespan equal the forward merge, for S = 2, 3 and 4,
// serially and one thread per shard. Besides the merge cases, a burst
// served in continuous batches of 4 finishes several results of one
// shard on one tick, which other shards' results tie with: a shard
// that has published some of them must still hold back the rest.
TEST(ShardedDrain, LaggingShardLeavesTheMergeUnchanged)
{
    DevicePool pool = makePool(workloads::gpt2("m"), 4);
    std::vector<MergeCase> cases = mergeCases();
    MergeCase batched = cases[1];
    batched.name = "batched ties";
    batched.opts.batching = BatchingMode::Continuous;
    batched.opts.maxBatch = 4;
    cases.push_back(batched);
    for (const MergeCase &c : cases) {
        for (std::size_t shards : {2u, 3u, 4u}) {
            double makespan = 0.0;
            const std::vector<RequestResult> ref = forwardMergedResults(
                pool, c.opts, c.trace, shards, "fcfs", "round-robin",
                makespan);
            for (std::size_t threads : {std::size_t{1}, shards}) {
                ShardOptions sh;
                sh.shards = shards;
                sh.threads = threads;
                std::atomic<std::size_t> made{0};
                const ServingReport rep = drainSharded(
                    pool, c.opts, c.trace, sh, PolicyFactory{},
                    [&made]() -> std::unique_ptr<Router> {
                        if (made.fetch_add(1) == 0)
                            return std::make_unique<SlowRouter>();
                        return std::make_unique<RoundRobinRouter>();
                    });
                const std::string cell = c.name + "/S=" +
                                         std::to_string(shards) + "/T=" +
                                         std::to_string(threads);
                expectEveryResultFieldEqual(ref, rep.results, cell);
                EXPECT_EQ(rep.makespanMs, makespan) << cell;
            }
        }
    }
}

/** Round-robin routing that throws once it has routed @p limit
 *  requests. */
struct GivingUpRouter : RoundRobinRouter
{
    explicit GivingUpRouter(std::size_t limit) : left(limit) {}

    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override
    {
        if (left-- == 0)
            throw std::runtime_error("router gave up mid-stream");
        return RoundRobinRouter::route(request, replicas, now_ms);
    }

    std::size_t left;
};

// A shard that fails after its first results are in the merge stream
// (48 requests publish result by result, and the router gives up after
// 8 of its at least 12): the other shards keep publishing into a merge
// that can no longer complete, and the caller still gets the failure,
// for one thread and one per shard, without waiting on the dead shard.
// The sanitizer builds check that no chunk leaks.
TEST(ShardedDrain, MidStreamFailureReachesTheCaller)
{
    DevicePool pool = makePool(workloads::gpt2("m"), 4);
    ArrivalTrace trace = makeTrace(48);
    ServingOptions opts;
    opts.tokenStride = 4;
    for (std::size_t shards : {2u, 3u, 4u}) {
        std::vector<std::string> messages;
        for (std::size_t threads : {std::size_t{1}, shards}) {
            ShardOptions sh;
            sh.shards = shards;
            sh.threads = threads;
            std::atomic<std::size_t> made{0};
            try {
                (void)drainSharded(
                    pool, opts, trace, sh, PolicyFactory{},
                    [&made]() -> std::unique_ptr<Router> {
                        if (made.fetch_add(1) == 0)
                            return std::make_unique<GivingUpRouter>(8);
                        return std::make_unique<RoundRobinRouter>();
                    });
                ADD_FAILURE() << "S=" << shards << " threads " << threads
                              << ": no exception";
            } catch (const std::runtime_error &e) {
                messages.push_back(e.what());
            }
        }
        ASSERT_EQ(messages.size(), 2u) << "S=" << shards;
        EXPECT_EQ(messages[0], "router gave up mid-stream");
        EXPECT_EQ(messages[1], messages[0]);
    }
}

} // namespace
