/** @file Cluster serving: pool scaling, routers, policies, contracts. */

#include <gtest/gtest.h>

#include <algorithm>

#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using serve::ServingReport;
using workloads::InferenceRequest;

workloads::ModelConfig m = workloads::gpt2("m");

serve::DevicePool
makePool(std::size_t replicas,
         const SystemConfig &cfg = SystemConfig::ianusDefault())
{
    serve::PoolOptions opts;
    opts.replicas = replicas;
    return serve::DevicePool(cfg, m, opts);
}

/** A saturating trace: arrivals far faster than one replica can serve. */
serve::ArrivalTrace
saturatingTrace(std::size_t requests, std::uint64_t seed = 42)
{
    serve::TraceOptions opts;
    opts.seed = seed;
    opts.requests = requests;
    opts.arrivalsPerSec = 10000.0;
    opts.inputTokenChoices = {64, 128};
    opts.outputTokenChoices = {2, 4, 8};
    return serve::generatePoissonTrace(opts);
}

// The event-driven drain must reproduce the synchronous PR-1 serving
// loop bit for bit on a single FCFS replica: same model.run calls, same
// double arithmetic, same ordering.
TEST(ClusterServing, SingleReplicaFcfsMatchesSynchronousLoop)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    struct Timed
    {
        InferenceRequest req;
        double arrivalMs;
    };
    std::vector<Timed> mix = {{{64, 4}, 0.0},
                              {{128, 2}, 0.0},
                              {{64, 8}, 1.0},
                              {{64, 4}, 1e6}}; // idles the device

    serve::ServingEngine engine(model);
    for (const Timed &t : mix)
        engine.submit(t.req, t.arrivalMs);
    ServingReport rep = engine.drain();
    ASSERT_EQ(rep.requests(), mix.size());

    // The PR-1 loop, re-run by hand.
    double now = mix.front().arrivalMs;
    double makespan = 0.0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const serve::RequestResult &r = rep.results[i];
        EXPECT_EQ(r.id, i);
        double start = std::max(now, mix[i].arrivalMs);
        InferenceReport direct = model.run(mix[i].req);
        double finish = start + direct.totalMs();
        EXPECT_EQ(r.startMs, start);
        EXPECT_EQ(r.serviceMs, direct.totalMs());
        EXPECT_EQ(r.finishMs, finish);
        EXPECT_EQ(r.firstTokenMs, (start - mix[i].arrivalMs) +
                                      direct.summarizationMs());
        EXPECT_EQ(r.msPerToken, direct.msPerGeneratedToken());
        EXPECT_EQ(r.deviceIndex, 0u);
        now = finish;
        makespan = std::max(makespan, finish - mix.front().arrivalMs);
    }
    EXPECT_EQ(rep.makespanMs, makespan);

    // Single-replica utilization accounting.
    ASSERT_EQ(rep.replicas.size(), 1u);
    double service_sum = 0.0;
    for (const auto &r : rep.results)
        service_sum += r.serviceMs;
    EXPECT_DOUBLE_EQ(rep.replicas[0].busyMs, service_sum);
    EXPECT_EQ(rep.replicas[0].dispatched, mix.size());
    EXPECT_DOUBLE_EQ(rep.replicas[0].busyMs + rep.replicas[0].idleMs,
                     rep.makespanMs);
}

TEST(ClusterServing, PoolThroughputScalesMonotonically)
{
    serve::ArrivalTrace trace = saturatingTrace(24);
    double prev_tps = 0.0;
    for (std::size_t replicas : {1u, 2u, 4u, 8u}) {
        serve::DevicePool pool = makePool(replicas);
        serve::ServingEngine engine(pool);
        serve::submitAll(trace, engine);
        ServingReport rep = engine.drain();
        EXPECT_EQ(rep.requests(), trace.size());
        EXPECT_GT(rep.tokensPerSecond(), prev_tps)
            << replicas << " replicas";
        prev_tps = rep.tokensPerSecond();

        // Per-device accounting must cover every request exactly once.
        ASSERT_EQ(rep.replicas.size(), replicas);
        std::uint64_t dispatched = 0;
        double busy = 0.0;
        for (const auto &u : rep.replicas) {
            dispatched += u.dispatched;
            busy += u.busyMs;
            EXPECT_GE(u.utilization, 0.0);
            EXPECT_LE(u.utilization, 1.0);
            EXPECT_DOUBLE_EQ(u.busyMs + u.idleMs, rep.makespanMs);
        }
        EXPECT_EQ(dispatched, trace.size());
        double service_sum = 0.0;
        for (const auto &r : rep.results)
            service_sum += r.serviceMs;
        EXPECT_DOUBLE_EQ(busy, service_sum);
    }
}

TEST(ClusterServing, IdenticalTraceIsDeterministicAcrossDrains)
{
    serve::ArrivalTrace trace = saturatingTrace(12);
    auto run = [&]() {
        serve::DevicePool pool = makePool(4);
        serve::ServingEngine engine(pool);
        serve::submitAll(trace, engine);
        return engine.drain();
    };
    ServingReport a = run();
    ServingReport b = run();
    ASSERT_EQ(a.requests(), b.requests());
    for (std::size_t i = 0; i < a.requests(); ++i) {
        EXPECT_EQ(a.results[i].id, b.results[i].id);
        EXPECT_EQ(a.results[i].deviceIndex, b.results[i].deviceIndex);
        EXPECT_EQ(a.results[i].finishMs, b.results[i].finishMs);
    }
    EXPECT_EQ(a.makespanMs, b.makespanMs);
}

TEST(ClusterServing, RoundRobinSpreadsSimultaneousArrivals)
{
    serve::DevicePool pool = makePool(4);
    serve::ServingEngine engine(pool);
    for (int i = 0; i < 4; ++i)
        engine.submit({64, 2}, 0.0);
    ServingReport rep = engine.drain();
    EXPECT_EQ(rep.router, "round-robin");
    for (const auto &u : rep.replicas)
        EXPECT_EQ(u.dispatched, 1u);
}

TEST(ClusterServing, LeastLoadedPrefersTheLessBusyReplica)
{
    // One big and one small request back to back; a third request long
    // after both complete. Round-robin's cursor returns to replica 0
    // (which served the big request); least-loaded picks replica 1.
    auto run = [&](std::unique_ptr<serve::Router> router) {
        serve::DevicePool pool = makePool(2);
        serve::ServingEngine engine(pool, serve::ServingOptions{},
                                    nullptr, std::move(router));
        engine.submit({512, 64}, 0.0); // big -> replica 0
        engine.submit({64, 1}, 0.0);   // small -> replica 1
        engine.submit({64, 1}, 1e7);   // both idle again
        return engine.drain();
    };
    ServingReport rr = run(std::make_unique<serve::RoundRobinRouter>());
    ServingReport ll = run(std::make_unique<serve::LeastLoadedRouter>());
    ASSERT_EQ(rr.requests(), 3u);
    ASSERT_EQ(ll.requests(), 3u);
    auto late = [](const ServingReport &rep) -> const serve::RequestResult & {
        for (const auto &r : rep.results)
            if (r.id == 2)
                return r;
        throw std::runtime_error("request 2 missing");
    };
    EXPECT_EQ(late(rr).deviceIndex, 0u);
    EXPECT_EQ(late(ll).deviceIndex, 1u);
    EXPECT_EQ(ll.router, "least-loaded");
}

TEST(ClusterServing, SjfServesShortRequestsFirst)
{
    // All arrive together on one replica: FCFS keeps submission order,
    // SJF completes the short requests first.
    std::vector<InferenceRequest> mix = {{512, 64}, {64, 2}, {64, 4}};
    auto order = [&](std::unique_ptr<serve::SchedulingPolicy> policy) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingEngine engine(model, serve::ServingOptions{},
                                    std::move(policy));
        for (const auto &req : mix)
            engine.submit(req);
        std::vector<std::uint64_t> ids;
        for (const auto &r : engine.drain().results)
            ids.push_back(r.id);
        return ids;
    };
    EXPECT_EQ(order(serve::makePolicy("fcfs")),
              (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(order(serve::makePolicy("sjf")),
              (std::vector<std::uint64_t>{1, 2, 0}));
}

TEST(ClusterServing, EdfServesUrgentDeadlinesFirst)
{
    // A filler occupies the replica; two more requests arrive while it
    // runs. Request 1 (many output tokens) has the later deadline
    // arrival + slo * output, request 2 the earlier one. FCFS serves
    // 1 then 2; EDF serves 2 then 1.
    auto order = [&](std::unique_ptr<serve::SchedulingPolicy> policy) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingEngine engine(model, serve::ServingOptions{},
                                    std::move(policy));
        engine.submit({256, 16}, 0.0); // filler
        engine.submit({64, 64}, 1.0);  // deadline 1 + 64 * slo
        engine.submit({64, 1}, 2.0);   // deadline 2 + 1 * slo
        std::vector<std::uint64_t> ids;
        for (const auto &r : engine.drain().results)
            ids.push_back(r.id);
        return ids;
    };
    EXPECT_EQ(order(serve::makePolicy("fcfs")),
              (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(order(serve::makePolicy("edf")),
              (std::vector<std::uint64_t>{0, 2, 1}));
}

// --- SchedulingPolicy / Router contract enforcement ----------------------

struct EmptyBatchPolicy : serve::SchedulingPolicy
{
    const char *name() const override { return "empty"; }
    std::vector<std::size_t>
    selectBatch(const std::vector<serve::QueuedRequest> &,
                const serve::SchedulerContext &) override
    {
        return {};
    }
};

struct OutOfRangePolicy : serve::SchedulingPolicy
{
    const char *name() const override { return "oob"; }
    std::vector<std::size_t>
    selectBatch(const std::vector<serve::QueuedRequest> &queue,
                const serve::SchedulerContext &) override
    {
        return {queue.size()};
    }
};

struct DuplicateIndexPolicy : serve::SchedulingPolicy
{
    const char *name() const override { return "dup"; }
    std::vector<std::size_t>
    selectBatch(const std::vector<serve::QueuedRequest> &,
                const serve::SchedulerContext &) override
    {
        return {0, 0};
    }
};

TEST(ClusterServing, MalformedPolicyBatchesAreFatal)
{
    auto attempt = [&](std::unique_ptr<serve::SchedulingPolicy> policy) {
        serve::CompiledModel model(SystemConfig::ianusDefault(), m);
        serve::ServingEngine engine(model, serve::ServingOptions{},
                                    std::move(policy));
        engine.submit({64, 2});
        engine.submit({64, 2});
        (void)engine.drain();
    };
    EXPECT_THROW(attempt(std::make_unique<EmptyBatchPolicy>()),
                 std::runtime_error);
    EXPECT_THROW(attempt(std::make_unique<OutOfRangePolicy>()),
                 std::runtime_error);
    EXPECT_THROW(attempt(std::make_unique<DuplicateIndexPolicy>()),
                 std::runtime_error);
}

struct StuckRouter : serve::Router
{
    const char *name() const override { return "stuck"; }
    std::size_t route(const serve::QueuedRequest &,
                      const std::vector<serve::ReplicaStatus> &,
                      double) override
    {
        return 0; // ignores busy state
    }
};

struct OutOfRangeRouter : serve::Router
{
    const char *name() const override { return "oob"; }
    std::size_t route(const serve::QueuedRequest &,
                      const std::vector<serve::ReplicaStatus> &replicas,
                      double) override
    {
        return replicas.size();
    }
};

TEST(ClusterServing, MisbehavingRoutersAreFatal)
{
    auto attempt = [&](std::unique_ptr<serve::Router> router) {
        serve::DevicePool pool = makePool(2);
        serve::ServingEngine engine(pool, serve::ServingOptions{},
                                    nullptr, std::move(router));
        engine.submit({64, 2}, 0.0);
        engine.submit({64, 2}, 0.0); // forces a second route at t=0
        (void)engine.drain();
    };
    EXPECT_THROW(attempt(std::make_unique<StuckRouter>()),
                 std::runtime_error);
    EXPECT_THROW(attempt(std::make_unique<OutOfRangeRouter>()),
                 std::runtime_error);
}

TEST(ClusterServing, FactoriesRejectUnknownNames)
{
    EXPECT_THROW(serve::makePolicy("lifo"), std::runtime_error);
    EXPECT_THROW(serve::makeRouter("random"), std::runtime_error);
    EXPECT_EQ(serve::makePolicy("sjf")->name(), std::string("sjf"));
    EXPECT_EQ(serve::makeRouter("rr")->name(),
              std::string("round-robin"));
    EXPECT_EQ(serve::makeRouter("ll")->name(),
              std::string("least-loaded"));
}

TEST(ClusterServing, PoolValidation)
{
    EXPECT_THROW(makePool(0), std::runtime_error);
    serve::DevicePool pool = makePool(2);
    EXPECT_THROW((void)pool.replica(2), std::runtime_error);
    serve::DevicePool empty;
    EXPECT_THROW(serve::ServingEngine{empty}, std::runtime_error);
    EXPECT_THROW(empty.addReplica(nullptr), std::runtime_error);
}

TEST(ClusterServing, TensorParallelReplicasCountTotalDevices)
{
    serve::PoolOptions opts;
    opts.replicas = 3;
    opts.build.devices = 2;
    serve::DevicePool pool(SystemConfig::ianusDefault(),
                           workloads::gptLarge("6.7b"), opts);
    EXPECT_EQ(pool.size(), 3u);
    unsigned devices = 0;
    for (std::size_t i = 0; i < pool.size(); ++i)
        devices += pool.replica(i).options().devices;
    EXPECT_EQ(devices, 6u);
}

TEST(ClusterServing, HeterogeneousPoolServesAcrossSystems)
{
    serve::DevicePool pool;
    pool.addReplica(std::make_unique<serve::CompiledModel>(
        SystemConfig::ianusDefault(), m));
    pool.addReplica(std::make_unique<serve::CompiledModel>(
        SystemConfig::npuMem(), m));
    serve::ServingEngine engine(pool);
    for (int i = 0; i < 4; ++i)
        engine.submit({64, 2}, 0.0);
    ServingReport rep = engine.drain();
    EXPECT_EQ(rep.requests(), 4u);
    EXPECT_GT(rep.replicas[0].dispatched, 0u);
    EXPECT_GT(rep.replicas[1].dispatched, 0u);
}

} // namespace
