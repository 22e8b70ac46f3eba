/** @file Heterogeneity-aware routers: choice functions on hand-built
 *  ReplicaStatus vectors, contract enforcement, service-time
 *  estimates, and the PR-4 regression anchors for round-robin and
 *  least-loaded. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using serve::ReplicaStatus;
using workloads::InferenceRequest;

workloads::ModelConfig m = workloads::gpt2("m");

/** A hand-built status row: accepting by default, estimates settable. */
ReplicaStatus
status(std::size_t index, bool idle = true)
{
    ReplicaStatus s;
    s.index = index;
    s.idle = idle;
    return s;
}

serve::QueuedRequest
fresh(std::uint64_t id = 0)
{
    serve::QueuedRequest q;
    q.id = id;
    q.request = {64, 8};
    return q;
}

// --- Queue-depth ----------------------------------------------------------

TEST(Routing, QueueDepthPicksFewestResident)
{
    serve::QueueDepthRouter router;
    std::vector<ReplicaStatus> rs = {status(0), status(1), status(2)};
    rs[0].resident = 3;
    rs[1].resident = 1;
    rs[2].resident = 2;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);
}

TEST(Routing, QueueDepthBreaksTiesByBacklogThenBusyThenIndex)
{
    serve::QueueDepthRouter router;
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    rs[0].resident = rs[1].resident = 2;
    rs[0].backlogTokens = 40;
    rs[1].backlogTokens = 8;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);

    rs[1].backlogTokens = 40; // backlog tied -> busy decides
    rs[0].busyMs = 100.0;
    rs[1].busyMs = 10.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);

    rs[1].busyMs = 100.0; // everything tied -> lowest index
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 0u);
}

TEST(Routing, QueueDepthIgnoresNonAcceptingReplicas)
{
    serve::QueueDepthRouter router;
    std::vector<ReplicaStatus> rs = {status(0, false), status(1)};
    rs[0].resident = 0; // emptier, but not accepting
    rs[1].resident = 5;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);
}

TEST(Routing, QueueDepthAllBusyIsFatal)
{
    serve::QueueDepthRouter router;
    std::vector<ReplicaStatus> rs = {status(0, false), status(1, false)};
    EXPECT_THROW(router.route(fresh(), rs, 0.0), std::runtime_error);
}

// --- Predicted-finish -----------------------------------------------------

TEST(Routing, PredictedFinishPicksEarliestEstimatedCompletion)
{
    serve::PredictedFinishRouter router;
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    // Replica 0 is "fast" but frees later; replica 1 is slower but
    // free now: 5 + 10 = 15 vs 0 + 12 = 12 -> replica 1.
    rs[0].freeAtMs = 5.0;
    rs[0].estPrefillMs = 2.0;
    rs[0].estGenMs = 8.0;
    rs[1].freeAtMs = 0.0;
    rs[1].estPrefillMs = 3.0;
    rs[1].estGenMs = 9.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);

    // At equal availability the faster replica wins.
    rs[0].freeAtMs = 0.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 0u);
}

TEST(Routing, PredictedFinishIsBatchedStepAware)
{
    serve::PredictedFinishRouter router;
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    // Same per-request estimates, but replica 0 already generates for
    // 3 residents: its steps dilate 4x (10 x 4 = 40 vs 10 + 5 = 15 on
    // the replica with one pending prefill).
    rs[0].estGenMs = rs[1].estGenMs = 10.0;
    rs[0].estPrefillMs = rs[1].estPrefillMs = 5.0;
    rs[0].resident = 3;
    rs[1].resident = 1;
    rs[1].pendingPrefill = 1;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);
}

TEST(Routing, PredictedFinishAllBusyIsFatal)
{
    serve::PredictedFinishRouter router;
    std::vector<ReplicaStatus> rs = {status(0, false)};
    EXPECT_THROW(router.route(fresh(), rs, 0.0), std::runtime_error);
}

// --- KV-affinity ----------------------------------------------------------

TEST(Routing, KvAffinityPrefersTheBoundReplica)
{
    serve::KvAffinityRouter router;
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    rs[0].estGenMs = 100.0; // much slower, but it holds the KV
    rs[1].estGenMs = 1.0;
    serve::QueuedRequest q = fresh();
    q.resumed = true;
    q.boundReplica = 0;
    EXPECT_EQ(router.route(q, rs, 0.0), 0u);
}

TEST(Routing, KvAffinityFallsBackToPredictedFinishWhenBoundIsBusy)
{
    serve::KvAffinityRouter router;
    std::vector<ReplicaStatus> rs = {status(0, false), status(1),
                                     status(2)};
    rs[1].estGenMs = 9.0;
    rs[2].estGenMs = 2.0;
    serve::QueuedRequest q = fresh();
    q.resumed = true;
    q.boundReplica = 0; // not accepting -> predicted-finish fallback
    EXPECT_EQ(router.route(q, rs, 0.0), 2u);
}

TEST(Routing, KvAffinitySteersFreshWorkAwayFromParkedKv)
{
    serve::KvAffinityRouter router;
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    // Replica 0 is faster but its slot is spoken for by an evictee.
    rs[0].estGenMs = 1.0;
    rs[0].suspendedKv = 1;
    rs[1].estGenMs = 5.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);

    // When every accepting replica holds parked KV, pure
    // predicted-finish decides.
    rs[1].suspendedKv = 2;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 0u);
}

TEST(Routing, KvAffinityAllBusyIsFatal)
{
    serve::KvAffinityRouter router;
    std::vector<ReplicaStatus> rs = {status(0, false), status(1, false)};
    EXPECT_THROW(router.route(fresh(), rs, 0.0), std::runtime_error);
}

// --- SLO-budget -------------------------------------------------------------
// fresh() is a (64 in, 8 out) request arriving at 0; at 10 ms/token the
// completion budget is 0 + 10 x 8 = 80 ms.

TEST(Routing, SloBudgetSpendsTheCheapestFeasibleReplica)
{
    serve::SloBudgetRouter router(10.0);
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    // Fast replica finishes at 2 + 8 = 10, slow one at 20 + 30 = 50 —
    // both inside the 80 ms budget, so the slow one takes the request
    // and the fast one stays free for tighter budgets.
    rs[0].estPrefillMs = 2.0;
    rs[0].estGenMs = 8.0;
    rs[1].estPrefillMs = 20.0;
    rs[1].estGenMs = 30.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);
}

TEST(Routing, SloBudgetSkipsReplicasThatWouldMissTheDeadline)
{
    serve::SloBudgetRouter router(10.0);
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    rs[0].estPrefillMs = 2.0;
    rs[0].estGenMs = 8.0;
    // 40 + 50 = 90 > 80: infeasible, despite being the cheapest spend.
    rs[1].estPrefillMs = 40.0;
    rs[1].estGenMs = 50.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 0u);

    // A looser SLO re-admits it: deadline 20 x 8 = 160 >= 90.
    serve::SloBudgetRouter loose(20.0);
    EXPECT_EQ(loose.route(fresh(), rs, 0.0), 1u);
}

TEST(Routing, SloBudgetCountsQueueingAgainstTheBudget)
{
    serve::SloBudgetRouter router(10.0);
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    // Identical service estimates (5 + 10 = 15), but replica 1 frees
    // at 70: 70 + 15 = 85 > 80 busts the budget on availability alone.
    rs[0].estPrefillMs = rs[1].estPrefillMs = 5.0;
    rs[0].estGenMs = rs[1].estGenMs = 10.0;
    rs[1].freeAtMs = 70.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 0u);
}

TEST(Routing, SloBudgetFallsBackToPredictedFinishWhenAllMiss)
{
    serve::SloBudgetRouter router(10.0);
    serve::PredictedFinishRouter pf;
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    // 100 and 120: both blown — degrade to the least-bad lateness,
    // exactly predicted-finish's choice.
    rs[0].estPrefillMs = 40.0;
    rs[0].estGenMs = 60.0;
    rs[1].estPrefillMs = 50.0;
    rs[1].estGenMs = 70.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0),
              pf.route(fresh(), rs, 0.0));
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 0u);
}

TEST(Routing, SloBudgetBreaksFeasibleTiesByLowestIndex)
{
    serve::SloBudgetRouter router(10.0);
    std::vector<ReplicaStatus> rs = {status(0), status(1)};
    rs[0].estPrefillMs = rs[1].estPrefillMs = 20.0;
    rs[0].estGenMs = rs[1].estGenMs = 30.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 0u);
}

TEST(Routing, SloBudgetIgnoresNonAcceptingReplicas)
{
    serve::SloBudgetRouter router(10.0);
    std::vector<ReplicaStatus> rs = {status(0, false), status(1)};
    // The busy replica would be the feasible-latest pick if it were
    // accepting.
    rs[0].estPrefillMs = 20.0;
    rs[0].estGenMs = 30.0;
    rs[1].estPrefillMs = 2.0;
    rs[1].estGenMs = 8.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 1u);
}

TEST(Routing, SloBudgetAllBusyIsFatal)
{
    serve::SloBudgetRouter router(10.0);
    std::vector<ReplicaStatus> rs = {status(0, false), status(1, false)};
    EXPECT_THROW(router.route(fresh(), rs, 0.0), std::runtime_error);
}

TEST(Routing, SloBudgetRejectsNonPositiveSlo)
{
    EXPECT_THROW(serve::SloBudgetRouter(0.0), std::runtime_error);
    EXPECT_THROW(serve::SloBudgetRouter(-1.0), std::runtime_error);
}

// --- Factory and estimate plumbing ----------------------------------------

TEST(Routing, FactoryKnowsTheNewRouters)
{
    EXPECT_EQ(serve::makeRouter("queue-depth")->name(),
              std::string("queue-depth"));
    EXPECT_EQ(serve::makeRouter("qd")->name(), std::string("queue-depth"));
    EXPECT_EQ(serve::makeRouter("predicted-finish")->name(),
              std::string("predicted-finish"));
    EXPECT_EQ(serve::makeRouter("pf")->name(),
              std::string("predicted-finish"));
    EXPECT_EQ(serve::makeRouter("kv-affinity")->name(),
              std::string("kv-affinity"));
    EXPECT_EQ(serve::makeRouter("kv")->name(),
              std::string("kv-affinity"));
    EXPECT_EQ(serve::makeRouter("slo-budget")->name(),
              std::string("slo-budget"));
    EXPECT_EQ(serve::makeRouter("slo")->name(),
              std::string("slo-budget"));
    EXPECT_THROW(serve::makeRouter("random"), std::runtime_error);
    // The factory hands its SLO through to the router.
    auto tight = serve::makeRouter("slo-budget", 2.5);
    EXPECT_DOUBLE_EQ(
        static_cast<serve::SloBudgetRouter &>(*tight).sloMsPerToken(),
        2.5);
}

TEST(Routing, OnlyEstimateReadingRoutersDeclareNeedsEstimates)
{
    EXPECT_FALSE(serve::makeRouter("round-robin")->needsEstimates());
    EXPECT_FALSE(serve::makeRouter("least-loaded")->needsEstimates());
    EXPECT_FALSE(serve::makeRouter("queue-depth")->needsEstimates());
    EXPECT_TRUE(serve::makeRouter("predicted-finish")->needsEstimates());
    EXPECT_TRUE(serve::makeRouter("kv-affinity")->needsEstimates());
    EXPECT_TRUE(serve::makeRouter("slo-budget")->needsEstimates());
}

TEST(Routing, EstimatesAreHonestAcrossHeterogeneousReplicas)
{
    serve::CompiledModel fast(SystemConfig::ianusDefault(), m);
    serve::CompiledModel slow(SystemConfig::npuMem(), m);
    InferenceRequest req{256, 16};
    // The IANUS replica must honestly report being faster, per stage
    // and per token (a 2-token output is one step, at KV 257).
    EXPECT_LT(fast.estimateGenerationMs({256, 2}),
              slow.estimateGenerationMs({256, 2}));
    EXPECT_LT(fast.prefillChunkStats(0, 256, true).wallMs(),
              slow.prefillChunkStats(0, 256, true).wallMs());
    EXPECT_LT(fast.estimateGenerationMs(req),
              slow.estimateGenerationMs(req));
    // Estimates are pure functions of the configuration: asking twice
    // gives the same number.
    EXPECT_EQ(fast.prefillChunkStats(0, 256, true).wallMs(),
              fast.prefillChunkStats(0, 256, true).wallMs());
    EXPECT_EQ(fast.estimateGenerationMs(req),
              fast.estimateGenerationMs(req));
}

TEST(Routing, EstimateAccessorsRejectInvalidRequests)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(), m);
    EXPECT_THROW((void)model.prefillChunkStats(0, 0, true),
                 std::runtime_error);
    EXPECT_THROW((void)model.estimateGenerationMs({0, 4}),
                 std::runtime_error);
    EXPECT_THROW((void)model.estimateGenerationMs({64, 0}),
                 std::runtime_error);
}

/** A router that records the statuses the engine hands it (and routes
 *  round-robin-equivalently by delegating). */
struct ProbeRouter : serve::Router
{
    serve::RoundRobinRouter inner;
    std::vector<std::vector<ReplicaStatus>> seen;
    bool wantEstimates = false;

    const char *name() const override { return "probe"; }
    bool needsEstimates() const override { return wantEstimates; }
    std::size_t route(const serve::QueuedRequest &q,
                      const std::vector<ReplicaStatus> &rs,
                      double now) override
    {
        seen.push_back(rs);
        return inner.route(q, rs, now);
    }
};

TEST(Routing, EngineFillsLoadSignalsAndGatesEstimates)
{
    serve::PoolOptions popts;
    popts.replicas = 2;
    serve::DevicePool pool(SystemConfig::ianusDefault(), m, popts);

    auto run = [&](bool want) {
        auto router = std::make_unique<ProbeRouter>();
        router->wantEstimates = want;
        ProbeRouter *probe = router.get();
        serve::ServingOptions opts;
        opts.batching = serve::BatchingMode::Continuous;
        opts.maxBatch = 2;
        serve::ServingEngine engine(pool, opts, nullptr,
                                    std::move(router));
        for (int i = 0; i < 6; ++i)
            engine.submit({64, 8}, static_cast<double>(i));
        (void)engine.drain();
        return probe->seen;
    };

    // Estimate-blind probe: load signals filled, estimates zeroed.
    bool saw_resident = false;
    bool saw_backlog = false;
    for (const auto &rs : run(false))
        for (const ReplicaStatus &r : rs) {
            EXPECT_EQ(r.estPrefillMs, 0.0);
            EXPECT_EQ(r.estGenMs, 0.0);
            EXPECT_LE(r.pendingPrefill, r.resident);
            saw_resident |= r.resident > 0;
            // Generating residents owe steps. Not every such status
            // shows it: a member's last segment has already taken its
            // backlog to 0.
            if (r.resident > r.pendingPrefill)
                saw_backlog |= r.backlogTokens > 0;
        }
    EXPECT_TRUE(saw_resident);
    EXPECT_TRUE(saw_backlog);

    // Estimate-reading probe: positive estimates on every replica.
    auto seen = run(true);
    ASSERT_FALSE(seen.empty());
    for (const auto &rs : seen)
        for (const ReplicaStatus &r : rs) {
            EXPECT_GT(r.estPrefillMs, 0.0);
            EXPECT_GT(r.estGenMs, 0.0);
        }
}

// --- PR-4 regression anchors ----------------------------------------------

/** The PR-4 round-robin, reimplemented against the PR-4 status fields
 *  only (idle + a rotating cursor). */
struct Pr4RoundRobin : serve::Router
{
    std::size_t cursor = 0;
    const char *name() const override { return "round-robin"; }
    std::size_t route(const serve::QueuedRequest &,
                      const std::vector<ReplicaStatus> &rs,
                      double) override
    {
        for (std::size_t k = 0; k < rs.size(); ++k) {
            std::size_t d = (cursor + k) % rs.size();
            if (rs[d].idle) {
                cursor = (d + 1) % rs.size();
                return d;
            }
        }
        throw std::runtime_error("no idle replica");
    }
};

/** The PR-4 least-loaded, reimplemented against the PR-4 status fields
 *  only (idle, cumulative busyMs, dispatch count). */
struct Pr4LeastLoaded : serve::Router
{
    const char *name() const override { return "least-loaded"; }
    std::size_t route(const serve::QueuedRequest &,
                      const std::vector<ReplicaStatus> &rs,
                      double) override
    {
        const ReplicaStatus *best = nullptr;
        for (const ReplicaStatus &r : rs) {
            if (!r.idle)
                continue;
            if (!best || r.busyMs < best->busyMs ||
                (r.busyMs == best->busyMs &&
                 r.dispatched < best->dispatched))
                best = &r;
        }
        if (!best)
            throw std::runtime_error("no idle replica");
        return best->index;
    }
};

/** On a homogeneous pool, the shipped round-robin and least-loaded
 *  must make dispatch decisions bit-identical to their PR-4 selves:
 *  the new status fields and estimate machinery may not perturb them. */
TEST(Routing, HomogeneousDispatchMatchesPr4BitForBit)
{
    serve::TraceOptions topts;
    topts.seed = 42;
    topts.requests = 24;
    topts.arrivalsPerSec = 10000.0; // saturating: every route contended
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 4, 8};
    serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);

    auto drain = [&](std::unique_ptr<serve::Router> router,
                     serve::BatchingMode mode, std::size_t cap) {
        serve::PoolOptions popts;
        popts.replicas = 4;
        serve::DevicePool pool(SystemConfig::ianusDefault(), m, popts);
        serve::ServingOptions opts;
        opts.batching = mode;
        opts.maxBatch = cap;
        serve::ServingEngine engine(pool, opts, nullptr,
                                    std::move(router));
        serve::submitAll(trace, engine);
        return engine.drain();
    };

    struct Cell
    {
        serve::BatchingMode mode;
        std::size_t cap;
    };
    const std::vector<Cell> cells = {
        {serve::BatchingMode::None, 1},
        {serve::BatchingMode::Continuous, 3}};
    for (const Cell &cell : cells) {
        auto check = [&](std::unique_ptr<serve::Router> shipped,
                         std::unique_ptr<serve::Router> pr4) {
            serve::ServingReport a =
                drain(std::move(shipped), cell.mode, cell.cap);
            serve::ServingReport b =
                drain(std::move(pr4), cell.mode, cell.cap);
            ASSERT_EQ(a.requests(), b.requests());
            for (std::size_t i = 0; i < a.requests(); ++i) {
                EXPECT_EQ(a.results[i].id, b.results[i].id);
                EXPECT_EQ(a.results[i].deviceIndex,
                          b.results[i].deviceIndex);
                EXPECT_EQ(a.results[i].startMs, b.results[i].startMs);
                EXPECT_EQ(a.results[i].finishMs, b.results[i].finishMs);
                EXPECT_EQ(a.results[i].firstTokenMs,
                          b.results[i].firstTokenMs);
            }
            EXPECT_EQ(a.makespanMs, b.makespanMs);
        };
        check(std::make_unique<serve::RoundRobinRouter>(),
              std::make_unique<Pr4RoundRobin>());
        check(std::make_unique<serve::LeastLoadedRouter>(),
              std::make_unique<Pr4LeastLoaded>());
    }
}

/** Predicted-finish keeps every spaced request on the honestly faster
 *  replica of a heterogeneous pool, where least-loaded balances busy
 *  time by feeding the slow one. */
TEST(Routing, PredictedFinishPrefersTheFastReplicaOfAMixedPool)
{
    auto drain = [&](const std::string &router) {
        serve::DevicePool pool;
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), m));
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::npuMem(), m));
        serve::ServingEngine engine(pool, serve::ServingOptions{},
                                    nullptr, serve::makeRouter(router));
        // Spaced far apart: both replicas idle at every arrival, so
        // every dispatch is a free routing choice.
        for (int i = 0; i < 6; ++i)
            engine.submit({64, 4}, 1e5 * i);
        return engine.drain();
    };
    serve::ServingReport pf = drain("predicted-finish");
    for (const auto &r : pf.results)
        EXPECT_EQ(r.deviceIndex, 0u) << "request " << r.id;
    serve::ServingReport ll = drain("least-loaded");
    EXPECT_GT(ll.replicas[1].dispatched, 0u);
}

} // namespace
