/** @file Heterogeneity-aware routers: choice functions on hand-built
 *  rows of offered replicas, the drain's offer and its contract
 *  enforcement, service-time estimates, and the PR-4 regression anchors
 *  for round-robin and least-loaded. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "drain_audit.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using serve::ReplicaStatus;
using workloads::InferenceRequest;

workloads::ModelConfig m = workloads::gpt2("m");

/** A hand-built row offering replica @p index; estimates settable. */
ReplicaStatus
status(std::size_t index)
{
    ReplicaStatus s;
    s.index = index;
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
    // Replicas 0 and 2 do not accept, so the drain offers only 1 and 3:
    // the pick is a pool index, not a row position.
    std::vector<ReplicaStatus> rs = {status(1), status(3)};
    rs[0].resident = 5;
    rs[1].resident = 2;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 3u);
}

TEST(Routing, QueueDepthAllBusyIsFatal)
{
    serve::QueueDepthRouter router;
    EXPECT_THROW(router.route(fresh(), {}, 0.0), std::runtime_error);
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
    EXPECT_THROW(router.route(fresh(), {}, 0.0), std::runtime_error);
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
    std::vector<ReplicaStatus> rs = {status(1), status(2)};
    rs[0].estGenMs = 9.0;
    rs[1].estGenMs = 2.0;
    serve::QueuedRequest q = fresh();
    q.resumed = true;
    q.boundReplica = 0; // not offered -> predicted-finish fallback
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
    EXPECT_THROW(router.route(fresh(), {}, 0.0), std::runtime_error);
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
    // Replicas 0 and 2 do not accept, so the drain offers only 1 and 3.
    // Both meet the 80 ms budget (10 and 50 ms); the later finish is
    // replica 3's, at row position 1.
    std::vector<ReplicaStatus> rs = {status(1), status(3)};
    rs[0].estPrefillMs = 2.0;
    rs[0].estGenMs = 8.0;
    rs[1].estPrefillMs = 20.0;
    rs[1].estGenMs = 30.0;
    EXPECT_EQ(router.route(fresh(), rs, 0.0), 3u);
}

TEST(Routing, SloBudgetAllBusyIsFatal)
{
    serve::SloBudgetRouter router(10.0);
    EXPECT_THROW(router.route(fresh(), {}, 0.0), std::runtime_error);
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

/** Checks every row the drain offers against the pool's roles and its
 *  one-slot replicas, then routes by kv-affinity, which reads the
 *  estimates and looks its session-hit replica up among the rows. */
struct OfferProbe : serve::Router
{
    serve::KvAffinityRouter inner;
    std::vector<serve::ReplicaRole> roles;
    std::size_t routes = 0;
    std::size_t partialOffers = 0; ///< routes offered one prefill replica

    const char *name() const override { return "offer-probe"; }
    bool needsEstimates() const override { return true; }
    std::size_t route(const serve::QueuedRequest &q,
                      const std::vector<ReplicaStatus> &rs,
                      double now) override
    {
        ++routes;
        partialOffers += rs.size() == 1;
        for (const ReplicaStatus &r : rs) {
            const std::string row = "route " + std::to_string(routes) +
                                    " offered replica " +
                                    std::to_string(r.index);
            EXPECT_NE(roles.at(r.index), serve::ReplicaRole::Decode) << row;
            // maxBatch 1: a free slot is an empty replica that is not
            // mid-segment.
            EXPECT_EQ(r.resident, 0u) << row;
            EXPECT_LE(r.freeAtMs, now) << row;
            EXPECT_GT(r.estPrefillMs, 0.0) << row;
        }
        return inner.route(q, rs, now);
    }
};

// A disaggregated session drain offers the router only replicas that can
// take the candidate: never a Decode replica, never one whose only slot
// is taken. So only the prefill side is priced, and the decode replicas
// build no prefill program at all, although a session's pinned prefix
// lives on them.
TEST(Routing, DrainOffersOnlyReplicasThatCanTakeTheCandidate)
{
    serve::DevicePool pool;
    for (serve::ReplicaRole role :
         {serve::ReplicaRole::Prefill, serve::ReplicaRole::Prefill,
          serve::ReplicaRole::Decode, serve::ReplicaRole::Decode})
        pool.addReplica(std::make_unique<serve::CompiledModel>(
                            role == serve::ReplicaRole::Prefill
                                ? SystemConfig::npuMem()
                                : SystemConfig::ianusDefault(),
                            m),
                        role);
    serve::SessionOptions sopts;
    sopts.seed = 29;
    sopts.sessions = 12;
    sopts.meanTurns = 3.0;
    sopts.maxTurns = 5;
    sopts.maxContextTokens = 256;
    sopts.meanThinkMs = 20.0;
    sopts.sessionsPerSec = 200.0;
    sopts.deltaTokenChoices = {16, 48};
    sopts.outputTokenChoices = {4, 16};
    const serve::ArrivalTrace trace = serve::generateSessionTrace(sopts);

    serve::ServingOptions opts;
    opts.maxBatch = 1;
    opts.tokenStride = 4;
    opts.kv.capacityTokens = 2048;
    opts.kv.admission = serve::KvAdmission::Queue;
    auto router = std::make_unique<OfferProbe>();
    router->roles = pool.roles();
    OfferProbe *probe = router.get();
    serve::ServingEngine engine(pool, opts, nullptr, std::move(router));
    serve::submitAll(trace, engine);
    const serve::ServingReport rep = engine.drain();

    ASSERT_EQ(rep.requests(), trace.size());
    EXPECT_GT(rep.prefixHits, 0u);
    EXPECT_GT(rep.kvTransfers, 0u);
    EXPECT_GT(probe->routes, 0u);
    EXPECT_GT(probe->partialOffers, 0u);
    // A store counts each build once, on whichever of its replicas asked
    // first, so what each side did build is summed over its replicas.
    std::uint64_t prefill_builds = 0;
    std::uint64_t decode_builds = 0;
    for (std::size_t d = 0; d < pool.size(); ++d) {
        const serve::CacheStats &c = pool.replica(d).cacheStats();
        if (pool.roles()[d] != serve::ReplicaRole::Decode) {
            prefill_builds += c.summarizationBuilds + c.chunkBuilds;
            continue;
        }
        EXPECT_EQ(c.summarizationBuilds, 0u) << "replica " << d;
        EXPECT_EQ(c.chunkBuilds, 0u) << "replica " << d;
        decode_builds += c.generationBuilds + c.batchBuilds;
    }
    EXPECT_GT(prefill_builds, 0u);
    EXPECT_GT(decode_builds, 0u);
}

// --- PR-4 regression anchors ----------------------------------------------

/** The offered row of replica @p d, or null: the PR-4 routers scanned
 *  the whole pool and skipped every replica that did not accept. */
const ReplicaStatus *
offered(const std::vector<ReplicaStatus> &rs, std::size_t d)
{
    for (const ReplicaStatus &r : rs)
        if (r.index == d)
            return &r;
    return nullptr;
}

/** The PR-4 round-robin, reimplemented against the PR-4 status fields
 *  only: a cursor rotating over the pool's indices. */
struct Pr4RoundRobin : serve::Router
{
    std::size_t replicas = 0; ///< pool size
    std::size_t cursor = 0;
    const char *name() const override { return "round-robin"; }
    std::size_t route(const serve::QueuedRequest &,
                      const std::vector<ReplicaStatus> &rs,
                      double) override
    {
        for (std::size_t k = 0; k < replicas; ++k) {
            std::size_t d = (cursor + k) % replicas;
            if (offered(rs, d)) {
                cursor = (d + 1) % replicas;
                return d;
            }
        }
        throw std::runtime_error("no idle replica");
    }
};

/** The PR-4 least-loaded, reimplemented against the PR-4 status fields
 *  only (cumulative busyMs, dispatch count). */
struct Pr4LeastLoaded : serve::Router
{
    std::size_t replicas = 0; ///< pool size
    const char *name() const override { return "least-loaded"; }
    std::size_t route(const serve::QueuedRequest &,
                      const std::vector<ReplicaStatus> &rs,
                      double) override
    {
        const ReplicaStatus *best = nullptr;
        for (std::size_t d = 0; d < replicas; ++d) {
            const ReplicaStatus *r = offered(rs, d);
            if (!r)
                continue;
            if (!best || r->busyMs < best->busyMs ||
                (r->busyMs == best->busyMs &&
                 r->dispatched < best->dispatched))
                best = r;
        }
        if (!best)
            throw std::runtime_error("no idle replica");
        return best->index;
    }
};

/** The shipped round-robin picks what the PR-4 cyclic scan picks on any
 *  sequence of offers, including offers that skip the cursor's replica
 *  and offers of a single replica. */
TEST(Routing, RoundRobinMatchesTheCyclicScanOnAnyOffer)
{
    serve::RoundRobinRouter shipped;
    Pr4RoundRobin pr4;
    pr4.replicas = 4;
    std::uint32_t lcg = 7;
    for (int call = 0; call < 200; ++call) {
        lcg = lcg * 1664525u + 1013904223u;
        const std::uint32_t mask = 1 + (lcg >> 16) % 15; // non-empty subset
        std::vector<ReplicaStatus> rs;
        for (std::size_t d = 0; d < pr4.replicas; ++d)
            if (mask & (1u << d))
                rs.push_back(status(d));
        EXPECT_EQ(shipped.route(fresh(), rs, 0.0), pr4.route(fresh(), rs, 0.0))
            << "call " << call << ", offer mask " << mask;
    }
    EXPECT_THROW(shipped.route(fresh(), {}, 0.0), std::runtime_error);
}

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
    const std::size_t replicas = 4;

    auto drain = [&](std::unique_ptr<serve::Router> router,
                     serve::BatchingMode mode, std::size_t cap) {
        serve::PoolOptions popts;
        popts.replicas = replicas;
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
            const serve::ServingReport a =
                drain(std::move(shipped), cell.mode, cell.cap);
            const serve::ServingReport b =
                drain(std::move(pr4), cell.mode, cell.cap);
            EXPECT_EQ(a.requests(), trace.size());
            EXPECT_EQ(test::reportDifference(a, b), "")
                << a.router << " at max batch " << cell.cap;
        };
        auto rr = std::make_unique<Pr4RoundRobin>();
        rr->replicas = replicas;
        check(std::make_unique<serve::RoundRobinRouter>(), std::move(rr));
        auto ll = std::make_unique<Pr4LeastLoaded>();
        ll->replicas = replicas;
        check(std::make_unique<serve::LeastLoadedRouter>(), std::move(ll));
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
