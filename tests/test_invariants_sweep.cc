/**
 * @file Cross-configuration invariant sweeps: properties that must hold
 * for every (model, memory mode, scheduling policy, attention mapping)
 * combination the paper evaluates, and — in the serving sweep at the
 * bottom — conservation laws that must hold for every
 * (router x policy x batching x preemption x chunking) serving
 * configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "compiler/workload_builder.hh"
#include "drain_audit.hh"
#include "ianus/execution_engine.hh"
#include "serve/compiled_model.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using compiler::AttnMapping;
using compiler::BuildOptions;
using compiler::SchedulingPolicy;

/**
 * gtest prints a parameter without a printer as its raw bytes, and those
 * bytes end up in the ctest test names. Holding the model name inline
 * (not as a pointer) and leaving no padding keeps every byte initialised,
 * so the names are the same on every build and run.
 */
struct SweepPoint
{
    char model[13];
    bool unified;
    SchedulingPolicy policy;
    AttnMapping attn;
};
static_assert(sizeof(SweepPoint) == 16, "SweepPoint must have no padding");

class ConfigSweep : public ::testing::TestWithParam<SweepPoint>
{
  protected:
    SystemConfig
    config() const
    {
        return GetParam().unified ? SystemConfig::ianusDefault()
                                  : SystemConfig::partitioned();
    }

    BuildOptions
    options() const
    {
        BuildOptions b;
        b.policy = GetParam().policy;
        b.attnMapping = GetParam().attn;
        return b;
    }
};

TEST_P(ConfigSweep, SpansAndExclusivesAreConsistent)
{
    workloads::ModelConfig model = workloads::gpt2(GetParam().model);
    compiler::WorkloadBuilder builder(config(), model, options());
    ExecutionEngine engine(config());
    RunStats s = engine.run(builder.buildGenerationToken(130));

    double wall = static_cast<double>(s.wallTicks);
    double exclusive_sum = 0.0;
    for (std::size_t i = 0; i < RunStats::numClasses; ++i) {
        auto cls = static_cast<isa::OpClass>(i);
        // A span never exceeds the wall; busy never undercuts the span
        // (overlapping commands only inflate busy).
        EXPECT_LE(s.span(cls), wall * 1.0001) << toString(cls);
        EXPECT_GE(s.busy(cls), s.span(cls) * 0.999) << toString(cls);
        EXPECT_GE(s.exclusive(cls), 0.0);
        // Exclusive attribution is a partition of the span.
        EXPECT_LE(s.exclusive(cls), s.span(cls) * 1.0001)
            << toString(cls);
        exclusive_sum += s.exclusive(cls);
    }
    EXPECT_LE(exclusive_sum, wall * 1.0001);
    EXPECT_GT(exclusive_sum, 0.5 * wall); // most time has work in flight
}

TEST_P(ConfigSweep, EveryCommandExecutesExactlyOnce)
{
    workloads::ModelConfig model = workloads::gpt2(GetParam().model);
    compiler::WorkloadBuilder builder(config(), model, options());
    isa::Program prog = builder.buildGenerationToken(200);
    ExecutionEngine engine(config());
    RunStats s = engine.run(prog);
    EXPECT_EQ(static_cast<std::size_t>(s.commands), prog.size());
}

TEST_P(ConfigSweep, GenerationLatencyMonotoneInKvLength)
{
    workloads::ModelConfig model = workloads::gpt2(GetParam().model);
    compiler::WorkloadBuilder builder(config(), model, options());
    ExecutionEngine engine(config());
    Tick early = engine.run(builder.buildGenerationToken(64)).wallTicks;
    Tick late = engine.run(builder.buildGenerationToken(512)).wallTicks;
    EXPECT_LT(early, late);
}

TEST_P(ConfigSweep, DeterministicAcrossRuns)
{
    workloads::ModelConfig model = workloads::gpt2(GetParam().model);
    compiler::WorkloadBuilder builder(config(), model, options());
    ExecutionEngine engine(config());
    isa::Program prog = builder.buildGenerationToken(100);
    Tick a = engine.run(prog).wallTicks;
    Tick b = engine.run(prog).wallTicks;
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigSweep,
    ::testing::Values(
        SweepPoint{"m", true, SchedulingPolicy::Pas,
                   AttnMapping::MatrixUnit},
        SweepPoint{"m", true, SchedulingPolicy::Naive,
                   AttnMapping::MatrixUnit},
        SweepPoint{"m", true, SchedulingPolicy::Pas, AttnMapping::Pim},
        SweepPoint{"m", false, SchedulingPolicy::Pas,
                   AttnMapping::MatrixUnit},
        SweepPoint{"l", true, SchedulingPolicy::Pas,
                   AttnMapping::MatrixUnit},
        SweepPoint{"xl", true, SchedulingPolicy::Naive,
                   AttnMapping::Pim},
        SweepPoint{"xl", false, SchedulingPolicy::Naive,
                   AttnMapping::MatrixUnit},
        SweepPoint{"2.5b", false, SchedulingPolicy::Pas,
                   AttnMapping::MatrixUnit}),
    [](const ::testing::TestParamInfo<SweepPoint> &info) {
        std::string name = info.param.model;
        name += info.param.unified ? "_unified" : "_partitioned";
        name += info.param.policy == SchedulingPolicy::Pas ? "_pas"
                                                           : "_naive";
        name += info.param.attn == AttnMapping::Pim ? "_pimattn"
                                                    : "_muattn";
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

/**
 * PAS never loses to naive scheduling on any evaluated point. The model
 * is a std::string, not a const char *, because gtest prints a pointer
 * inside a tuple by its address, which would change the test names on
 * every run.
 */
class PolicySweep
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(PolicySweep, PasNeverWorseThanNaive)
{
    auto [model_size, unified] = GetParam();
    SystemConfig cfg = unified ? SystemConfig::ianusDefault()
                               : SystemConfig::partitioned();
    workloads::ModelConfig model = workloads::gpt2(model_size);
    workloads::InferenceRequest req{64, 5};
    BuildOptions naive;
    naive.policy = SchedulingPolicy::Naive;
    double n = serve::CompiledModel(cfg, model, naive).run(req).totalMs();
    double p = serve::CompiledModel(cfg, model).run(req).totalMs();
    EXPECT_LE(p, n * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    Models, PolicySweep,
    ::testing::Combine(::testing::Values("m", "l", "xl", "2.5b"),
                       ::testing::Bool()));

/** The unified system never loses to partitioned at equal capacity. */
class MemoryModeSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MemoryModeSweep, UnifiedWinsGeneration)
{
    workloads::ModelConfig model = workloads::gpt2(GetParam());
    serve::CompiledModel unified(SystemConfig::ianusDefault(), model);
    serve::CompiledModel partitioned(SystemConfig::partitioned(), model);
    workloads::InferenceRequest req{64, 5};
    EXPECT_LE(unified.run(req).totalMs(),
              partitioned.run(req).totalMs() * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Models, MemoryModeSweep,
                         ::testing::Values("m", "l", "xl", "2.5b"));

/**
 * Serving conservation sweep: for every
 * {router x policy x batching x preempt x chunk} combination on one
 * small heterogeneous trace, the drain passes the audit
 * (drain_audit.hh: every id once, dispatch, token and KV conservation,
 * consistent times, busy + idle = makespan) with nothing shed and no
 * handoff, and fleet stat aggregates stay additive: the report's
 * merged RunStats equals the per-request merge the completion hook
 * sees.
 */
TEST(ServingInvariantSweep, ConservationAcrossAllCombinations)
{
    using namespace serve;
    workloads::ModelConfig model = workloads::gpt2("m");

    // A heterogeneous pool shared across cells (caches are pure, so
    // warmth never changes numbers — only speed): the IANUS + NPU-MEM
    // mix gives estimate-driven routers honestly skewed signals.
    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model));

    // A short saturating trace with long and short outputs, so
    // batching fills, preemption finds victims, and chunking splits
    // the 128-token prompts.
    TraceOptions topts;
    topts.seed = 5;
    topts.requests = 8;
    topts.arrivalsPerSec = 400.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 16, 48};
    ArrivalTrace trace = generatePoissonTrace(topts);

    const std::vector<std::string> routers = {
        "round-robin", "least-loaded", "queue-depth", "predicted-finish",
        "kv-affinity"};
    const std::vector<std::string> policies = {"fcfs", "sjf", "edf"};
    struct BatchCell
    {
        BatchingMode mode;
        std::size_t cap;
    };
    const std::vector<BatchCell> batchings = {
        {BatchingMode::None, 1},
        {BatchingMode::Static, 4},
        {BatchingMode::Continuous, 4}};

    for (const std::string &router : routers)
        for (const std::string &policy : policies)
            for (const BatchCell &batching : batchings)
                for (bool preempt : {false, true})
                    for (std::uint64_t chunk : {0, 96}) {
                        if (preempt &&
                            batching.mode == BatchingMode::Static)
                            continue; // rejected by construction
                        ServingOptions opts;
                        opts.batching = batching.mode;
                        opts.maxBatch = batching.cap;
                        opts.preempt = preempt;
                        opts.prefillChunk = chunk;
                        opts.tokenStride = 4;
                        ServingEngine engine(pool, opts,
                                             makePolicy(policy),
                                             makeRouter(router));
                        // Per-request cost reaches the completion hook
                        // only; sum it in completion order.
                        RunStats merged;
                        engine.setCompletionHook(
                            [&merged](const RequestResult &,
                                      const InferenceReport &s) {
                                merged.merge(s.combined());
                            });
                        submitAll(trace, engine);
                        ServingReport rep = engine.drain();

                        std::string cell = router + "/" + policy + "/" +
                                           toString(batching.mode) +
                                           (preempt ? "/preempt" : "") +
                                           (chunk ? "/chunk" : "");

                        // Every submitted id completes; none is shed
                        // and, on a role-less pool, none hands off.
                        ASSERT_EQ(rep.requests(), trace.size()) << cell;
                        EXPECT_EQ(rep.kvTransfers, 0u) << cell;
                        test::expectCleanDrain(
                            rep, trace.size(),
                            trace.requests.front().arrivalMs, cell);
                        if (!preempt)
                            for (const auto &r : rep.results) {
                                EXPECT_EQ(r.preemptions, 0u) << cell;
                                EXPECT_EQ(r.suspendedMs, 0.0) << cell;
                            }

                        // Fleet aggregates stay additive.
                        EXPECT_DOUBLE_EQ(rep.aggregate.commands,
                                         merged.commands)
                            << cell;
                        EXPECT_DOUBLE_EQ(rep.aggregate.muFlops,
                                         merged.muFlops)
                            << cell;
                        EXPECT_DOUBLE_EQ(rep.aggregate.dramReadBytes,
                                         merged.dramReadBytes)
                            << cell;
                    }
}

// The same conservation laws with the KV manager on: queue and none
// admission never lose a request, both layouts drain back to zero
// resident tokens, and routers stay consistent while consuming the
// kvPressure signal.
TEST(ServingInvariantSweep, KvCapacityPreservesConservation)
{
    using namespace serve;
    workloads::ModelConfig model = workloads::gpt2("m");

    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model));

    TraceOptions topts;
    topts.seed = 5;
    topts.requests = 8;
    topts.arrivalsPerSec = 400.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 16, 48};
    ArrivalTrace trace = generatePoissonTrace(topts);

    const std::vector<std::string> routers = {
        "round-robin", "queue-depth", "predicted-finish"};
    for (const std::string &router : routers)
        for (KvAdmission admission :
             {KvAdmission::None, KvAdmission::Queue})
            for (KvLayout layout :
                 {KvLayout::Unified, KvLayout::Partitioned}) {
                ServingOptions opts;
                opts.batching = BatchingMode::Continuous;
                opts.maxBatch = 4;
                opts.preempt = true;
                opts.tokenStride = 4;
                // Tight enough that 8 pending requests contend, yet
                // each partitioned half region (12 of 24 blocks) still
                // holds the largest worst case (128 + 48 = 11 blocks),
                // so queue admission always drains.
                opts.kv.capacityTokens = 384;
                opts.kv.blockTokens = 16;
                opts.kv.admission = admission;
                opts.kv.layout = layout;
                ServingEngine engine(pool, opts, makePolicy("fcfs"),
                                     makeRouter(router));
                submitAll(trace, engine);
                ServingReport rep = engine.drain();

                std::string cell = router + "/" +
                                   toString(admission) + "/" +
                                   toString(layout);
                ASSERT_EQ(rep.requests(), trace.size()) << cell;
                EXPECT_EQ(rep.kvShed, 0u) << cell;
                EXPECT_EQ(rep.kvTransfers, 0u) << cell;
                test::expectCleanDrain(rep, trace.size(),
                                       trace.requests.front().arrivalMs,
                                       cell);
                EXPECT_GT(rep.kvPeakPressure, 0.0) << cell;
                if (admission == KvAdmission::Queue) {
                    EXPECT_EQ(rep.kvSpilledSegments, 0u) << cell;
                }
            }
}

// Session conservation: for every (router x batching x kv) cell on one
// multi-turn trace, the drain passes the audit (pinned session KV
// never leaks blocks across park/evict/resume), every turn echoes its
// trace tags; a prefix hit prefills exactly the delta (input - prefix)
// while a miss honestly re-prefills the full input; prefillTokensSaved
// is the exact sum of hit prefixes; and per-session aggregates sum back
// to the fleet totals.
TEST(ServingInvariantSweep, SessionConservationAcrossCells)
{
    using namespace serve;
    workloads::ModelConfig model = workloads::gpt2("m");

    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model));

    SessionOptions sopts;
    sopts.seed = 11;
    sopts.sessions = 5;
    sopts.meanTurns = 3.0;
    sopts.meanThinkMs = 400.0; // think >> service so later turns can hit
    sopts.sessionsPerSec = 25.0;
    ArrivalTrace trace = generateSessionTrace(sopts);
    ASSERT_TRUE(trace.hasSessions());

    const std::vector<std::string> routers = {
        "round-robin", "kv-affinity", "predicted-finish"};
    for (const std::string &router : routers)
        for (bool batched : {false, true})
            for (bool kv : {false, true}) {
                ServingOptions opts;
                opts.batching = batched ? BatchingMode::Continuous
                                        : BatchingMode::None;
                opts.maxBatch = batched ? 4 : 1;
                opts.preempt = batched;
                opts.tokenStride = 4;
                if (kv) {
                    // Tight enough that pins contend with fresh
                    // admissions (forcing the reclamation path), loose
                    // enough that queue admission always drains.
                    opts.kv.capacityTokens = 1024;
                    opts.kv.blockTokens = 16;
                    opts.kv.admission = KvAdmission::Queue;
                }
                ServingEngine engine(pool, opts, makePolicy("fcfs"),
                                     makeRouter(router));
                submitAll(trace, engine);
                ServingReport rep = engine.drain();

                std::string cell = router +
                                   (batched ? "/continuous" : "/none") +
                                   (kv ? "/kv" : "");

                // Every turn completes exactly once and keeps its tags.
                ASSERT_EQ(rep.requests(), trace.size()) << cell;
                test::expectCleanDrain(rep, trace.size(),
                                       trace.requests.front().arrivalMs,
                                       cell);
                std::uint64_t resumable = 0, hits = 0, saved = 0;
                std::map<std::uint64_t, std::uint64_t> turnsBySession,
                    tokensBySession;
                std::map<std::uint64_t, std::pair<double, double>> span;
                for (const auto &r : rep.results) {
                    const auto &row =
                        trace.requests[static_cast<std::size_t>(r.id)];
                    EXPECT_EQ(r.sessionId, row.sessionId) << cell;
                    EXPECT_EQ(r.turnIndex, row.turnIndex) << cell;
                    EXPECT_EQ(r.prefixTokens, row.prefixTokens) << cell;
                    if (r.turnIndex > 0)
                        resumable += 1;
                    if (r.prefixHit) {
                        // A hit prefills exactly the delta...
                        EXPECT_EQ(r.prefilledTokens,
                                  r.request.inputTokens - r.prefixTokens)
                            << cell << " id " << r.id;
                        hits += 1;
                        saved += r.prefixTokens;
                    } else {
                        // ...and a miss re-prefills the full context.
                        EXPECT_EQ(r.prefilledTokens,
                                  r.request.inputTokens)
                            << cell << " id " << r.id;
                    }
                    turnsBySession[r.sessionId] += 1;
                    tokensBySession[r.sessionId] +=
                        r.request.outputTokens;
                    auto [it, fresh] = span.emplace(
                        r.sessionId,
                        std::make_pair(r.arrivalMs, r.finishMs));
                    if (!fresh) {
                        it->second.first =
                            std::min(it->second.first, r.arrivalMs);
                        it->second.second =
                            std::max(it->second.second, r.finishMs);
                    }
                }
                // Hit/miss bookkeeping is exact.
                EXPECT_EQ(rep.prefixHits, hits) << cell;
                EXPECT_EQ(rep.prefixHits + rep.prefixMisses, resumable)
                    << cell;
                EXPECT_EQ(rep.prefillTokensSaved, saved) << cell;

                EXPECT_EQ(rep.kvShed, 0u) << cell;

                // Per-session aggregates sum to the fleet totals.
                EXPECT_EQ(rep.sessions(), turnsBySession.size()) << cell;
                std::uint64_t turns = 0, tokens = 0;
                for (const auto &[sid, n] : turnsBySession)
                    turns += n;
                for (const auto &[sid, n] : tokensBySession)
                    tokens += n;
                EXPECT_EQ(turns, trace.size()) << cell;
                EXPECT_EQ(tokens, rep.generatedTokens) << cell;
                std::vector<double> lat = rep.sessionLatenciesMs();
                ASSERT_EQ(lat.size(), span.size()) << cell;
                std::size_t i = 0;
                for (const auto &[sid, mm] : span)
                    EXPECT_DOUBLE_EQ(lat[i++], mm.second - mm.first)
                        << cell << " session " << sid;
            }
}

// Disaggregated conservation: the audit on a role-typed 2-prefill +
// 2-decode pool across (router x policy x kv x preempt) cells — there
// dispatches count the handoff arrival (a transfer lands its member on
// the decode replica as one extra dispatch), and both roles drain back
// to zero resident KV with no leaked blocks, so the decode side
// reserved exactly what the prefill side released — extended with the
// handoff ledger: every multi-token request prefills on a prefill
// replica and decodes on a decode replica with a non-empty transfer.
TEST(ServingInvariantSweep, DisaggregatedConservationAcrossCells)
{
    using namespace serve;
    workloads::ModelConfig model = workloads::gpt2("m");

    // Heterogeneous on both sides of the split, so estimate-driven
    // routers see skewed prefill signals and the transfer targets
    // differ in speed.
    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
                        SystemConfig::ianusDefault(), model),
                    ReplicaRole::Prefill);
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model),
        ReplicaRole::Prefill);
    pool.addReplica(std::make_unique<CompiledModel>(
                        SystemConfig::ianusDefault(), model),
                    ReplicaRole::Decode);
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model),
        ReplicaRole::Decode);

    TraceOptions topts;
    topts.seed = 5;
    topts.requests = 8;
    topts.arrivalsPerSec = 400.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 16, 48};
    ArrivalTrace trace = generatePoissonTrace(topts);

    const std::vector<std::string> routers = {
        "round-robin", "least-loaded", "predicted-finish", "slo-budget"};
    const std::vector<std::string> policies = {"fcfs", "sjf"};
    for (const std::string &router : routers)
        for (const std::string &policy : policies)
            for (bool kv : {false, true})
                for (bool preempt : {false, true}) {
                    ServingOptions opts;
                    opts.batching = BatchingMode::Continuous;
                    opts.maxBatch = 4;
                    opts.preempt = preempt;
                    opts.tokenStride = 4;
                    opts.kvLinkGBs = 16.0;
                    if (kv) {
                        opts.kv.capacityTokens = 1024;
                        opts.kv.blockTokens = 16;
                        opts.kv.admission = KvAdmission::Queue;
                    }
                    ServingEngine engine(pool, opts, makePolicy(policy),
                                         makeRouter(router));
                    submitAll(trace, engine);
                    ServingReport rep = engine.drain();

                    std::string cell = router + "/" + policy +
                                       (kv ? "/kv" : "") +
                                       (preempt ? "/preempt" : "");

                    // Every submitted id completes exactly once.
                    ASSERT_EQ(rep.requests(), trace.size()) << cell;
                    test::expectCleanDrain(
                        rep, trace.size(),
                        trace.requests.front().arrivalMs, cell);

                    // Handoff ledger: every output here is > 1, so
                    // every request ships its KV exactly once —
                    // preemption resumes in place and never re-ships.
                    std::uint64_t transfers = 0;
                    for (const auto &r : rep.results) {
                        EXPECT_LT(r.prefillIndex, 2u)
                            << cell << " id " << r.id;
                        EXPECT_GE(r.deviceIndex, 2u)
                            << cell << " id " << r.id;
                        EXPECT_GT(r.kvTransferTokens, 0u)
                            << cell << " id " << r.id;
                        EXPECT_GT(r.kvTransferMs, 0.0)
                            << cell << " id " << r.id;
                        transfers += 1;
                        if (!preempt) {
                            EXPECT_EQ(r.preemptions, 0u) << cell;
                        }
                    }
                    EXPECT_EQ(rep.kvTransfers, trace.size()) << cell;
                    EXPECT_EQ(transfers, rep.kvTransfers) << cell;
                    EXPECT_GT(rep.kvTransferMs, 0.0) << cell;
                    EXPECT_GT(rep.kvTransferGB, 0.0) << cell;
                    EXPECT_EQ(rep.kvShed, 0u) << cell;
                }
}

/**
 * Mixed-drain conservation sweep: closed-loop interactive clients over
 * an open-loop batch background trace, for every
 * {router x batching x preempt x kv} cell —
 *
 *  - the drain passes the audit, submitted and injected requests
 *    alike, serviceMs at finish's scale (the clients keep injecting
 *    well past 50 ms);
 *  - both populations complete in full, and every result carries the
 *    source tag its injection used;
 *  - the per-source slices partition the fleet totals (requests,
 *    generated tokens) with nothing dropped or double-counted;
 *  - slice goodputs share the fleet makespan base, so they sum to the
 *    fleet's own SLO-goodput.
 */
TEST(ServingInvariantSweep, MixedDrainConservationAcrossCells)
{
    using namespace serve;
    workloads::ModelConfig model = workloads::gpt2("m");

    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model));

    TraceOptions topts;
    topts.seed = 5;
    topts.requests = 8;
    topts.arrivalsPerSec = 200.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {2, 16, 48};
    ArrivalTrace background = generatePoissonTrace(topts);

    ClosedLoopOptions copts;
    copts.seed = 3;
    copts.clients = 3;
    copts.requestsPerClient = 3;
    copts.meanThinkMs = 5.0;
    const std::size_t interactive =
        copts.clients * copts.requestsPerClient;

    const std::vector<std::string> routers = {
        "round-robin", "least-loaded", "queue-depth",
        "predicted-finish", "kv-affinity"};
    struct BatchCell
    {
        BatchingMode mode;
        std::size_t cap;
    };
    const std::vector<BatchCell> batchings = {
        {BatchingMode::None, 1}, {BatchingMode::Continuous, 4}};

    for (const std::string &router : routers)
        for (const BatchCell &batching : batchings)
            for (bool preempt : {false, true})
                for (bool kv : {false, true}) {
                    ServingOptions opts;
                    opts.batching = batching.mode;
                    opts.maxBatch = batching.cap;
                    opts.preempt = preempt;
                    opts.tokenStride = 4;
                    opts.sloMsPerToken = 12.0;
                    if (kv) {
                        opts.kv.capacityTokens = 1024;
                        opts.kv.blockTokens = 16;
                        opts.kv.admission = KvAdmission::Queue;
                    }
                    ServingEngine engine(pool, opts,
                                         makePolicy("fcfs"),
                                         makeRouter(router));
                    MixedResult res =
                        runMixedDrain(engine, copts, background);
                    const ServingReport &rep = res.report;

                    std::string cell = router + "/" +
                                       toString(batching.mode) +
                                       (preempt ? "/preempt" : "") +
                                       (kv ? "/kv" : "");

                    // Both populations complete, each id once.
                    ASSERT_EQ(rep.requests(),
                              interactive + background.size())
                        << cell;
                    test::expectCleanDrain(
                        rep, interactive + background.size(),
                        std::min(background.requests.front().arrivalMs,
                                 res.realizedInteractive.requests.front()
                                     .arrivalMs),
                        cell, test::ServiceScale::Finish);
                    std::size_t n_interactive = 0, n_batch = 0;
                    for (const auto &r : rep.results) {
                        if (r.source == kInteractiveSource)
                            n_interactive += 1;
                        else if (r.source == kBatchSource)
                            n_batch += 1;
                        else
                            ADD_FAILURE()
                                << cell << " untagged id " << r.id;
                    }
                    EXPECT_EQ(n_interactive, interactive) << cell;
                    EXPECT_EQ(n_batch, background.size()) << cell;

                    // Slices partition the fleet totals.
                    std::vector<SourceSlice> slices =
                        rep.sourceSlices();
                    ASSERT_EQ(slices.size(), 2u) << cell;
                    std::size_t slice_requests = 0;
                    std::uint64_t slice_tokens = 0;
                    double slice_goodput = 0.0;
                    for (const SourceSlice &s : slices) {
                        slice_requests += s.requests;
                        slice_tokens += s.generatedTokens;
                        slice_goodput += s.goodputTokensPerSec;
                    }
                    EXPECT_EQ(slice_requests, rep.requests()) << cell;
                    EXPECT_EQ(slice_tokens, rep.generatedTokens)
                        << cell;
                    EXPECT_NEAR(slice_goodput,
                                rep.sloGoodputTokensPerSec(),
                                1e-6 * (1.0 + slice_goodput))
                        << cell;
                }
}

} // namespace
