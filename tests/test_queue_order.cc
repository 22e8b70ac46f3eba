/**
 * @file The QueueOrder fast paths are pure optimizations: forcing a
 * policy back onto the generic Dynamic path (full selectBatch over the
 * whole ready queue at every boundary) must reproduce the fast path's
 * drain bit for bit. That is the hot-path refactor's correctness
 * contract — walking the one ready index in Arrival or StaticUrgency
 * order may only change *how fast* the scheduler reaches its
 * decisions, never which decisions it reaches.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

// Same scheduling decisions, generic ready-queue representation: the
// engine sees queueOrder() == Dynamic and falls back to calling
// selectBatch at every boundary.
struct FcfsDynamic : FcfsPolicy
{
    QueueOrder queueOrder() const override { return QueueOrder::Dynamic; }
};
struct SjfDynamic : SjfPolicy
{
    QueueOrder queueOrder() const override { return QueueOrder::Dynamic; }
};
struct EdfDynamic : EdfPolicy
{
    QueueOrder queueOrder() const override { return QueueOrder::Dynamic; }
};

void
expectDrainsIdentical(const ServingReport &fast, const ServingReport &ref,
                      const std::string &cell)
{
    ASSERT_EQ(fast.results.size(), ref.results.size()) << cell;
    for (std::size_t i = 0; i < fast.results.size(); ++i) {
        const RequestResult &x = fast.results[i];
        const RequestResult &y = ref.results[i];
        const std::string at = cell + " result " + std::to_string(i);
        EXPECT_EQ(x.id, y.id) << at;
        EXPECT_EQ(x.deviceIndex, y.deviceIndex) << at;
        EXPECT_EQ(x.startMs, y.startMs) << at;
        EXPECT_EQ(x.firstTokenMs, y.firstTokenMs) << at;
        EXPECT_EQ(x.finishMs, y.finishMs) << at;
        EXPECT_EQ(x.suspendedMs, y.suspendedMs) << at;
        EXPECT_EQ(x.preemptions, y.preemptions) << at;
        EXPECT_EQ(x.meanBatchSize, y.meanBatchSize) << at;
    }
    EXPECT_EQ(fast.makespanMs, ref.makespanMs) << cell;
    EXPECT_EQ(fast.generatedTokens, ref.generatedTokens) << cell;
    EXPECT_EQ(fast.kvShed, ref.kvShed) << cell;
    EXPECT_EQ(fast.kvSpilledSegments, ref.kvSpilledSegments) << cell;
    for (std::size_t d = 0; d < fast.replicas.size(); ++d) {
        EXPECT_EQ(fast.replicas[d].dispatched, ref.replicas[d].dispatched)
            << cell << " replica " << d;
        EXPECT_EQ(fast.replicas[d].busyMs, ref.replicas[d].busyMs)
            << cell << " replica " << d;
    }
}

struct Cell
{
    const char *name;
    std::function<ServingOptions()> options;
};

std::vector<Cell>
cells()
{
    auto plain = [] {
        ServingOptions o;
        o.tokenStride = 4;
        return o;
    };
    auto continuous = [] {
        ServingOptions o;
        o.batching = BatchingMode::Continuous;
        o.maxBatch = 4;
        o.tokenStride = 4;
        return o;
    };
    auto preemptChunk = [] {
        ServingOptions o;
        o.preempt = true;
        o.prefillChunk = 64;
        o.batching = BatchingMode::Continuous;
        o.maxBatch = 4;
        o.tokenStride = 4;
        return o;
    };
    // Tight KV budget + queue admission: requests head-block at the
    // scheduler until blocks free — the case where skipping a blocked
    // candidate (Dynamic rebuilds the batch; the ordered index walks
    // past it) must still agree.
    auto kvQueue = [] {
        ServingOptions o;
        o.tokenStride = 4;
        o.kv.capacityTokens = 384;
        o.kv.blockTokens = 16;
        o.kv.admission = KvAdmission::Queue;
        return o;
    };
    auto kvQueuePreempt = [] {
        ServingOptions o;
        o.tokenStride = 4;
        o.preempt = true;
        o.kv.capacityTokens = 384;
        o.kv.blockTokens = 16;
        o.kv.admission = KvAdmission::Queue;
        return o;
    };
    // Shed admission: a KV-blocked candidate leaves the queue
    // unserved, which ends an FCFS pass and which SJF/EDF walk past,
    // as on the Dynamic path.
    auto kvShed = [] {
        ServingOptions o;
        o.batching = BatchingMode::Continuous;
        o.maxBatch = 4;
        o.tokenStride = 4;
        o.kv.capacityTokens = 384;
        o.kv.blockTokens = 16;
        o.kv.admission = KvAdmission::Shed;
        return o;
    };
    return {{"plain", plain},
            {"continuous4", continuous},
            {"preempt+chunk", preemptChunk},
            {"kv-queue", kvQueue},
            {"kv-queue+preempt", kvQueuePreempt},
            {"kv-shed", kvShed}};
}

class QueueOrderEquivalence
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(QueueOrderEquivalence, FastPathMatchesDynamicReference)
{
    const std::string policyName = GetParam();
    workloads::ModelConfig model = workloads::gpt2("m");

    DevicePool pool;
    pool.addReplica(std::make_unique<CompiledModel>(
        SystemConfig::ianusDefault(), model));
    pool.addReplica(
        std::make_unique<CompiledModel>(SystemConfig::npuMem(), model));

    // Saturating trace with heterogeneous sizes: deep ready queues are
    // exactly where the fast paths diverge from the reference if the
    // equivalence argument has a hole.
    TraceOptions topts;
    topts.seed = 13;
    topts.requests = 16;
    topts.arrivalsPerSec = 800.0;
    topts.inputTokenChoices = {32, 64, 128};
    topts.outputTokenChoices = {2, 8, 24, 48};
    ArrivalTrace trace = generatePoissonTrace(topts);

    auto makeFast = [&]() -> std::unique_ptr<SchedulingPolicy> {
        return makePolicy(policyName);
    };
    auto makeRef = [&]() -> std::unique_ptr<SchedulingPolicy> {
        if (policyName == "fcfs")
            return std::make_unique<FcfsDynamic>();
        if (policyName == "sjf")
            return std::make_unique<SjfDynamic>();
        return std::make_unique<EdfDynamic>();
    };

    for (const Cell &cell : cells()) {
        ServingOptions opts = cell.options();

        ServingEngine fastEngine(pool, opts, makeFast(),
                                 makeRouter("queue-depth"));
        submitAll(trace, fastEngine);
        ServingReport fast = fastEngine.drain();

        ServingEngine refEngine(pool, opts, makeRef(),
                                makeRouter("queue-depth"));
        submitAll(trace, refEngine);
        ServingReport ref = refEngine.drain();

        expectDrainsIdentical(fast, ref,
                              policyName + std::string("/") + cell.name);
        if (opts.kv.admission == KvAdmission::Shed) {
            EXPECT_GT(fast.kvShed, 0u) << policyName;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, QueueOrderEquivalence,
                         ::testing::Values("fcfs", "sjf", "edf"));

} // namespace
