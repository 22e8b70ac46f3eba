/**
 * @file Every simulated number, pinned bit for bit. One small drain per
 * serving feature and a few whole-request reports of the paper's
 * configurations are digested field by field (drain_audit.hh's
 * ResultDigest) and compared with recorded digests. Tests that compare
 * a path only with another path pass whatever both compute, and the
 * goldens print one or two decimals; these fail when any result moves
 * by one unit in the last place. A change meant to move numbers
 * re-records the digests it moves, in its own commit, and says which.
 *
 * Each drain also checks that it reaches its feature (a scenario that
 * never spills, sheds or hands off pins nothing of that path) and holds
 * its report to the drain audit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "drain_audit.hh"
#include "serve/sharded_drain.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

/** Compare @p got with @p want by name, printing each digest that
 *  misses in the form the table takes. */
void
expectDigests(const std::map<std::string, std::uint64_t> &want,
              const std::map<std::string, std::uint64_t> &got)
{
    for (const auto &[name, digest] : got) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llxull",
                      static_cast<unsigned long long>(digest));
        auto it = want.find(name);
        EXPECT_TRUE(it != want.end() && it->second == digest)
            << name << " digests to " << hex;
    }
    EXPECT_EQ(got.size(), want.size());
}

/** Two IANUS and two NPU-MEM GPT-2 M replicas, alternating. */
const DevicePool &
mixedPool()
{
    static const DevicePool pool = [] {
        DevicePool p;
        for (std::size_t d = 0; d < 4; ++d)
            p.addReplica(std::make_unique<CompiledModel>(
                d % 2 == 0 ? SystemConfig::ianusDefault()
                           : SystemConfig::npuMem(),
                workloads::gpt2("m")));
        return p;
    }();
    return pool;
}

ArrivalTrace
poisson(std::uint64_t seed, std::size_t requests, double per_sec)
{
    TraceOptions t;
    t.seed = seed;
    t.requests = requests;
    t.arrivalsPerSec = per_sec;
    t.inputTokenChoices = {32, 64, 200};
    t.outputTokenChoices = {2, 12, 40};
    return generatePoissonTrace(t);
}

ArrivalTrace
sessions(std::uint64_t seed)
{
    SessionOptions s;
    s.seed = seed;
    s.sessions = 10;
    s.meanTurns = 3.0;
    s.maxTurns = 5;
    s.maxContextTokens = 256;
    s.meanThinkMs = 20.0;
    s.sessionsPerSec = 60.0;
    s.deltaTokenChoices = {16, 48};
    s.outputTokenChoices = {4, 16};
    return generateSessionTrace(s);
}

struct Scenario
{
    std::string name;
    ServingOptions opts;
    std::string policy = "fcfs";
    std::string router = "round-robin";
    ArrivalTrace trace;
    /** > 1: drainSharded over that many shards on two threads. */
    std::size_t shards = 1;
    /** What the drain must show to have reached its feature. */
    std::function<bool(const ServingReport &)> reached;
};

std::vector<Scenario>
scenarios()
{
    std::vector<Scenario> v;
    auto add = [&v](std::string name, ArrivalTrace trace,
                    std::function<bool(const ServingReport &)> reached) {
        Scenario s;
        s.name = std::move(name);
        s.trace = std::move(trace);
        s.reached = std::move(reached);
        v.push_back(std::move(s));
        return &v.back().opts;
    };
    auto batched = [](const ServingReport &r) {
        return r.meanBatchOccupancy() > 1.0;
    };

    // Whole-request service: CompiledModel::run's strided trapezoid.
    ServingOptions *o = add("whole-fcfs-stride4", poisson(3, 24, 150.0),
                            [](const ServingReport &r) {
                                return r.meanBatchOccupancy() == 1.0;
                            });
    o->tokenStride = 4;
    v.back().router = "least-loaded";

    o = add("continuous", poisson(5, 30, 400.0), batched);
    o->batching = BatchingMode::Continuous;
    o->maxBatch = 4;
    o->tokenStride = 4;
    v.back().router = "predicted-finish";

    o = add("static", poisson(7, 30, 400.0), batched);
    o->batching = BatchingMode::Static;
    o->maxBatch = 3;
    o->tokenStride = 2;
    v.back().router = "queue-depth";

    o = add("chunked-sjf-preempt", poisson(11, 30, 300.0),
            [](const ServingReport &r) {
                std::uint64_t chunked = 0;
                for (const RequestResult &q : r.results)
                    chunked += q.prefillChunks > 1;
                return r.preemptions() > 0 && chunked > 0;
            });
    o->batching = BatchingMode::Continuous;
    o->maxBatch = 3;
    o->prefillChunk = 48;
    o->preempt = true;
    o->tokenStride = 4;
    v.back().policy = "sjf";
    v.back().router = "slo-budget";

    for (KvAdmission mode :
         {KvAdmission::None, KvAdmission::Queue, KvAdmission::Shed}) {
        o = add(std::string("kv-") + toString(mode), poisson(13, 30, 400.0),
                [mode](const ServingReport &r) {
                    if (mode == KvAdmission::None)
                        return r.kvSpilledSegments > 0;
                    if (mode == KvAdmission::Shed)
                        return r.kvShed > 0;
                    return r.kvPeakPressure > 0.5;
                });
        o->batching = BatchingMode::Continuous;
        o->maxBatch = 4;
        o->tokenStride = 2;
        o->kv.capacityTokens = 320;
        o->kv.blockTokens = 16;
        o->kv.admission = mode;
        v.back().router = "least-loaded";
    }

    // Sessions on paged KV, priced by a predicted-finish router, whose
    // estimates take the prefix hit's resumed prefill.
    o = add("sessions-prefix-paged", sessions(17),
            [](const ServingReport &r) { return r.prefixHits > 0; });
    o->batching = BatchingMode::Continuous;
    o->maxBatch = 4;
    o->tokenStride = 4;
    o->kv.capacityTokens = 4096;
    o->kv.admission = KvAdmission::Queue;
    v.back().router = "predicted-finish";

    // Prefill on the NPU-MEM replicas, decode on the IANUS ones, with
    // sessions, so that a hit's prefix is priced on the prefill side.
    o = add("typed-roles-sessions", sessions(19),
            [](const ServingReport &r) {
                return r.kvTransfers > 0 && r.prefixHits > 0;
            });
    o->batching = BatchingMode::Continuous;
    o->maxBatch = 4;
    o->tokenStride = 4;
    o->roles = {ReplicaRole::Decode, ReplicaRole::Prefill,
                ReplicaRole::Decode, ReplicaRole::Prefill};
    v.back().router = "kv-affinity";

    o = add("sharded-2x2", poisson(23, 40, 600.0),
            [](const ServingReport &r) { return r.shards == 2; });
    o->batching = BatchingMode::Continuous;
    o->maxBatch = 4;
    o->tokenStride = 4;
    v.back().router = "least-loaded";
    v.back().shards = 2;
    return v;
}

TEST(ResultDigest, DrainsMatchRecordedDigests)
{
    const std::map<std::string, std::uint64_t> want = {
        {"chunked-sjf-preempt", 0x224370a6ba124a9dull},
        {"continuous", 0x0e3812a0bbcddff4ull},
        {"kv-none", 0x36853e7d7e48d95eull},
        {"kv-queue", 0xebe6acd310102e0bull},
        {"kv-shed", 0xeb56e323c935a484ull},
        {"sessions-prefix-paged", 0xd8fe257a7fa19bd3ull},
        {"sharded-2x2", 0x8df4e47aae794c56ull},
        {"static", 0xffb9455173158508ull},
        {"typed-roles-sessions", 0xe6e6f77e0c6911b0ull},
        {"whole-fcfs-stride4", 0xf04be2851d56fbe5ull},
    };

    std::map<std::string, std::uint64_t> got;
    for (const Scenario &s : scenarios()) {
        ServingReport rep;
        if (s.shards > 1) {
            rep = drainSharded(mixedPool(), s.opts, s.trace,
                               ShardOptions{s.shards, 2}, s.policy,
                               s.router);
        } else {
            ServingEngine engine(mixedPool(), s.opts, makePolicy(s.policy),
                                 makeRouter(s.router, s.opts.sloMsPerToken));
            submitAll(s.trace, engine);
            rep = engine.drain();
        }
        EXPECT_TRUE(s.reached(rep)) << s.name << " misses its feature";
        test::expectCleanDrain(rep, s.trace.size(),
                               s.trace.requests.front().arrivalMs, s.name,
                               test::ServiceScale::Finish);
        test::ResultDigest digest;
        digest.add(rep);
        got[s.name] = digest.value;
    }
    expectDigests(want, got);
}

// Whole-request reports at full precision: the paper's three device
// configurations, a GPT-2 and a BERT model, strides on both sides of
// run()'s exact branch (steps <= 2 * stride) and a tensor-parallel
// pair of devices.
TEST(ResultDigest, InferenceReportsMatchRecordedDigests)
{
    const std::map<std::string, std::uint64_t> want = {
        {"ianus-x2/bert-b/384", 0x93ac89cac6854438ull},
        {"ianus-x2/m/128x64/s8", 0xdeb6145ad8fe87d2ull},
        {"ianus-x2/xl/256x32/s32", 0xe57c84e01996daf9ull},
        {"ianus/bert-b/128", 0x6dac2cd3b393456aull},
        {"ianus/m/128x64/s1", 0xf80614f18f68ce5cull},
        {"ianus/m/128x64/s8", 0x6d3be59c35822a17ull},
        {"ianus/m/64x257/s32", 0x414b056be65d127dull},
        {"ianus/m/64x40/s32", 0x81fe83e036e921d6ull},
        {"ianus/xl/256x32/s8", 0xa071a2a278d446c0ull},
        {"npu-mem/m/128x64/s8", 0x14e57852febee1d5ull},
        {"npu-mem/xl/256x32/s8", 0x193a9975c2f3de1aull},
        {"partitioned/bert-b/128", 0x28ce2b01d43762c7ull},
        {"partitioned/m/128x64/s8", 0xca9110af8c8e0e49ull},
        {"partitioned/xl/256x32/s8", 0x42c5a5fe7b644dc3ull},
    };

    struct Cell
    {
        std::string name;
        SystemConfig sys;
        workloads::ModelConfig model;
        unsigned devices;
        workloads::InferenceRequest request;
        unsigned stride;
    };
    const workloads::ModelConfig m = workloads::gpt2("m");
    const workloads::ModelConfig xl = workloads::gpt2("xl");
    const workloads::ModelConfig bert = workloads::bert("b");
    const SystemConfig ianus = SystemConfig::ianusDefault();
    const SystemConfig npu_mem = SystemConfig::npuMem();
    const SystemConfig part = SystemConfig::partitioned();
    const std::vector<Cell> cells = {
        {"ianus/m/128x64/s1", ianus, m, 1, {128, 64}, 1},
        {"ianus/m/128x64/s8", ianus, m, 1, {128, 64}, 8},
        {"ianus/m/64x40/s32", ianus, m, 1, {64, 40}, 32},
        {"ianus/m/64x257/s32", ianus, m, 1, {64, 257}, 32},
        {"npu-mem/m/128x64/s8", npu_mem, m, 1, {128, 64}, 8},
        {"partitioned/m/128x64/s8", part, m, 1, {128, 64}, 8},
        {"ianus/xl/256x32/s8", ianus, xl, 1, {256, 32}, 8},
        {"npu-mem/xl/256x32/s8", npu_mem, xl, 1, {256, 32}, 8},
        {"partitioned/xl/256x32/s8", part, xl, 1, {256, 32}, 8},
        {"ianus/bert-b/128", ianus, bert, 1, {128, 1}, 1},
        {"partitioned/bert-b/128", part, bert, 1, {128, 1}, 1},
        {"ianus-x2/bert-b/384", ianus, bert, 2, {384, 1}, 1},
        {"ianus-x2/m/128x64/s8", ianus, m, 2, {128, 64}, 8},
        {"ianus-x2/xl/256x32/s32", ianus, xl, 2, {256, 32}, 32},
    };

    std::map<std::string, std::uint64_t> got;
    for (const Cell &c : cells) {
        const CompiledModel model(c.sys, c.model, {.devices = c.devices});
        test::ResultDigest digest;
        digest.add(model.run(c.request, c.stride));
        got[c.name] = digest.value;
    }
    expectDigests(want, got);
}

} // namespace
