/**
 * @file Every simulated number, pinned bit for bit. One small drain per
 * serving feature, a few whole-request reports of the paper's
 * configurations and raw device-engine runs are digested field by
 * field (drain_audit.hh's ResultDigest) and compared with recorded
 * digests. Tests that compare a path only with another path pass
 * whatever both compute, and the goldens print one or two decimals;
 * these fail when any result moves by one unit in the last place. A
 * change meant to move numbers re-records the digests it moves, in its
 * own commit, and says which.
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
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compiler/workload_builder.hh"
#include "drain_audit.hh"
#include "ianus/execution_engine.hh"
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

// Raw device runs, below every composition: ExecutionEngine::run on
// the full program, and each of its block-end snapshots. The served
// paths above compose a 2-block run, and the block-periodic tests
// compare two runs of the same engine, so a timing slip that moves
// both alike passes them; it moves these. The programs are a resumed
// prefill chunk and a batch-4 generation step of GPT-2 M on the three
// memory systems under five build options, plus partitioned GPT-2
// 2.5B, whose spilled first blocks take the full-program path.
TEST(ResultDigest, EngineRunsMatchRecordedDigests)
{
    const std::map<std::string, std::uint64_t> want = {
        {"ianus/m/force-pim/batch-4", 0x3bd5ae6cebc560b8ull},
        {"ianus/m/force-pim/chunk-96+64", 0xf4440f2d92a54b28ull},
        {"ianus/m/naive/batch-4", 0x5a5ab029168ff0e1ull},
        {"ianus/m/naive/chunk-96+64", 0xae1037b292c21f6eull},
        {"ianus/m/pas/batch-4", 0x3bd5ae6cebc560b8ull},
        {"ianus/m/pas/chunk-96+64", 0xb98ed36c18e88715ull},
        {"ianus/m/pim-attn/batch-4", 0xaec138749196d90eull},
        {"ianus/m/pim-attn/chunk-96+64", 0xb98ed36c18e88715ull},
        {"ianus/m/tp2/batch-4", 0xadc6868c71efb8f3ull},
        {"ianus/m/tp2/chunk-96+64", 0x409dd2999b3490c1ull},
        {"npu-mem/m/force-pim/batch-4", 0xc949f82a017d1801ull},
        {"npu-mem/m/force-pim/chunk-96+64", 0x61d3d5ad9b83826cull},
        {"npu-mem/m/naive/batch-4", 0xda17ec5ab81836b0ull},
        {"npu-mem/m/naive/chunk-96+64", 0x1ae80522162fc56bull},
        {"npu-mem/m/pas/batch-4", 0xc949f82a017d1801ull},
        {"npu-mem/m/pas/chunk-96+64", 0x61d3d5ad9b83826cull},
        {"npu-mem/m/tp2/batch-4", 0x42aa57d16bb8776full},
        {"npu-mem/m/tp2/chunk-96+64", 0x1af9b60c3e507568ull},
        {"partitioned/2.5b/pas/batch-4", 0xda023783b39c1a88ull},
        {"partitioned/2.5b/pas/chunk-96+64", 0x602611e0e2cb2aa1ull},
        {"partitioned/m/force-pim/batch-4", 0xac35547d19c9c545ull},
        {"partitioned/m/force-pim/chunk-96+64", 0x3500046de8b88610ull},
        {"partitioned/m/naive/batch-4", 0x2f181b55f56f75bdull},
        {"partitioned/m/naive/chunk-96+64", 0x34f5103f507bb45eull},
        {"partitioned/m/pas/batch-4", 0xac35547d19c9c545ull},
        {"partitioned/m/pas/chunk-96+64", 0x64bce85f74077f9eull},
        {"partitioned/m/pim-attn/batch-4", 0xf6de6bce1e5c7578ull},
        {"partitioned/m/pim-attn/chunk-96+64", 0x64bce85f74077f9eull},
        {"partitioned/m/tp2/batch-4", 0x0a500bc68fd8d4baull},
        {"partitioned/m/tp2/chunk-96+64", 0x8f35b5939ec0b1b2ull},
    };

    using compiler::BuildOptions;
    BuildOptions naive;
    naive.policy = compiler::SchedulingPolicy::Naive;
    BuildOptions pim_attn;
    pim_attn.attnMapping = compiler::AttnMapping::Pim;
    BuildOptions force_pim;
    force_pim.fcPlacement = compiler::FcPlacement::ForcePim;
    const std::vector<std::pair<std::string, BuildOptions>> options = {
        {"pas", {}},
        {"naive", naive},
        {"pim-attn", pim_attn},
        {"force-pim", force_pim},
        {"tp2", {.devices = 2}}};
    const std::vector<std::pair<std::string, SystemConfig>> systems = {
        {"ianus", SystemConfig::ianusDefault()},
        {"npu-mem", SystemConfig::npuMem()},
        {"partitioned", SystemConfig::partitioned()}};

    std::map<std::string, std::uint64_t> got;
    auto digestRuns = [&got](const std::string &name,
                             const SystemConfig &sys,
                             const workloads::ModelConfig &model,
                             const BuildOptions &opts) {
        std::optional<compiler::WorkloadBuilder> builder;
        try {
            builder.emplace(sys, model, opts);
        } catch (const std::runtime_error &) {
            return; // NPU-MEM has no PIM to map attention onto
        }
        ExecutionEngine engine(sys, opts.devices);
        const std::pair<std::string, isa::Program> programs[] = {
            {"chunk-96+64", builder->buildSummarizationChunk(96, 64, true)},
            {"batch-4", builder->buildGenerationBatch({257, 318, 379, 440})}};
        for (const auto &[what, prog] : programs) {
            std::vector<RunStats> ends;
            test::ResultDigest digest;
            digest.add(engine.run(prog, &ends));
            EXPECT_EQ(ends.size(), model.nBlocks) << name << '/' << what;
            for (const RunStats &end : ends)
                digest.add(end);
            got[name + '/' + what] = digest.value;
        }
    };
    const workloads::ModelConfig m = workloads::gpt2("m");
    for (const auto &[sys_name, sys] : systems)
        for (const auto &[opt_name, opts] : options)
            digestRuns(sys_name + "/m/" + opt_name, sys, m, opts);
    digestRuns("partitioned/2.5b/pas", SystemConfig::partitioned(),
               workloads::gpt2("2.5b"), {});
    expectDigests(want, got);
}

} // namespace
