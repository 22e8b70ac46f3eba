/**
 * @file End-to-end invariants: the paper's qualitative claims must hold
 * in simulation (who wins, in which regime, and in the right direction).
 */

#include <gtest/gtest.h>

#include "baselines/dfx_model.hh"
#include "baselines/gpu_model.hh"
#include "compiler/workload_builder.hh"
#include "energy/energy_model.hh"
#include "ianus/execution_engine.hh"
#include "serve/compiled_model.hh"

namespace
{

using namespace ianus;
using compiler::AttnMapping;
using compiler::BuildOptions;
using compiler::FcPlacement;
using compiler::SchedulingPolicy;
using workloads::InferenceRequest;

workloads::ModelConfig xl = workloads::gpt2("xl");

TEST(EndToEnd, IanusBeatsNpuMemOnGeneration)
{
    // Fig 9/10: PIM offload shrinks generation-stage latency ~4x.
    serve::CompiledModel ianus_sys(SystemConfig::ianusDefault(), xl);
    serve::CompiledModel npu_mem(SystemConfig::npuMem(), xl);
    InferenceRequest req{128, 9};
    double i = ianus_sys.run(req).msPerGeneratedToken();
    double n = npu_mem.run(req).msPerGeneratedToken();
    EXPECT_LT(i, n);
    EXPECT_GT(n / i, 2.5);
    EXPECT_LT(n / i, 8.0);
}

TEST(EndToEnd, SummarizationIsPimInsensitive)
{
    // Fig 9: at (x,1) IANUS and NPU-MEM coincide — the PIM acts as
    // plain GDDR6 except for the LM head.
    serve::CompiledModel ianus_sys(SystemConfig::ianusDefault(), xl);
    serve::CompiledModel npu_mem(SystemConfig::npuMem(), xl);
    double i = ianus_sys.run({128, 1}).totalMs();
    double n = npu_mem.run({128, 1}).totalMs();
    EXPECT_LT(std::abs(i - n) / n, 0.10);
    EXPECT_LE(i, n); // the LM head offload can only help
}

TEST(EndToEnd, IanusBeatsGpuAcrossGpt2Models)
{
    // Fig 8 headline: large speedups, shrinking with model size.
    baselines::GpuModel gpu;
    InferenceRequest req{128, 8};
    double prev_speedup = 1e9;
    for (const auto &m : workloads::allGpt2()) {
        serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
        double ours = sys.run(req).totalMs();
        double theirs = gpu.latencyMs(m, req);
        double speedup = theirs / ours;
        EXPECT_GT(speedup, 2.0) << m.name;
        EXPECT_LT(speedup, prev_speedup * 1.3)
            << m.name << ": speedup should shrink with model size";
        prev_speedup = speedup;
    }
}

TEST(EndToEnd, IanusBeatsDfxOnBothStages)
{
    // Fig 9: ~49x at (128,1) (summarization), ~1.8x per generated token.
    baselines::DfxModel dfx;
    serve::CompiledModel sys(SystemConfig::ianusDefault(), xl);
    double ours_sum = sys.run({128, 1}).totalMs();
    double dfx_sum = dfx.latencyMs(xl, {128, 1});
    EXPECT_GT(dfx_sum / ours_sum, 20.0);

    InferenceRequest gen_req{64, 17};
    double ours_tok = sys.run(gen_req).msPerGeneratedToken();
    double dfx_tok = dfx.generationStepMs(xl);
    EXPECT_GT(dfx_tok / ours_tok, 1.2);
    EXPECT_LT(dfx_tok / ours_tok, 4.0);
}

TEST(EndToEnd, UnifiedBeatsPartitioned)
{
    // Fig 13: doubled PIM pool in the unified system wins.
    serve::CompiledModel unified(SystemConfig::ianusDefault(), xl);
    serve::CompiledModel partitioned(SystemConfig::partitioned(), xl);
    InferenceRequest req{64, 9};
    double u = unified.run(req).totalMs();
    double p = partitioned.run(req).totalMs();
    EXPECT_LT(u, p);
}

TEST(EndToEnd, PasBeatsNaiveScheduling)
{
    InferenceRequest req{64, 9};
    BuildOptions naive;
    naive.policy = SchedulingPolicy::Naive;
    serve::CompiledModel naive_sys(SystemConfig::ianusDefault(), xl, naive);
    serve::CompiledModel pas_sys(SystemConfig::ianusDefault(), xl);
    double n = naive_sys.run(req).totalMs();
    double p = pas_sys.run(req).totalMs();
    EXPECT_LT(p, n);
}

TEST(EndToEnd, MuAttentionMappingBeatsPimMapping)
{
    // Section 5.3 / Fig 13: with head dim 64, QK^T/SV on PIM waste
    // 93.75% of each row; the matrix unit mapping wins for GPT-2 XL.
    InferenceRequest req{64, 9};
    BuildOptions pim_map;
    pim_map.attnMapping = AttnMapping::Pim;
    serve::CompiledModel pim_sys(SystemConfig::ianusDefault(), xl, pim_map);
    serve::CompiledModel mu_sys(SystemConfig::ianusDefault(), xl);
    double pim_ms = pim_sys.run(req).totalMs();
    double mu_ms = mu_sys.run(req).totalMs();
    EXPECT_LT(mu_ms, pim_ms);
}

TEST(EndToEnd, AdaptiveMappingNeverLosesToForcedPlacements)
{
    // Fig 12: Algorithm 1 tracks the better unit (small tolerance for
    // scheduling noise).
    auto ms = [](const InferenceRequest &req, const BuildOptions &opts) {
        return serve::CompiledModel(SystemConfig::ianusDefault(),
                                    workloads::gpt2("m"), opts)
            .run(req)
            .totalMs();
    };
    for (std::uint64_t tokens : {4u, 8u, 16u}) {
        InferenceRequest req{tokens, 1};
        BuildOptions adaptive, mu, pim;
        mu.fcPlacement = FcPlacement::ForceMu;
        pim.fcPlacement = FcPlacement::ForcePim;
        double a = ms(req, adaptive);
        double best = std::min(ms(req, mu), ms(req, pim));
        EXPECT_LT(a, best * 1.05) << tokens << " tokens";
    }
}

TEST(EndToEnd, FewerPimChipsSlowGenerationOnly)
{
    // Fig 15: PIM chips matter for (256,512)-style workloads, cores for
    // summarization.
    SystemConfig one_chip = SystemConfig::ianusDefault();
    one_chip.pimChips = 1;
    serve::CompiledModel full(SystemConfig::ianusDefault(), xl);
    serve::CompiledModel degraded(one_chip, xl);
    InferenceRequest gen_req{64, 9};
    double full_gen = full.run(gen_req).msPerGeneratedToken();
    double degr_gen = degraded.run(gen_req).msPerGeneratedToken();
    EXPECT_GT(degr_gen / full_gen, 1.5);

    double full_sum = full.run({256, 1}).totalMs();
    double degr_sum = degraded.run({256, 1}).totalMs();
    EXPECT_LT(degr_sum / full_sum, 1.15);
}

TEST(EndToEnd, FewerCoresSlowSummarization)
{
    SystemConfig one_core = SystemConfig::ianusDefault();
    one_core.cores = 1;
    serve::CompiledModel full(SystemConfig::ianusDefault(), xl);
    serve::CompiledModel degraded(one_core, xl);
    double full_sum = full.run({256, 1}).totalMs();
    double degr_sum = degraded.run({256, 1}).totalMs();
    EXPECT_GT(degr_sum / full_sum, 1.5);
}

TEST(EndToEnd, EnergyEfficiencyBeatsNpuMem)
{
    // Fig 11: 3.6-4.4x dynamic-energy advantage at (256,512)-style
    // workloads; use a shortened run with the same structure.
    energy::EnergyModel em;
    serve::CompiledModel ianus_sys(SystemConfig::ianusDefault(), xl);
    serve::CompiledModel npu_mem(SystemConfig::npuMem(), xl);
    InferenceRequest req{64, 17};
    double ie = em.evaluate(ianus_sys.run(req).combined()).total();
    double ne = em.evaluate(npu_mem.run(req).combined()).total();
    EXPECT_GT(ne / ie, 2.0);
    EXPECT_LT(ne / ie, 8.0);
}

TEST(EndToEnd, GenerationLatencyGrowsWithKvLength)
{
    // Attention terms grow with the KV cache; later tokens cost more.
    compiler::WorkloadBuilder b(SystemConfig::ianusDefault(), xl);
    ExecutionEngine engine(SystemConfig::ianusDefault());
    Tick early = engine.run(b.buildGenerationToken(65)).wallTicks;
    Tick late = engine.run(b.buildGenerationToken(576)).wallTicks;
    EXPECT_GT(late, early);
}

TEST(EndToEnd, BertUtilizationAboveGpuForSmallModels)
{
    // Fig 14: IANUS wins small BERT models on throughput despite 1.4x
    // lower peak FLOPS.
    baselines::GpuModel gpu;
    workloads::ModelConfig bb = workloads::bert("b");
    serve::CompiledModel sys(SystemConfig::ianusDefault(), bb);
    InferenceReport r = sys.run({128, 1});
    double ours = bb.forwardFlops(128) / (r.totalMs() / 1e3) / 1e12;
    double theirs = gpu.throughputTflops(bb, 128);
    EXPECT_GT(ours / theirs, 1.5);
}

} // namespace
