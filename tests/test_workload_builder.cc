/** @file Compiler: Fig 6/7 program structure, naive vs PAS, modes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "compiler/workload_builder.hh"

namespace
{

using namespace ianus;
using namespace ianus::compiler;
using isa::UnitKind;

workloads::ModelConfig xl = workloads::gpt2("xl");

TEST(WorkloadBuilder, HeadAndColumnPartitioning)
{
    WorkloadBuilder b(SystemConfig::ianusDefault(), xl);
    EXPECT_EQ(b.ways(), 4u);
    EXPECT_EQ(b.headsPerCore(), 6u); // 24 heads over 4 cores
    EXPECT_EQ(b.colSlice(xl.embDim), 384u);
    EXPECT_EQ(b.colSlice(xl.ffnDim()), 1536u);
}

TEST(WorkloadBuilder, GenerationUsesPimForFcs)
{
    WorkloadBuilder b(SystemConfig::ianusDefault(), xl);
    isa::Program p = b.buildGenerationToken(129);
    auto hist = p.unitHistogram();
    EXPECT_GT(hist[UnitKind::Pim], 0u);
    EXPECT_GT(hist[UnitKind::MatrixUnit], 0u); // QK^T / SV
    EXPECT_GT(hist[UnitKind::VectorUnit], 0u);
    EXPECT_GT(hist[UnitKind::Sync], 4 * xl.nBlocks); // >= 4 per block
}

TEST(WorkloadBuilder, GenerationFcPlansFollowThePaper)
{
    WorkloadBuilder b(SystemConfig::ianusDefault(), xl);
    auto plans = b.generationFcPlans();
    ASSERT_EQ(plans.size(), 5u);
    for (const FcPlan &plan : plans)
        EXPECT_EQ(plan.unit, FcUnit::Pim)
            << plan.what << " should offload in the generation stage";
    // FFN1 carries the fused GELU.
    EXPECT_TRUE(plans[2].geluFused);
    EXPECT_FALSE(plans[1].geluFused);
}

TEST(WorkloadBuilder, NpuMemNeverEmitsPimCommands)
{
    WorkloadBuilder b(SystemConfig::npuMem(), xl);
    isa::Program gen = b.buildGenerationToken(129);
    isa::Program sum = b.buildSummarization(32);
    EXPECT_EQ(gen.unitHistogram()[UnitKind::Pim], 0u);
    EXPECT_EQ(sum.unitHistogram()[UnitKind::Pim], 0u);
}

TEST(WorkloadBuilder, SummarizationKeepsFcsOnMatrixUnit)
{
    WorkloadBuilder b(SystemConfig::ianusDefault(), xl);
    isa::Program p = b.buildSummarization(128);
    auto hist = p.unitHistogram();
    // Only the LM head (1 token) lands on PIM; with kTiles=2 per core it
    // is exactly cores PIM commands.
    EXPECT_EQ(hist[UnitKind::Pim], 4u);
    EXPECT_GT(hist[UnitKind::MatrixUnit], 5 * xl.nBlocks);
}

TEST(WorkloadBuilder, NaivePolicySerializesPerCore)
{
    // Under naive scheduling every non-first command on a core depends
    // on its predecessor; PAS leaves slack for overlap.
    BuildOptions naive;
    naive.policy = SchedulingPolicy::Naive;
    WorkloadBuilder nb(SystemConfig::ianusDefault(), xl, naive);
    WorkloadBuilder pb(SystemConfig::ianusDefault(), xl);
    isa::Program np = nb.buildGenerationToken(129);
    isa::Program pp = pb.buildGenerationToken(129);

    std::size_t naive_without_deps = 0, pas_without_deps = 0;
    for (const isa::Command &c : np.commands())
        if (np.deps(c).empty())
            ++naive_without_deps;
    for (const isa::Command &c : pp.commands())
        if (pp.deps(c).empty())
            ++pas_without_deps;
    // Naive: only the very first command per core lacks deps.
    EXPECT_LE(naive_without_deps, 4u);
    EXPECT_GT(pas_without_deps, naive_without_deps);
}

TEST(WorkloadBuilder, PimAttentionMappingEmitsQktSvMacros)
{
    BuildOptions opts;
    opts.attnMapping = AttnMapping::Pim;
    WorkloadBuilder b(SystemConfig::ianusDefault(), xl, opts);
    isa::Program p = b.buildGenerationToken(200);

    // QK^T macros have rows == kv_len and cols == head dim.
    bool found_qkt = false, found_sv = false;
    for (const isa::Command &c : p.commands()) {
        if (const auto *a = std::get_if<isa::PimArgs>(&c.payload)) {
            if (a->macro.rows == 200 && a->macro.cols == xl.headDim)
                found_qkt = true;
            if (a->macro.rows == xl.headDim && a->macro.cols == 200)
                found_sv = true;
        }
    }
    EXPECT_TRUE(found_qkt);
    EXPECT_TRUE(found_sv);

    // And no V_cat / K_pre loads: PIM reads KV in place, so generation
    // off-chip load traffic shrinks vs the MU mapping.
    BuildOptions mu_opts;
    WorkloadBuilder mb(SystemConfig::ianusDefault(), xl, mu_opts);
    isa::Program mp = mb.buildGenerationToken(200);
    auto offchip_load_bytes = [](const isa::Program &prog) {
        std::uint64_t bytes = 0;
        for (const isa::Command &c : prog.commands())
            if (const auto *d = std::get_if<isa::DmaArgs>(&c.payload))
                if (d->offChip && !d->isWrite)
                    bytes += d->bytes;
        return bytes;
    };
    EXPECT_LT(offchip_load_bytes(p), offchip_load_bytes(mp) / 4);
}

TEST(WorkloadBuilder, PartitionedModeComputesNonDuplicatedFraction)
{
    workloads::ModelConfig b25 = workloads::gpt2("2.5b");
    WorkloadBuilder small(SystemConfig::partitioned(), xl);
    EXPECT_DOUBLE_EQ(small.nonDuplicatedFraction(), 0.0); // XL fits twice
    WorkloadBuilder big(SystemConfig::partitioned(), b25);
    EXPECT_GT(big.nonDuplicatedFraction(), 0.2); // 2.5B cannot duplicate
    EXPECT_LT(big.nonDuplicatedFraction(), 0.5);
}

TEST(WorkloadBuilder, NonDuplicatedFfn2RunsOnMatrixUnit)
{
    workloads::ModelConfig b25 = workloads::gpt2("2.5b");
    WorkloadBuilder b(SystemConfig::partitioned(), b25);
    isa::Program p = b.buildGenerationToken(300);
    // Non-duplicated FFN2 weights live only on the PIM half (the paper:
    // "data movement of non-duplicated parameters from the PIM to the
    // NPU"), so the MU streams them from the PIM channels — colliding
    // with PIM compute, which is the Fig 13 outlier's cause.
    bool found = false;
    for (const isa::Command &c : p.commands()) {
        if (const auto *g = std::get_if<isa::MuGemmArgs>(&c.payload)) {
            if (g->k == b25.ffnDim() && g->weightBytes > 0) {
                found = true;
                EXPECT_EQ(g->weightChannels, 0x0Fu); // PIM half
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(WorkloadBuilder, MultiDeviceShrinksSlicesAndAddsPcieBytes)
{
    BuildOptions opts;
    opts.devices = 2;
    workloads::ModelConfig m67 = workloads::gptLarge("6.7b");
    WorkloadBuilder b(SystemConfig::ianusDefault(), m67, opts);
    EXPECT_EQ(b.ways(), 8u);
    EXPECT_EQ(b.headsPerCore(), 4u); // 32 heads / 8 ways
    isa::Program p = b.buildGenerationToken(257);
    bool has_pcie = false;
    for (const isa::Command &c : p.commands())
        if (const auto *s = std::get_if<isa::SyncArgs>(&c.payload))
            if (s->interDeviceBytes > 0)
                has_pcie = true;
    EXPECT_TRUE(has_pcie);
}

TEST(WorkloadBuilder, SingleDeviceHasNoPcieBytes)
{
    WorkloadBuilder b(SystemConfig::ianusDefault(), xl);
    isa::Program p = b.buildGenerationToken(129);
    for (const isa::Command &c : p.commands())
        if (const auto *s = std::get_if<isa::SyncArgs>(&c.payload)) {
            EXPECT_EQ(s->interDeviceBytes, 0u);
        }
}

TEST(WorkloadBuilder, OversizedModelIsFatalWithoutMoreDevices)
{
    workloads::ModelConfig m30 = workloads::gptLarge("30b");
    WorkloadBuilder b(SystemConfig::ianusDefault(), m30);
    EXPECT_THROW((void)b.buildSummarization(128), std::runtime_error);

    BuildOptions opts;
    opts.devices = 8;
    WorkloadBuilder ok(SystemConfig::ianusDefault(), m30, opts);
    EXPECT_NO_THROW((void)ok.buildSummarization(128));
}

TEST(WorkloadBuilder, BertHasNoGenerationOrLmHead)
{
    workloads::ModelConfig bb = workloads::bert("b");
    WorkloadBuilder b(SystemConfig::ianusDefault(), bb);
    EXPECT_DEATH((void)b.buildGenerationToken(10), "decoder");
    isa::Program p = b.buildSummarization(128);
    EXPECT_EQ(p.unitHistogram()[UnitKind::Pim], 0u); // no LM head
}

TEST(WorkloadBuilder, FcSweepRespectsForcedPlacement)
{
    BuildOptions mu_opts;
    mu_opts.fcPlacement = FcPlacement::ForceMu;
    BuildOptions pim_opts;
    pim_opts.fcPlacement = FcPlacement::ForcePim;
    WorkloadBuilder mu_b(SystemConfig::ianusDefault(), xl, mu_opts);
    WorkloadBuilder pim_b(SystemConfig::ianusDefault(), xl, pim_opts);
    EXPECT_EQ(mu_b.buildFcSweep(8).unitHistogram()[UnitKind::Pim], 0u);
    EXPECT_EQ(pim_b.buildFcSweep(8).unitHistogram()[UnitKind::MatrixUnit],
              0u);
}

TEST(WorkloadBuilder, ProgramsValidate)
{
    WorkloadBuilder b(SystemConfig::ianusDefault(), xl);
    b.buildSummarization(512).validate();
    b.buildGenerationToken(640).validate();
    b.buildFcSweep(16).validate();
}

/** @p got equals @p want command for command — every field,
 *  describe() and dependency span — and block end for block end. */
void
expectSameProgram(const isa::Program &got, const isa::Program &want,
                  const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::uint32_t i = 0; i < got.size(); ++i) {
        const isa::Command &a = got.at(i);
        const isa::Command &b = want.at(i);
        EXPECT_EQ(a.id, b.id) << what << " #" << i;
        EXPECT_EQ(a.core, b.core) << what << " #" << i;
        EXPECT_EQ(a.unit, b.unit) << what << " #" << i;
        EXPECT_EQ(a.opClass, b.opClass) << what << " #" << i;
        EXPECT_EQ(a.depBegin, b.depBegin) << what << " #" << i;
        EXPECT_EQ(a.depCount, b.depCount) << what << " #" << i;
        EXPECT_EQ(a.describe(), b.describe()) << what << " #" << i;
        EXPECT_TRUE(std::ranges::equal(got.deps(a), want.deps(b)))
            << what << " #" << i;
    }
    EXPECT_EQ(got.blockEnds(), want.blockEnds()) << what;
}

// A miss builds into the storage of the previous miss's program. The
// result must not depend on what that storage held: a rebuilt program
// equals a fresh build, whichever larger program left the storage.
TEST(WorkloadBuilder, ReusedStorageBuildsTheFreshProgram)
{
    // Four blocks, so that a whole step is smaller than two blocks of
    // a batch of 8.
    workloads::ModelConfig m = workloads::gpt2("m");
    m.nBlocks = 4;
    BuildOptions naive;
    naive.policy = SchedulingPolicy::Naive;
    for (const BuildOptions &opts : {BuildOptions{}, naive}) {
        const WorkloadBuilder b(SystemConfig::ianusDefault(), m, opts);
        const std::string policy = toString(opts.policy);

        isa::Program batch =
            b.buildGenerationBatch({70, 71, 72, 80, 90, 100, 110, 300}, 2);
        const std::size_t left = batch.size();
        const isa::Program step =
            b.buildGenerationBatch({77}, {}, std::move(batch));
        ASSERT_GT(left, step.size()) << policy;
        expectSameProgram(step, b.buildGenerationToken(77),
                          policy + " step after a batch of 8");

        isa::Program chunk = b.buildSummarizationChunk(96, 32, false);
        const std::size_t chunk_size = chunk.size();
        const isa::Program prefill =
            b.buildSummarizationChunk(0, 48, true, 2, std::move(chunk));
        ASSERT_GT(chunk_size, prefill.size()) << policy;
        expectSameProgram(prefill,
                          b.buildSummarizationChunk(0, 48, true, 2),
                          policy + " summarization after a chunk");
    }
}

} // namespace
