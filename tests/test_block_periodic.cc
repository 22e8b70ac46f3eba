/**
 * @file
 * Block-periodic device execution: CompiledModel costs a program from
 * the runs of its 1-block and 2-block prefixes
 * (RunStats::blockPeriodic). These tests hold every served statistic
 * to the full program, bit for bit, over the model zoo × memory
 * systems × build options × program shapes. The reference is always
 * ExecutionEngine::run on the full WorkloadBuilder program — never
 * IanusSystem::run, which shares the block-periodic path.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compiler/workload_builder.hh"
#include "ianus/execution_engine.hh"
#include "serve/compiled_model.hh"

namespace
{

using namespace ianus;
using compiler::AttnMapping;
using compiler::BuildOptions;
using compiler::FcPlacement;
using compiler::SchedulingPolicy;
using compiler::WorkloadBuilder;

// A field added to RunStats must be added to fields() below.
static_assert(sizeof(RunStats) ==
                  sizeof(Tick) +
                      sizeof(double) * (3 * RunStats::numClasses +
                                        RunStats::numUnits + 10),
              "RunStats changed: update fields()");

/** Every double field of @p s with its name (all but wallTicks). */
std::vector<std::pair<std::string, double>>
fields(const RunStats &s)
{
    std::vector<std::pair<std::string, double>> f;
    for (std::size_t i = 0; i < RunStats::numClasses; ++i) {
        const std::string at = "[" + std::to_string(i) + "]";
        f.emplace_back("classBusy" + at, s.classBusy[i]);
        f.emplace_back("classSpan" + at, s.classSpan[i]);
        f.emplace_back("classExclusive" + at, s.classExclusive[i]);
    }
    for (std::size_t i = 0; i < RunStats::numUnits; ++i)
        f.emplace_back("unitBusy[" + std::to_string(i) + "]",
                       s.unitBusy[i]);
    f.emplace_back("commands", s.commands);
    f.emplace_back("muFlops", s.muFlops);
    f.emplace_back("vuElems", s.vuElems);
    f.emplace_back("dramReadBytes", s.dramReadBytes);
    f.emplace_back("dramWriteBytes", s.dramWriteBytes);
    f.emplace_back("pimWeightBytes", s.pimWeightBytes);
    f.emplace_back("pimMacros", s.pimMacros);
    f.emplace_back("pimActivates", s.pimActivates);
    f.emplace_back("pimGbBursts", s.pimGbBursts);
    f.emplace_back("pimRdBursts", s.pimRdBursts);
    return f;
}

/** Every field of @p got has the bits of the same field of @p want. */
testing::AssertionResult
bitIdentical(const RunStats &got, const RunStats &want)
{
    if (got.wallTicks != want.wallTicks)
        return testing::AssertionFailure()
               << "wallTicks " << got.wallTicks << " != " << want.wallTicks;
    auto g = fields(got);
    auto w = fields(want);
    for (std::size_t i = 0; i < g.size(); ++i)
        if (std::bit_cast<std::uint64_t>(g[i].second) !=
            std::bit_cast<std::uint64_t>(w[i].second))
            return testing::AssertionFailure()
                   << g[i].first << ' ' << g[i].second
                   << " != " << w[i].second;
    return testing::AssertionSuccess();
}

/** The premise of exactness: every field of an engine run is an
 *  integer-valued double below 2^53. */
testing::AssertionResult
exactIntegers(const RunStats &s)
{
    constexpr double limit = 9007199254740992.0; // 2^53
    if (static_cast<double>(s.wallTicks) >= limit)
        return testing::AssertionFailure() << "wallTicks " << s.wallTicks;
    for (const auto &[name, v] : fields(s))
        if (!(v >= 0.0 && v < limit && v == std::floor(v)))
            return testing::AssertionFailure() << name << ' ' << v;
    return testing::AssertionSuccess();
}

// --- The RunStats helper ---------------------------------------------

RunStats
statsWith(Tick wall, double value)
{
    RunStats s;
    s.wallTicks = wall;
    s.classBusy[2] = value;
    s.classSpan[7] = value;
    s.classExclusive[0] = value;
    s.unitBusy[5] = value;
    s.muFlops = value;
    s.pimRdBursts = value;
    return s;
}

TEST(BlockPeriodic, HelperReturnsThePrefixRunsForOneAndTwoBlocks)
{
    RunStats one = statsWith(100, 7.0);
    RunStats two = statsWith(250, 19.0);
    EXPECT_TRUE(bitIdentical(RunStats::blockPeriodic(one, two, 1), one));
    EXPECT_TRUE(bitIdentical(RunStats::blockPeriodic(one, two, 2), two));
}

TEST(BlockPeriodic, HelperAddsOneBlockDeltaPerExtraBlock)
{
    RunStats one = statsWith(100, 7.0);
    RunStats two = statsWith(250, 19.0);
    RunStats s = RunStats::blockPeriodic(one, two, 24);
    EXPECT_TRUE(bitIdentical(s, statsWith(100 + 23 * 150, 7.0 + 23 * 12.0)));
    EXPECT_EQ(s.commands, 0.0); // untouched fields stay zero
}

TEST(BlockPeriodic, HelperKeepsWallTicksInIntegerArithmetic)
{
    // 2^62 + 6 has no double representation (the spacing there is
    // 1024): a floating-point wallTicks would round it.
    const Tick base = Tick{1} << 62;
    RunStats s = RunStats::blockPeriodic(statsWith(base, 0.0),
                                         statsWith(base + 3, 0.0), 3);
    EXPECT_EQ(s.wallTicks, base + 6);
}

TEST(BlockPeriodic, HelperRejectsASecondBlockThatEndsEarlier)
{
    EXPECT_DEATH(RunStats::blockPeriodic(statsWith(250, 0.0),
                                         statsWith(100, 0.0), 3),
                 "ends before");
}

// --- Served stats against the full program ---------------------------

/** One program shape CompiledModel serves. */
struct Shape
{
    enum Kind { Prefill, Chunk, Generation, Batch } kind;
    std::uint64_t a = 0; ///< prompt, prior, KV length or batch size
    std::uint64_t b = 0; ///< chunk tokens
    bool last = true;    ///< chunk runs the LM head
};

std::vector<std::uint64_t>
batchKvs(std::uint64_t n)
{
    std::vector<std::uint64_t> kv;
    for (std::uint64_t i = 0; i < n; ++i)
        kv.push_back(257 + 61 * i);
    return kv;
}

std::string
describe(const Shape &s)
{
    switch (s.kind) {
      case Shape::Prefill: return "prefill " + std::to_string(s.a);
      case Shape::Chunk:
        return "chunk " + std::to_string(s.a) + "+" + std::to_string(s.b) +
               (s.last ? " last" : " non-last");
      case Shape::Generation: return "generation kv " + std::to_string(s.a);
      case Shape::Batch: return "batch " + std::to_string(s.a);
    }
    return "?";
}

/** The full program, straight from the builder. */
isa::Program
fullProgram(const WorkloadBuilder &builder, const Shape &s)
{
    switch (s.kind) {
      case Shape::Prefill: return builder.buildSummarization(s.a);
      case Shape::Chunk:
        return builder.buildSummarizationChunk(s.a, s.b, s.last);
      case Shape::Generation: return builder.buildGenerationToken(s.a);
      case Shape::Batch: return builder.buildGenerationBatch(batchKvs(s.a));
    }
    return {};
}

/** What a fresh CompiledModel serves for @p s (a cache miss). */
RunStats
served(const serve::CompiledModel &compiled, const Shape &s)
{
    switch (s.kind) {
      case Shape::Prefill: return compiled.summarizationStats(s.a);
      case Shape::Chunk:
        return compiled.prefillChunkStats(s.a, s.b, s.last);
      case Shape::Generation: return compiled.generationStepStats({s.a});
      case Shape::Batch: return compiled.generationStepStats(batchKvs(s.a));
    }
    return {};
}

const std::vector<Shape> allShapes = {
    {Shape::Prefill, 1},        {Shape::Prefill, 256},
    {Shape::Prefill, 1024},     {Shape::Chunk, 256, 128, true},
    {Shape::Chunk, 256, 128, false}, {Shape::Generation, 1},
    {Shape::Generation, 257},   {Shape::Generation, 2000},
    {Shape::Batch, 2},          {Shape::Batch, 8},
    {Shape::Batch, 16},
};

const std::vector<Shape> spotShapes = {
    {Shape::Prefill, 256}, {Shape::Generation, 257}, {Shape::Batch, 8}};

/**
 * Serve every shape from a fresh CompiledModel and compare it with the
 * engine run of the full program. Combinations the builder rejects
 * must be rejected by the served path as well. Returns how many shapes
 * were compared.
 */
int
expectServedMatchesFull(const workloads::ModelConfig &model,
                        const SystemConfig &sys, const BuildOptions &opts,
                        const std::vector<Shape> &shapes,
                        const std::string &label)
{
    std::optional<WorkloadBuilder> builder;
    try {
        builder.emplace(sys, model, opts);
    } catch (const std::runtime_error &) {
        EXPECT_THROW(serve::CompiledModel(sys, model, opts),
                     std::runtime_error)
            << label;
        return 0;
    }
    serve::CompiledModel compiled(sys, model, opts);
    ExecutionEngine engine(sys, opts.devices);
    int compared = 0;
    for (const Shape &s : shapes) {
        if (!model.decoder() && s.kind != Shape::Prefill)
            continue;
        const std::string what = label + " " + describe(s);
        std::optional<isa::Program> prog;
        try {
            prog = fullProgram(*builder, s);
        } catch (const std::runtime_error &) {
            EXPECT_THROW(served(compiled, s), std::runtime_error) << what;
            continue;
        }
        RunStats want = engine.run(*prog);
        EXPECT_TRUE(exactIntegers(want)) << what;
        EXPECT_TRUE(bitIdentical(served(compiled, s), want)) << what;
        ++compared;
    }
    return compared;
}

struct SystemCase
{
    const char *name;
    SystemConfig (*make)();
};

const SystemCase systems[] = {
    {"ianus", &SystemConfig::ianusDefault},
    {"npu_mem", &SystemConfig::npuMem},
    {"partitioned", &SystemConfig::partitioned},
};

std::vector<std::pair<std::string, BuildOptions>>
buildOptions()
{
    BuildOptions pas;
    BuildOptions naive;
    naive.policy = SchedulingPolicy::Naive;
    BuildOptions pim_attn;
    pim_attn.attnMapping = AttnMapping::Pim;
    BuildOptions force_pim;
    force_pim.fcPlacement = FcPlacement::ForcePim;
    BuildOptions tp2;
    tp2.devices = 2;
    return {{"pas", pas},
            {"naive", naive},
            {"pim-attn", pim_attn},
            {"force-pim", force_pim},
            {"tp2", tp2}};
}

struct SweepCase
{
    const char *model;
    workloads::ModelConfig (*make)(const std::string &);
    const char *size;
};

void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << c.model;
}

class BlockPeriodicSweep : public testing::TestWithParam<SweepCase>
{
};

TEST_P(BlockPeriodicSweep, ServedStatsEqualTheFullProgram)
{
    const SweepCase &c = GetParam();
    const workloads::ModelConfig model = c.make(c.size);
    int compared = 0;
    for (const SystemCase &sys : systems) {
        for (const auto &[opt_name, opts] : buildOptions())
            compared += expectServedMatchesFull(
                model, sys.make(), opts, allShapes,
                std::string(c.model) + " " + sys.name + " " + opt_name);
    }
    EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, BlockPeriodicSweep,
    testing::Values(SweepCase{"gpt2_m", &workloads::gpt2, "m"},
                    SweepCase{"bert_b", &workloads::bert, "b"},
                    SweepCase{"bert_l", &workloads::bert, "l"},
                    SweepCase{"gpt_6_7b", &workloads::gptLarge, "6.7b"}),
    [](const testing::TestParamInfo<SweepCase> &info) {
        return std::string(info.param.model);
    });

TEST(BlockPeriodic, SpotCheckGpt2Xl)
{
    const auto model = workloads::gpt2("xl");
    EXPECT_EQ(expectServedMatchesFull(model, SystemConfig::ianusDefault(),
                                      {}, spotShapes, "gpt2 xl ianus"),
              3);
}

TEST(BlockPeriodic, SpilledFfn2BlocksRunTheFullProgram)
{
    // Partitioned GPT-2 2.5B cannot duplicate all of its weights, so its
    // first blocks run FFN2 from the PIM half on the matrix unit: two
    // kinds of block, which must fall back to the full program.
    const auto model = workloads::gpt2("2.5b");
    const SystemConfig sys = SystemConfig::partitioned();
    WorkloadBuilder builder(sys, model);
    ASSERT_GT(builder.nonDuplicatedFraction(), 0.0);
    EXPECT_FALSE(builder.uniformBlocks());
    EXPECT_EQ(expectServedMatchesFull(model, sys, {}, spotShapes,
                                      "gpt2 2.5b partitioned"),
              3);

    // And the fallback is needed: extrapolating the spilled first
    // blocks over the whole model misses.
    ExecutionEngine engine(sys);
    RunStats one = engine.run(builder.buildGenerationBatch({257}, 1));
    RunStats two = engine.run(builder.buildGenerationBatch({257}, 2));
    RunStats full = engine.run(builder.buildGenerationToken(257));
    EXPECT_FALSE(bitIdentical(
        RunStats::blockPeriodic(one, two, model.nBlocks), full));
}

TEST(BlockPeriodic, TruncationAddsTheSameCommandsPerBlock)
{
    const auto model = workloads::gpt2("m");
    WorkloadBuilder builder(SystemConfig::ianusDefault(), model);
    const isa::Program full = builder.buildSummarization(64);
    const isa::Program same = builder.buildSummarizationChunk(
        0, 64, true, model.nBlocks);
    const isa::Program one = builder.buildSummarizationChunk(0, 64, true, 1);
    const isa::Program two = builder.buildSummarizationChunk(0, 64, true, 2);
    EXPECT_EQ(same.size(), full.size());
    // Embedding and head are fixed; each block adds the same commands.
    EXPECT_EQ(full.size() - one.size(),
              (model.nBlocks - 1) * (two.size() - one.size()));
    EXPECT_DEATH(builder.buildGenerationBatch({8}, 0), "cannot emit");
    EXPECT_DEATH(builder.buildGenerationBatch({8}, model.nBlocks + 1),
                 "cannot emit");
}

} // namespace
