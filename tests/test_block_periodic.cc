/**
 * @file
 * Block-periodic device execution: CompiledModel costs a program from
 * one run of its 2-block prefix and that run's snapshots at the
 * barriers closing its two blocks (RunStats::blockPeriodic). These
 * tests hold every served statistic to the full program, bit for bit,
 * over the model zoo × memory systems × build options × program
 * shapes. The reference is always ExecutionEngine::run on the full
 * WorkloadBuilder program — never CompiledModel::run, which shares the
 * block-periodic path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <variant>
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

// A 2-block run that ends at 300 and whose blocks end at 100 and 250:
// its second block is 150 ticks and 12 of every other filled field.
const RunStats twoRun = statsWith(300, 25.0);
const RunStats end0 = statsWith(100, 7.0);
const RunStats end1 = statsWith(250, 19.0);

TEST(BlockPeriodic, HelperReturnsThePrefixRunsForOneAndTwoBlocks)
{
    EXPECT_TRUE(bitIdentical(RunStats::blockPeriodic(twoRun, end0, end1, 2),
                             twoRun));
    EXPECT_TRUE(bitIdentical(RunStats::blockPeriodic(twoRun, end0, end1, 1),
                             statsWith(150, 13.0)));
}

TEST(BlockPeriodic, HelperAddsOneBlockDeltaPerExtraBlock)
{
    RunStats s = RunStats::blockPeriodic(twoRun, end0, end1, 24);
    EXPECT_TRUE(bitIdentical(s, statsWith(300 + 22 * 150, 25.0 + 22 * 12.0)));
    EXPECT_EQ(s.commands, 0.0); // untouched fields stay zero
}

TEST(BlockPeriodic, HelperKeepsWallTicksInIntegerArithmetic)
{
    // 2^62 + 7 has no double representation (the spacing there is
    // 1024): a floating-point wallTicks would round it.
    const Tick base = Tick{1} << 62;
    RunStats s = RunStats::blockPeriodic(statsWith(base + 4, 0.0),
                                         statsWith(base, 0.0),
                                         statsWith(base + 3, 0.0), 3);
    EXPECT_EQ(s.wallTicks, base + 7);
}

TEST(BlockPeriodic, HelperRejectsASecondBlockThatEndsEarlier)
{
    EXPECT_DEATH(RunStats::blockPeriodic(statsWith(300, 0.0),
                                         statsWith(250, 0.0),
                                         statsWith(100, 0.0), 3),
                 "block 1 ends before block 0");
    EXPECT_DEATH(RunStats::blockPeriodic(statsWith(200, 0.0),
                                         statsWith(100, 0.0),
                                         statsWith(250, 0.0), 3),
                 "run ends before block 1");
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
      case Shape::Prefill: return compiled.prefillChunkStats(0, s.a, true);
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
    // blocks over the whole model misses. The whole 1- and 2-block runs
    // stand in for the two barrier snapshots; they differ by one block.
    ExecutionEngine engine(sys);
    RunStats one = engine.run(builder.buildGenerationBatch({257}, 1));
    RunStats two = engine.run(builder.buildGenerationBatch({257}, 2));
    RunStats full = engine.run(builder.buildGenerationToken(257));
    EXPECT_FALSE(bitIdentical(
        RunStats::blockPeriodic(two, one, two, model.nBlocks), full));
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

// --- Block ends and the snapshots taken at them ----------------------

/** The program of @p s cut to its first @p blocks blocks. */
isa::Program
truncatedProgram(const WorkloadBuilder &builder, const Shape &s,
                 std::uint64_t blocks)
{
    switch (s.kind) {
      case Shape::Prefill:
        return builder.buildSummarizationChunk(0, s.a, true, blocks);
      case Shape::Chunk:
        return builder.buildSummarizationChunk(s.a, s.b, s.last, blocks);
      case Shape::Generation:
        return builder.buildGenerationBatch({s.a}, blocks);
      case Shape::Batch:
        return builder.buildGenerationBatch(batchKvs(s.a), blocks);
    }
    return {};
}

/** @p prog records one barrier per block, each of which every later
 *  command waits on. */
testing::AssertionResult
closesEveryBlock(const isa::Program &prog, std::uint64_t blocks)
{
    const std::vector<std::uint32_t> &ends = prog.blockEnds();
    if (ends.size() != blocks)
        return testing::AssertionFailure()
               << ends.size() << " block ends for " << blocks << " blocks";
    for (std::size_t k = 0; k < ends.size(); ++k) {
        const isa::Command &end = prog.at(ends[k]);
        if (end.unit != isa::UnitKind::Sync ||
            !std::holds_alternative<isa::SyncArgs>(end.payload))
            return testing::AssertionFailure()
                   << "block end " << k << " is not a barrier";
        if (k > 0 && ends[k] <= ends[k - 1])
            return testing::AssertionFailure() << "block ends out of order";
        // By induction in id order: a dependency at or after the
        // barrier waits on it.
        for (std::uint32_t id = ends[k] + 1; id < prog.size(); ++id) {
            const isa::Deps deps = prog.deps(prog.at(id));
            if (deps.empty() ||
                *std::max_element(deps.begin(), deps.end()) < ends[k])
                return testing::AssertionFailure()
                       << "command " << id << " does not wait on block end "
                       << k;
        }
    }
    return testing::AssertionSuccess();
}

TEST(BlockPeriodic, ProgramsRecordOneClosingBarrierPerBlock)
{
    int checked = 0;
    for (const auto &model : {workloads::gpt2("m"), workloads::bert("b")}) {
        WorkloadBuilder builder(SystemConfig::ianusDefault(), model);
        for (const Shape &s : allShapes) {
            if (!model.decoder() && s.kind != Shape::Prefill)
                continue;
            const std::string what = model.name + " " + describe(s);
            for (std::uint64_t blocks : {std::uint64_t{1}, std::uint64_t{2},
                                         model.nBlocks})
                EXPECT_TRUE(closesEveryBlock(
                    truncatedProgram(builder, s, blocks), blocks))
                    << what << ", " << blocks << " blocks";
            EXPECT_TRUE(closesEveryBlock(fullProgram(builder, s),
                                         model.nBlocks))
                << what << ", full";
            ++checked;
        }
    }
    EXPECT_EQ(checked, 14); // 11 GPT-2 shapes, 3 BERT prefills
}

/**
 * Run the 2-block prefix of every shape with snapshots: they are exact,
 * taking them changes nothing, and taking the second block away again,
 * two − (end1 − end0), leaves the 1-block run bit for bit. Returns how
 * many shapes were compared.
 */
int
expectSnapshotsRemoveOneBlock(const workloads::ModelConfig &model,
                              const SystemConfig &sys,
                              const BuildOptions &opts,
                              const std::string &label)
{
    std::optional<WorkloadBuilder> builder;
    try {
        builder.emplace(sys, model, opts);
    } catch (const std::runtime_error &) {
        return 0;
    }
    ExecutionEngine engine(sys, opts.devices);
    int compared = 0;
    for (const Shape &s : allShapes) {
        if (!model.decoder() && s.kind != Shape::Prefill)
            continue;
        const std::string what = label + " " + describe(s);
        std::optional<isa::Program> two_blocks;
        try {
            two_blocks = truncatedProgram(*builder, s, 2);
        } catch (const std::runtime_error &) {
            continue;
        }
        std::vector<RunStats> ends;
        const RunStats two = engine.run(*two_blocks, &ends);
        if (ends.size() != 2) {
            ADD_FAILURE() << what << ": " << ends.size() << " snapshots";
            continue;
        }
        EXPECT_TRUE(exactIntegers(ends[0])) << what;
        EXPECT_TRUE(exactIntegers(ends[1])) << what;
        EXPECT_TRUE(bitIdentical(two, engine.run(*two_blocks))) << what;
        const RunStats one = engine.run(truncatedProgram(*builder, s, 1));
        EXPECT_TRUE(bitIdentical(
            RunStats::blockPeriodic(two, ends[0], ends[1], 1), one))
            << what;
        ++compared;
    }
    return compared;
}

class BlockSnapshotSweep : public testing::TestWithParam<SweepCase>
{
};

TEST_P(BlockSnapshotSweep, TwoBlockRunLessOneBlockIsTheOneBlockRun)
{
    const SweepCase &c = GetParam();
    const workloads::ModelConfig model = c.make(c.size);
    int compared = 0;
    for (const SystemCase &sys : systems) {
        for (const auto &[opt_name, opts] : buildOptions())
            compared += expectSnapshotsRemoveOneBlock(
                model, sys.make(), opts,
                std::string(c.model) + " " + sys.name + " " + opt_name);
    }
    EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, BlockSnapshotSweep,
    testing::Values(SweepCase{"gpt2_m", &workloads::gpt2, "m"},
                    SweepCase{"bert_b", &workloads::bert, "b"},
                    SweepCase{"bert_l", &workloads::bert, "l"},
                    SweepCase{"gpt_6_7b", &workloads::gptLarge, "6.7b"}),
    [](const testing::TestParamInfo<SweepCase> &info) {
        return std::string(info.param.model);
    });

} // namespace
