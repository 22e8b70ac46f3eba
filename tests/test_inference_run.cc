/** @file One request through CompiledModel::run: report structure,
 *  stride integration, stages. */

#include <gtest/gtest.h>

#include "serve/compiled_model.hh"

namespace
{

using namespace ianus;
using workloads::InferenceRequest;

workloads::ModelConfig m = workloads::gpt2("m");

TEST(InferenceRun, SummarizationOnlyForSingleOutput)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
    InferenceReport r = sys.run({128, 1});
    EXPECT_EQ(r.generationSteps, 0u);
    EXPECT_EQ(r.generation.wallTicks, 0u);
    EXPECT_GT(r.summarization.wallTicks, 0u);
    EXPECT_EQ(r.totalTicks(), r.summarization.wallTicks);
}

TEST(InferenceRun, GenerationStepsAreOutputMinusOne)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
    InferenceReport r = sys.run({128, 8});
    EXPECT_EQ(r.generationSteps, 7u);
    EXPECT_GT(r.generationMs(), 0.0);
    EXPECT_GT(r.msPerGeneratedToken(), 0.0);
}

TEST(InferenceRun, LatencyMonotoneInOutputTokens)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
    double prev = 0.0;
    for (std::uint64_t out : {1u, 4u, 8u, 16u}) {
        double ms = sys.run({128, out}).totalMs();
        EXPECT_GT(ms, prev);
        prev = ms;
    }
}

TEST(InferenceRun, LatencyMonotoneInInputTokens)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
    double ms128 = sys.run({128, 1}).totalMs();
    double ms512 = sys.run({512, 1}).totalMs();
    EXPECT_GT(ms512, ms128);
}

TEST(InferenceRun, StrideIntegrationApproximatesExact)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
    InferenceReport exact = sys.run({64, 33}, 1);
    InferenceReport strided = sys.run({64, 33}, 8);
    EXPECT_EQ(strided.generationSteps, exact.generationSteps);
    EXPECT_NEAR(strided.generationMs(), exact.generationMs(),
                0.02 * exact.generationMs());
    EXPECT_NEAR(strided.generation.commands, exact.generation.commands,
                0.02 * exact.generation.commands);
}

TEST(InferenceRun, CombinedMergesStages)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
    InferenceReport r = sys.run({128, 4});
    RunStats all = r.combined();
    EXPECT_DOUBLE_EQ(all.commands,
                     r.summarization.commands + r.generation.commands);
    EXPECT_EQ(all.wallTicks, r.totalTicks());
}

TEST(InferenceRun, BertRunsSummarizationOnly)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(),
                             workloads::bert("b"));
    InferenceReport r = sys.run({128, 64});
    EXPECT_EQ(r.generationSteps, 0u); // encoder: no generation stage
    EXPECT_GT(r.achievedTflops(), 0.0);
}

TEST(InferenceRun, SummarySummarizes)
{
    serve::CompiledModel sys(SystemConfig::ianusDefault(), m);
    InferenceReport r = sys.run({32, 2});
    std::string s = r.summary();
    EXPECT_NE(s.find("(32,2)"), std::string::npos);
    EXPECT_NE(s.find("1 steps"), std::string::npos);
}

} // namespace
