/** @file Multi-device scaling (Section 7.1). */

#include <gtest/gtest.h>

#include "serve/compiled_model.hh"

namespace
{

using namespace ianus;
using workloads::InferenceRequest;

TEST(MultiDevice, LargeModelNeedsEnoughDevices)
{
    workloads::ModelConfig m13 = workloads::gptLarge("13b");
    serve::CompiledModel two(SystemConfig::ianusDefault(), m13,
                             {.devices = 2});
    EXPECT_THROW((void)two.run({256, 1}), std::runtime_error);
    serve::CompiledModel four(SystemConfig::ianusDefault(), m13,
                              {.devices = 4});
    EXPECT_NO_THROW((void)four.run({256, 1}));
}

TEST(MultiDevice, StrongScalingIsPositiveButSublinear)
{
    // Fig 18: 2 -> 4 -> 8 devices gives 1.67x and 1.50x, not 2x.
    workloads::ModelConfig m67 = workloads::gptLarge("6.7b");
    InferenceRequest req{256, 17};
    double prev_tps = 0.0;
    for (unsigned d : {2u, 4u, 8u}) {
        serve::CompiledModel sys(SystemConfig::ianusDefault(), m67,
                                 {.devices = d});
        double tps = sys.run(req, 4).generationTokensPerSec();
        EXPECT_GT(tps, prev_tps) << d << " devices";
        if (prev_tps > 0.0) {
            EXPECT_LT(tps / prev_tps, 2.0) << "superlinear scaling";
        }
        prev_tps = tps;
    }
}

TEST(MultiDevice, TokensPerSecondDefinition)
{
    InferenceReport r;
    r.generationSteps = 10;
    r.generation.wallTicks = tickPerSec; // one second
    EXPECT_DOUBLE_EQ(r.generationTokensPerSec(), 10.0);
    InferenceReport empty;
    EXPECT_DOUBLE_EQ(empty.generationTokensPerSec(), 0.0);
}

TEST(MultiDevice, MoreDevicesCostMorePcieTime)
{
    // Same per-device slice count comparison: generation latency with 8
    // devices must not be 4x better than 2 devices (comm overhead).
    workloads::ModelConfig m67 = workloads::gptLarge("6.7b");
    serve::CompiledModel two(SystemConfig::ianusDefault(), m67,
                             {.devices = 2});
    serve::CompiledModel eight(SystemConfig::ianusDefault(), m67,
                               {.devices = 8});
    double t2 = two.run({256, 9}, 2).msPerGeneratedToken();
    double t8 = eight.run({256, 9}, 2).msPerGeneratedToken();
    EXPECT_LT(t8, t2);            // faster...
    EXPECT_GT(t8, t2 / 4.0);      // ...but far from linear
}

} // namespace
