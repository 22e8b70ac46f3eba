/**
 * @file Fluid-flow channel arbiter: bandwidth sharing, exclusive PIM
 * reservations, completion ordering.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "dram/channel_arbiter.hh"
#include "sim/event_queue.hh"

namespace
{

using ianus::dram::allChannels;
using ianus::dram::ChannelArbiter;
using ianus::dram::chipChannels;
using ianus::dram::Gddr6Config;
using ianus::sim::EventQueue;
using ianus::Tick;

struct ArbiterFixture : ::testing::Test
{
    Gddr6Config cfg;
    EventQueue eq;
    ChannelArbiter arb{eq, cfg, 1.0}; // efficiency 1.0: exact math
};

TEST_F(ArbiterFixture, SingleFlowRunsAtChannelBandwidth)
{
    // 32 KiB on one channel at 32 B/ns = 1024 ns.
    Tick done = 0;
    arb.startFlow(32768, 0x1, false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 1024 * ianus::tickPerNs);
}

TEST_F(ArbiterFixture, StripedFlowUsesAllChannels)
{
    Tick done = 0;
    arb.startFlow(32768, allChannels(cfg), false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 128 * ianus::tickPerNs); // 8x the bandwidth
}

TEST_F(ArbiterFixture, TwoFlowsShareOneChannelEqually)
{
    Tick done_a = 0, done_b = 0;
    arb.startFlow(32768, 0x1, false, [&] { done_a = eq.now(); });
    arb.startFlow(32768, 0x1, false, [&] { done_b = eq.now(); });
    eq.run();
    // Equal shares: both finish together at 2x the solo time.
    EXPECT_EQ(done_a, 2048 * ianus::tickPerNs);
    EXPECT_EQ(done_b, 2048 * ianus::tickPerNs);
}

TEST_F(ArbiterFixture, DisjointFlowsDoNotInterfere)
{
    Tick done_a = 0, done_b = 0;
    arb.startFlow(32768, 0x1, false, [&] { done_a = eq.now(); });
    arb.startFlow(32768, 0x2, false, [&] { done_b = eq.now(); });
    eq.run();
    EXPECT_EQ(done_a, 1024 * ianus::tickPerNs);
    EXPECT_EQ(done_b, 1024 * ianus::tickPerNs);
}

TEST_F(ArbiterFixture, ShortFlowFreesBandwidthForLongFlow)
{
    // A: 32 KiB, B: 8 KiB on the same channel. B finishes at 512 ns
    // (half share, 8 KiB at 16 B/ns); A has 24 KiB left and speeds up
    // to the full 32 B/ns: 512 + 768 = 1280 ns.
    Tick done_a = 0, done_b = 0;
    arb.startFlow(32768, 0x1, false, [&] { done_a = eq.now(); });
    arb.startFlow(8192, 0x1, false, [&] { done_b = eq.now(); });
    eq.run();
    EXPECT_EQ(done_b, 512 * ianus::tickPerNs);
    EXPECT_EQ(done_a, 1280 * ianus::tickPerNs);
}

TEST_F(ArbiterFixture, ExclusiveReservationStallsFlows)
{
    // PIM macro holds the channel for a while; the flow resumes after.
    Tick done = 0;
    arb.acquireExclusive(0x1);
    arb.startFlow(32768, 0x1, false, [&] { done = eq.now(); });
    eq.scheduleIn(5000 * ianus::tickPerNs, [&] {
        arb.releaseExclusive(0x1);
    });
    eq.run();
    EXPECT_EQ(done, (5000 + 1024) * ianus::tickPerNs);
    EXPECT_GE(arb.exclusiveTicks(), 5000 * ianus::tickPerNs);
}

TEST_F(ArbiterFixture, PartialOverlapWithExclusiveChannels)
{
    // Flow stripes channels {0,1}; channel 1 is reserved: the flow runs
    // at half rate until release.
    Tick done = 0;
    arb.acquireExclusive(0x2);
    arb.startFlow(65536, 0x3, false, [&] { done = eq.now(); });
    eq.scheduleIn(512 * ianus::tickPerNs,
                  [&] { arb.releaseExclusive(0x2); });
    eq.run();
    // 512 ns at 32 B/ns = 16 KiB done; 48 KiB left at 64 B/ns = 768 ns.
    EXPECT_EQ(done, (512 + 768) * ianus::tickPerNs);
}

TEST_F(ArbiterFixture, AnyFlowOnReportsLiveChannels)
{
    arb.startFlow(32768, 0x4, false, [] {});
    EXPECT_TRUE(arb.anyFlowOn(0x4));
    EXPECT_TRUE(arb.anyFlowOn(0x6)); // overlapping mask
    EXPECT_FALSE(arb.anyFlowOn(0x1));
    eq.run();
    EXPECT_FALSE(arb.anyFlowOn(0x4));
}

TEST_F(ArbiterFixture, ZeroByteFlowCompletesImmediately)
{
    bool fired = false;
    arb.startFlow(0, 0x1, false, [&] { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), 0u);
}

TEST_F(ArbiterFixture, ByteAccountingSplitsReadsAndWrites)
{
    arb.startFlow(100, 0x1, false, [] {});
    arb.startFlow(200, 0x1, true, [] {});
    eq.run();
    EXPECT_EQ(arb.readBytes(), 100u);
    EXPECT_EQ(arb.writeBytes(), 200u);
}

TEST_F(ArbiterFixture, EfficiencyDeratesBandwidth)
{
    ChannelArbiter derated(eq, cfg, 0.5);
    Tick done = 0;
    derated.startFlow(32768, 0x1, false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 2048 * ianus::tickPerNs);
}

TEST_F(ArbiterFixture, FlowsFinishingTogetherCompleteInStartOrder)
{
    // A longer flow first, then three that end at one event: 64 KiB
    // over two channels, half of each, and 32 KiB on each of those two
    // channels, sharing it.
    std::vector<std::pair<int, Tick>> done;
    auto record = [&](int flow) {
        return [&, flow] { done.emplace_back(flow, eq.now()); };
    };
    arb.startFlow(131072, 0x8, false, record(3));
    arb.startFlow(65536, 0x3, false, record(0));
    arb.startFlow(32768, 0x1, false, record(1));
    arb.startFlow(32768, 0x2, false, record(2));
    eq.run();
    const Tick together = 2048 * ianus::tickPerNs;
    EXPECT_EQ(done, (std::vector<std::pair<int, Tick>>{
                        {0, together},
                        {1, together},
                        {2, together},
                        {3, 4096 * ianus::tickPerNs}}));
    EXPECT_EQ(arb.activeFlows(), 0u);
}

TEST_F(ArbiterFixture, CompletionCallbackMayStartAFlow)
{
    Tick first = 0, second = 0;
    arb.startFlow(32768, 0x1, false, [&] {
        first = eq.now();
        arb.startFlow(16384, 0x1, true, [&] { second = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(first, 1024 * ianus::tickPerNs);
    EXPECT_EQ(second, (1024 + 512) * ianus::tickPerNs);
    EXPECT_EQ(arb.writeBytes(), 16384u);
    EXPECT_EQ(arb.activeFlows(), 0u);
}

TEST_F(ArbiterFixture, CallbackLargerThanTheInlineBufferFires)
{
    std::array<std::uint64_t, 8> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i + 1;
    std::uint64_t sum = 0;
    auto callback = [payload, &sum] {
        for (std::uint64_t v : payload)
            sum += v;
    };
    static_assert(sizeof(callback) > ianus::sim::SmallFn::sboBytes);
    arb.startFlow(32768, 0x1, false, callback);
    eq.run();
    EXPECT_EQ(sum, 36u);
}

TEST(ChannelArbiterHelpers, ChipChannelMasks)
{
    Gddr6Config cfg;
    EXPECT_EQ(allChannels(cfg), 0xFFu);
    EXPECT_EQ(chipChannels(cfg, 0), 0x03u);
    EXPECT_EQ(chipChannels(cfg, 3), 0xC0u);
    EXPECT_DEATH(chipChannels(cfg, 4), "out of range");
}

TEST_F(ArbiterFixture, ReleaseWithoutAcquirePanics)
{
    EXPECT_DEATH(arb.releaseExclusive(0x1), "non-reserved");
}

} // namespace
