/**
 * @file
 * KV memory manager: capacity derivation from the DRAM channel
 * geometry, paged block accounting (ceil fragmentation, worst-case
 * reservations), the park/resume charge cycle, unified vs partitioned
 * layouts, and the PCIe spill dilation model.
 */

#include <gtest/gtest.h>

#include "serve/kv_manager.hh"

namespace
{

using namespace ianus;
using serve::KvAdmission;
using serve::KvBlockManager;
using serve::KvLayout;
using serve::KvOptions;

KvOptions
kvOpts(std::uint64_t capacity, std::uint64_t block = 16,
       KvAdmission admission = KvAdmission::Queue,
       KvLayout layout = KvLayout::Unified)
{
    KvOptions o;
    o.capacityTokens = capacity;
    o.blockTokens = block;
    o.admission = admission;
    o.layout = layout;
    return o;
}

TEST(KvCapacityDerivation, GeometryMinusWeightsOverPerTokenBytes)
{
    const SystemConfig sys = SystemConfig::ianusDefault();
    const workloads::ModelConfig model = workloads::gpt2("m");

    // Per-token KV: K and V, one headDim vector per head per block,
    // BF16 — for GPT-2 M that is 2 x 24 x 1024 x 2 = 98304 bytes.
    EXPECT_EQ(serve::kvBytesPerToken(model),
              2 * model.nBlocks * model.qkvDim() * 2);

    // The derivation recomposes the device bytes from channels x banks
    // x rows x row bytes and subtracts one copy of the weights.
    const std::uint64_t expect =
        (sys.mem.capacityBytes - model.weightBytes()) /
        serve::kvBytesPerToken(model);
    EXPECT_EQ(serve::deriveKvCapacityTokens(sys, model), expect);
    EXPECT_GT(expect, 0u);
}

TEST(KvCapacityDerivation, LargerModelGetsFewerTokens)
{
    const SystemConfig sys = SystemConfig::ianusDefault();
    EXPECT_GT(serve::deriveKvCapacityTokens(sys, workloads::gpt2("m")),
              serve::deriveKvCapacityTokens(sys, workloads::gpt2("xl")));
}

TEST(KvBlocks, CeilAllocationModelsInternalFragmentation)
{
    KvBlockManager kv(kvOpts(320, 16), SystemConfig::ianusDefault());
    EXPECT_EQ(kv.totalBlocks(), 20u);
    EXPECT_EQ(kv.blocksFor(1), 1u);
    EXPECT_EQ(kv.blocksFor(16), 1u);
    EXPECT_EQ(kv.blocksFor(17), 2u);

    // A 33-token worst case reserves 3 blocks = 48 token slots.
    kv.admit(1, 33);
    EXPECT_EQ(kv.freeBlocks(), 17);
    kv.setUsed(1, 33);
    kv.release(1);
    EXPECT_EQ(kv.freeBlocks(), 20);
    // Fragmentation at release: 48 reserved slots, 33 used.
    EXPECT_EQ(kv.fragWasteTokens(), 15u);
    EXPECT_EQ(kv.fragGrossTokens(), 48u);
}

TEST(KvBlocks, AdmissionReservesWorstCaseUpFront)
{
    KvBlockManager kv(kvOpts(160, 16), SystemConfig::ianusDefault());
    EXPECT_TRUE(kv.canAdmit(160));
    EXPECT_FALSE(kv.canAdmit(161)); // one block past the pool
    kv.admit(1, 96); // 6 of 10 blocks, before a single token is written
    EXPECT_EQ(kv.freeBlocks(), 4);
    EXPECT_FALSE(kv.canAdmit(65)); // needs 5
    EXPECT_TRUE(kv.canAdmit(64));  // exactly 4
    EXPECT_DOUBLE_EQ(kv.pressure(), 0.6);
    EXPECT_DOUBLE_EQ(kv.peakPressure(), 0.6);
}

TEST(KvBlocks, ParkShrinksChargeAndResumeReReserves)
{
    KvBlockManager kv(kvOpts(160, 16), SystemConfig::ianusDefault());
    kv.admit(1, 96);       // 6 blocks reserved
    kv.setUsed(1, 20);     // 2 blocks actually written
    kv.park(1);            // parked: charge drops to the written blocks
    EXPECT_EQ(kv.freeBlocks(), 8);
    EXPECT_EQ(kv.residentTokens(), 20u); // parked KV stays charged

    kv.admit(2, 128);      // the freed headroom admits a second request
    EXPECT_EQ(kv.freeBlocks(), 0);
    EXPECT_FALSE(kv.canResume(1)); // blocked until blocks free
    kv.setUsed(2, 128);
    kv.release(2);
    EXPECT_TRUE(kv.canResume(1));
    kv.resume(1);
    EXPECT_EQ(kv.freeBlocks(), 4); // back to the worst-case charge
    kv.setUsed(1, 96);
    kv.release(1);
    EXPECT_EQ(kv.freeBlocks(), 10);
    EXPECT_EQ(kv.residentTokens(), 0u);
}

TEST(KvBlocks, ParkWouldAdmitGatesPointlessEvictions)
{
    KvBlockManager kv(kvOpts(160, 16), SystemConfig::ianusDefault());
    kv.admit(1, 128);  // 8 of 10 blocks
    kv.setUsed(1, 100); // parking would keep 7, freeing only 1
    EXPECT_FALSE(kv.canAdmit(64));
    EXPECT_TRUE(kv.parkWouldAdmit(1, 48));  // 2 free + 1 freed >= 3
    EXPECT_FALSE(kv.parkWouldAdmit(1, 64)); // needs 4, only 3 possible
}

TEST(KvBlocks, NoneAdmissionOvercommitsAndSpills)
{
    const SystemConfig sys = SystemConfig::ianusDefault();
    KvBlockManager kv(kvOpts(64, 16, KvAdmission::None), sys);
    kv.admit(1, 64);
    EXPECT_TRUE(kv.canAdmit(1024)); // `none` never refuses
    kv.admit(2, 64);                // overcommit: free goes negative
    EXPECT_EQ(kv.freeBlocks(), -4);
    EXPECT_DOUBLE_EQ(kv.pressure(), 2.0);

    // Within capacity nothing spills; beyond it the spilled fraction
    // of the KV traffic rides PCIe (spill factor 256 x 0.8 / 64 = 3.2).
    kv.setUsed(1, 64);
    EXPECT_DOUBLE_EQ(kv.dilation(), 1.0);
    kv.setUsed(2, 64);
    const double f = 64.0 / 128.0;
    EXPECT_DOUBLE_EQ(kv.dilation(), 1.0 + f * (3.2 - 1.0));
    kv.release(1);
    kv.release(2);
    EXPECT_EQ(kv.freeBlocks(), 4);
}

TEST(KvLayouts, PartitionedSplitsThePoolAndBalancesRegions)
{
    KvBlockManager kv(kvOpts(320, 16, KvAdmission::Queue,
                             KvLayout::Partitioned),
                      SystemConfig::ianusDefault());
    EXPECT_EQ(kv.totalBlocks(), 20u); // 10 + 10

    // A request cannot straddle regions: 11 blocks never fit.
    EXPECT_FALSE(kv.canAdmit(176));
    EXPECT_FALSE(kv.canEverAdmit(176));
    EXPECT_TRUE(kv.canEverAdmit(160));

    // Emptier-region placement: two 6-block requests land in separate
    // halves, so both fit where a unified 20-block pool would also
    // hold them — but a third cannot, though 8 blocks are free.
    kv.admit(1, 96);
    kv.admit(2, 96);
    EXPECT_EQ(kv.freeBlocks(), 8);
    EXPECT_FALSE(kv.canAdmit(96)); // 4 + 4 free, no region has 6

    KvBlockManager uni(kvOpts(320, 16), SystemConfig::ianusDefault());
    uni.admit(1, 96);
    uni.admit(2, 96);
    EXPECT_TRUE(uni.canAdmit(96)); // unified still has 8 contiguous
}

TEST(KvLayouts, PartitionedHalvesKvReadBandwidth)
{
    const SystemConfig sys = SystemConfig::ianusDefault();
    const double full =
        KvBlockManager::readBandwidthGBs(sys, KvLayout::Unified);
    const double half =
        KvBlockManager::readBandwidthGBs(sys, KvLayout::Partitioned);
    EXPECT_DOUBLE_EQ(full, sys.mem.systemPeakGBs() * sys.dmaEfficiency);
    EXPECT_DOUBLE_EQ(half, full / 2.0);
}

TEST(KvLayouts, PartitionedSpillsPerRegion)
{
    const SystemConfig sys = SystemConfig::ianusDefault();
    KvBlockManager kv(kvOpts(128, 16, KvAdmission::None,
                             KvLayout::Partitioned),
                      sys);
    // One request lands whole in a 4-block (64-token) half region;
    // writing 96 tokens spills 32 there even though the device-wide
    // capacity (128) would have held it — the overflow cost of
    // partitioning.
    kv.admit(1, 96);
    kv.setUsed(1, 96);
    EXPECT_GT(kv.dilation(), 1.0);
}

TEST(KvOptionsNaming, RoundTripsAndRejectsUnknown)
{
    EXPECT_EQ(serve::makeKvAdmission("queue"), KvAdmission::Queue);
    EXPECT_EQ(serve::makeKvAdmission("shed"), KvAdmission::Shed);
    EXPECT_EQ(serve::makeKvLayout("partitioned"), KvLayout::Partitioned);
    EXPECT_STREQ(serve::toString(KvAdmission::None), "none");
    EXPECT_STREQ(serve::toString(KvLayout::Unified), "unified");
    EXPECT_THROW(serve::makeKvAdmission("best-effort"),
                 std::runtime_error);
    EXPECT_THROW(serve::makeKvLayout("striped"), std::runtime_error);
}

TEST(KvGuards, ManagerRejectsMisuse)
{
    const SystemConfig sys = SystemConfig::ianusDefault();
    EXPECT_THROW(KvBlockManager(kvOpts(0), sys), std::runtime_error);
    EXPECT_THROW(KvBlockManager(kvOpts(8, 16), sys),
                 std::runtime_error); // smaller than one block

    KvBlockManager kv(kvOpts(160, 16), sys);
    kv.admit(1, 32);
    EXPECT_THROW(kv.admit(1, 32), std::runtime_error); // double admit
    EXPECT_THROW(kv.admit(2, 161), std::runtime_error); // beyond free
    EXPECT_THROW(kv.release(9), std::runtime_error);   // unknown id
    EXPECT_THROW(kv.resume(1), std::runtime_error);    // not parked
    kv.park(1);
    EXPECT_THROW(kv.park(1), std::runtime_error);      // double park
    EXPECT_THROW(kv.setUsed(1, 8), std::runtime_error); // parked grows
}

} // namespace
