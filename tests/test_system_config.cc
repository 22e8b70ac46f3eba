/** @file System config: Tables 1/2 derived values, channel pools. */

#include <gtest/gtest.h>

#include "ianus/system_config.hh"

namespace
{

using ianus::MemoryMode;
using ianus::SystemConfig;

TEST(SystemConfig, Table2DerivedSpecs)
{
    SystemConfig cfg = SystemConfig::ianusDefault();
    EXPECT_NEAR(cfg.npuPeakTflops(), 184.0, 1.0);  // 4 x 46
    EXPECT_NEAR(cfg.pimPeakTflops(), 4.0, 0.1);    // 4 chips x 1 TFLOPS
    EXPECT_NEAR(cfg.pimInternalGBs(), 4096.0, 1.0);
    EXPECT_DOUBLE_EQ(cfg.mem.systemPeakGBs(), 256.0);
    EXPECT_EQ(cfg.cores, 4u);
    EXPECT_EQ(cfg.tdpWatts, 120.0);
}

TEST(SystemConfig, Table1CoreGeometry)
{
    // AM 12 MB / WM 4 MB per core.
    const ianus::npu::CoreMemoryParams mem =
        SystemConfig::ianusDefault().coreMem;
    EXPECT_EQ(mem.actScratchpadBytes, 12u * 1024 * 1024);
    EXPECT_EQ(mem.weightScratchpadBytes, 4u * 1024 * 1024);
}

TEST(SystemConfig, UnifiedChannelPools)
{
    SystemConfig cfg = SystemConfig::ianusDefault();
    EXPECT_EQ(cfg.pimChannelMask(), 0xFFu); // all channels PIM-capable
    EXPECT_EQ(cfg.dramChannelMask(), 0xFFu);
    EXPECT_EQ(cfg.pimChannelCount(), 8u);
    EXPECT_EQ(cfg.weightCapacityBytes(), 8ull << 30);
}

TEST(SystemConfig, PartitionedHalvesThePools)
{
    SystemConfig cfg = SystemConfig::partitioned();
    EXPECT_EQ(cfg.memoryMode, MemoryMode::Partitioned);
    EXPECT_EQ(cfg.pimChannelMask(), 0x0Fu);  // lower half: PIM
    EXPECT_EQ(cfg.dramChannelMask(), 0xF0u); // upper half: plain DRAM
    EXPECT_EQ(cfg.pimChannelCount(), 4u);
    EXPECT_EQ(cfg.weightCapacityBytes(), 4ull << 30);
    // Half the PIM throughput of the unified system (Fig 13's argument).
    EXPECT_NEAR(cfg.pimPeakTflops(), 2.0, 0.1);
}

TEST(SystemConfig, NpuMemDisablesPim)
{
    SystemConfig cfg = SystemConfig::npuMem();
    EXPECT_FALSE(cfg.pimEnabled);
    EXPECT_EQ(cfg.pimChannelMask(), 0u);
    EXPECT_EQ(cfg.dramChannelMask(), 0xFFu);
}

TEST(SystemConfig, PerCoreChipAssignment)
{
    SystemConfig cfg = SystemConfig::ianusDefault();
    EXPECT_EQ(cfg.pimChipMaskForCore(0), 0x03u);
    EXPECT_EQ(cfg.pimChipMaskForCore(3), 0xC0u);

    // Partitioned: two PIM chips, cores share them pairwise.
    SystemConfig part = SystemConfig::partitioned();
    EXPECT_EQ(part.pimChipMaskForCore(0), 0x03u);
    EXPECT_EQ(part.pimChipMaskForCore(2), 0x03u);
    EXPECT_EQ(part.pimChipMaskForCore(1), 0x0Cu);
}

TEST(SystemConfig, PimChipSensitivityShrinksThePool)
{
    // Fig 15: fewer PIM chips, same memory bandwidth.
    SystemConfig cfg = SystemConfig::ianusDefault();
    cfg.pimChips = 1;
    cfg.validate();
    EXPECT_EQ(cfg.pimChannelMask(), 0x03u);
    EXPECT_EQ(cfg.dramChannelMask(), 0xFFu); // memory unchanged
    EXPECT_NEAR(cfg.pimPeakTflops(), 1.0, 0.05);
}

TEST(SystemConfig, ValidationCatchesUserErrors)
{
    SystemConfig cfg = SystemConfig::ianusDefault();
    cfg.cores = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = SystemConfig::ianusDefault();
    cfg.pimChips = 9;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = SystemConfig::ianusDefault();
    cfg.dmaEfficiency = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

} // namespace
