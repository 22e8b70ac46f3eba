/** @file Table-1 GDDR6 parameters: derived quantities and validation. */

#include <gtest/gtest.h>

#include "dram/dram_params.hh"

namespace
{

using ianus::dram::Gddr6Config;

TEST(DramParams, Table1Defaults)
{
    Gddr6Config cfg;
    cfg.validate();
    EXPECT_EQ(cfg.channels, 8u);
    EXPECT_EQ(cfg.banksPerChannel, 16u);
    EXPECT_EQ(cfg.rowBytes, 2048u);          // 1024 BF16 per row
    EXPECT_EQ(cfg.timing.tCK, 500u);         // 0.5 ns
    EXPECT_EQ(cfg.timing.tRCDRD, 36000u);    // 36 ns
    EXPECT_EQ(cfg.timing.tRP, 30000u);       // 30 ns
    EXPECT_EQ(cfg.timing.tRAS, 21000u);      // 21 ns
}

TEST(DramParams, BandwidthMatchesTable1)
{
    Gddr6Config cfg;
    // 8 channels x 32 GB/s = 256 GB/s aggregate external bandwidth.
    EXPECT_DOUBLE_EQ(cfg.systemPeakGBs(), 256.0);
    EXPECT_DOUBLE_EQ(cfg.channelPeakBytesPerTick() * 1000.0, 32.0);
}

TEST(DramParams, GeometryDerivations)
{
    Gddr6Config cfg;
    EXPECT_EQ(cfg.chips(), 4u); // 2 channels per GDDR6-AiM package
}

TEST(DramParams, ValidateRejectsBadRowSize)
{
    Gddr6Config cfg;
    cfg.rowBytes = 2047; // not a multiple of the burst
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(DramParams, ValidateRejectsOddChannelGrouping)
{
    Gddr6Config cfg;
    cfg.channels = 7;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(DramParams, ValidateRejectsZeroTiming)
{
    Gddr6Config cfg;
    cfg.timing.tRP = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

} // namespace
