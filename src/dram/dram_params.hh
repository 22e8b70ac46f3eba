/**
 * @file
 * GDDR6 device and timing parameters (Table 1 of the paper).
 *
 * The IANUS memory system is 8 channels of GDDR6, 16 Gb/s/pin, x16
 * organization, 16 banks per channel, 2 KB rows, 256 GB/s aggregate
 * external bandwidth; two channels form one physical AiM chip.
 */

#ifndef IANUS_DRAM_DRAM_PARAMS_HH
#define IANUS_DRAM_DRAM_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace ianus::dram
{

/** DRAM timing constraints in ticks (Table 1). */
struct DramTiming
{
    Tick tCK = 500;        ///< command clock period (0.5 ns)
    Tick tCCDS = 1000;     ///< column-to-column, different bank group
    Tick tCCDL = 1000;     ///< column-to-column, same bank group
    Tick tRAS = 21000;     ///< activate to precharge
    Tick tWR = 36000;      ///< write recovery
    Tick tRP = 30000;      ///< precharge period
    Tick tRCDRD = 36000;   ///< activate to read
    Tick tRCDWR = 24000;   ///< activate to write

    /** Minimum activate-to-activate within one bank (row cycle). */
    Tick rowCycle() const { return tRAS + tRP; }

    bool operator==(const DramTiming &) const = default;
};

/** Geometry and bandwidth of the GDDR6(-AiM) memory system. */
struct Gddr6Config
{
    unsigned channels = 8;          ///< memory channels in the system
    unsigned banksPerChannel = 16;  ///< banks per channel
    unsigned channelsPerChip = 2;   ///< GDDR6-AiM packages hold 2 channels
    std::uint64_t rowBytes = 2048;  ///< DRAM row (page) size, 1024 BF16
    std::uint64_t burstBytes = 32;  ///< bytes moved per column access
    std::uint64_t capacityBytes = 8ull * GiB; ///< total capacity

    DramTiming timing{};

    /**
     * One column burst occupies the data bus for tCCDL; with 32 B per
     * burst and a 1 ns cadence, one channel sustains 32 GB/s — 256 GB/s
     * over 8 channels, matching Table 1.
     */
    Tick burstTicks() const { return timing.tCCDL; }

    /** Peak external bandwidth of a single channel, bytes per tick. */
    double
    channelPeakBytesPerTick() const
    {
        return static_cast<double>(burstBytes) /
               static_cast<double>(burstTicks());
    }

    /** Peak external bandwidth of the full system in GB/s. */
    double
    systemPeakGBs() const
    {
        return channelPeakBytesPerTick() * channels * 1000.0;
    }

    /** Column bursts that make up one row. */
    std::uint64_t burstsPerRow() const { return rowBytes / burstBytes; }

    /** Number of physical AiM chips in the system. */
    unsigned chips() const { return channels / channelsPerChip; }

    /** Validate internal consistency; fatal() on user misconfiguration. */
    void validate() const;

    bool operator==(const Gddr6Config &) const = default;
};

} // namespace ianus::dram

#endif // IANUS_DRAM_DRAM_PARAMS_HH
