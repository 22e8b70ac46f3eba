/**
 * @file
 * Full-system configuration (Tables 1 and 2).
 *
 * One SystemConfig describes a single IANUS device: 4 NPU cores, 8 PIM
 * memory controllers fronting 8 GDDR6(-AiM) channels, PCIe 5.0 ×16 host
 * interface. Factory functions produce the paper's configurations:
 * IANUS, NPU-MEM (same device, PIM disabled, plain GDDR6), and the
 * partitioned-memory variant of Fig 13.
 */

#ifndef IANUS_IANUS_SYSTEM_CONFIG_HH
#define IANUS_IANUS_SYSTEM_CONFIG_HH

#include "dram/channel_arbiter.hh"
#include "dram/dram_params.hh"
#include "noc/noc.hh"
#include "npu/command_scheduler.hh"
#include "npu/matrix_unit.hh"
#include "npu/vector_unit.hh"
#include "pim/pim_channel.hh"

namespace ianus::npu
{

/** Per-core scratchpad sizes (Table 1). */
struct CoreMemoryParams
{
    std::uint64_t actScratchpadBytes = 12 * MiB;
    std::uint64_t weightScratchpadBytes = 4 * MiB;

    bool operator==(const CoreMemoryParams &) const = default;
};

} // namespace ianus::npu

namespace ianus
{

/** Unified (PIM is the NPU's main memory) vs partitioned (Section 3.2). */
enum class MemoryMode : std::uint8_t { Unified, Partitioned };

const char *toString(MemoryMode mode);

/** Host/device interconnect for multi-device scaling (Section 7.1). */
struct PcieParams
{
    double bytesPerTick = 64.0 / 1000.0; ///< PCIe 5.0 x16 ~= 64 GB/s
    /** Per-hop setup cost of one peer-to-peer ring step (doorbell +
     *  DMA descriptor); calibrated against the Fig 18 scaling curve. */
    Tick latency = 500 * tickPerNs;

    bool operator==(const PcieParams &) const = default;
};

/** One IANUS device. */
struct SystemConfig
{
    unsigned cores = 4;
    npu::MatrixUnitParams mu{};
    npu::VectorUnitParams vu{};
    npu::CoreMemoryParams coreMem{};
    npu::SchedulerConfig sched{};
    dram::Gddr6Config mem{};
    pim::PimUnitParams pimUnit{};
    noc::NocParams noc{};
    PcieParams pcie{};

    bool pimEnabled = true;
    MemoryMode memoryMode = MemoryMode::Unified;

    /**
     * PIM chips with active compute capability (Fig 15 sensitivity).
     * Memory bandwidth/capacity stays at mem.channels regardless.
     */
    unsigned pimChips = 4;

    /** Fraction of peak a DMA stream sustains (refresh, turnaround). */
    double dmaEfficiency = 0.8;

    /** PCU macro decode latency (pipelined with PIM execution). */
    Tick pcuDispatch = 200 * tickPerNs;

    /** Per-command scheduler/dependency-resolution overhead. */
    Tick cmdOverhead = 250 * tickPerNs;

    /** Device TDP for the Section 7.2 cost analysis. */
    double tdpWatts = 120.0;

    // --- Derived quantities -------------------------------------------

    /** NPU peak throughput in TFLOPS (Table 2: 184). */
    double npuPeakTflops() const { return cores * mu.peakTflops(); }

    /** PIM peak throughput in TFLOPS (1 TFLOPS per chip). */
    double
    pimPeakTflops() const
    {
        return pimChips * mem.channelsPerChip * mem.banksPerChannel *
               pimUnit.puGflops / 1000.0;
    }

    /** Aggregate PIM-internal bandwidth in GB/s (Table 2: 4096). */
    double
    pimInternalGBs() const
    {
        // Each PU consumes one 32 B burst per ns: 32 GB/s per bank.
        return static_cast<double>(pimChips) * mem.channelsPerChip *
               mem.banksPerChannel *
               (static_cast<double>(mem.burstBytes) /
                static_cast<double>(mem.burstTicks())) * 1000.0;
    }

    /** Channels on which PIM compute may run. */
    dram::ChannelSet pimChannelMask() const;

    /** Channels backing plain NPU DRAM traffic. */
    dram::ChannelSet dramChannelMask() const;

    /** Whole memory chips inside pimChannelMask() (0 without PIM). */
    unsigned pimPoolChips() const;

    /** Channels of the chip serving core @p core's PIM work; panics if
     *  the PIM pool holds no whole chip. */
    dram::ChannelSet pimChipMaskForCore(unsigned core) const;

    /**
     * Channels of the memory chip that *stores* core @p core's head-wise
     * data (QKV weights, KV cache) in the unified system. Independent of
     * pimChips: the Fig-15 sensitivity study varies compute capability
     * while memory layout and bandwidth stay fixed.
     */
    dram::ChannelSet memoryChipMaskForCore(unsigned core) const;

    /** Channel count in the PIM compute pool. */
    unsigned pimChannelCount() const;

    /** Capacity available for model weights (per memory pool). */
    std::uint64_t weightCapacityBytes() const;

    void validate() const;

    /** Every field, nested parameter structs included: equal configs
     *  compile and execute every program alike (DevicePool shares one
     *  program-statistics store between replicas on that basis). */
    bool operator==(const SystemConfig &) const = default;

    // --- Factories ----------------------------------------------------

    /** The paper's IANUS device (Tables 1/2). */
    static SystemConfig ianusDefault();

    /** NPU-MEM: identical, standard GDDR6 instead of PIM. */
    static SystemConfig npuMem();

    /** Partitioned memory system of Fig 13 (half DRAM / half PIM). */
    static SystemConfig partitioned();
};

} // namespace ianus

#endif // IANUS_IANUS_SYSTEM_CONFIG_HH
