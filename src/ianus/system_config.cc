#include "ianus/system_config.hh"

#include "common/logging.hh"

namespace ianus
{

const char *
toString(MemoryMode mode)
{
    switch (mode) {
      case MemoryMode::Unified: return "unified";
      case MemoryMode::Partitioned: return "partitioned";
    }
    return "?";
}

dram::ChannelSet
SystemConfig::pimChannelMask() const
{
    if (!pimEnabled)
        return 0;
    unsigned pool = mem.channels;
    if (memoryMode == MemoryMode::Partitioned)
        pool = mem.channels / 2; // half the capacity is plain DRAM
    unsigned n = std::min(pool, pimChips * mem.channelsPerChip);
    return n >= 32 ? ~0u : ((1u << n) - 1u);
}

dram::ChannelSet
SystemConfig::dramChannelMask() const
{
    dram::ChannelSet all = dram::allChannels(mem);
    if (memoryMode == MemoryMode::Unified)
        return all; // unified: every channel serves normal traffic
    // Partitioned: the upper half is the NPU's dedicated DRAM.
    unsigned half = mem.channels / 2;
    dram::ChannelSet lower = (1u << half) - 1u;
    return all & ~lower;
}

unsigned
SystemConfig::pimPoolChips() const
{
    dram::ChannelSet pool = pimChannelMask();
    unsigned pool_chips = 0;
    for (unsigned chip = 0; chip < mem.chips(); ++chip)
        if ((dram::chipChannels(mem, chip) & pool) ==
            dram::chipChannels(mem, chip))
            ++pool_chips;
    return pool_chips;
}

dram::ChannelSet
SystemConfig::pimChipMaskForCore(unsigned core) const
{
    if (pimChannelMask() == 0)
        return 0;
    unsigned pool_chips = pimPoolChips();
    IANUS_ASSERT(pool_chips > 0, "PIM pool smaller than one chip");
    return dram::chipChannels(mem, core % pool_chips);
}

dram::ChannelSet
SystemConfig::memoryChipMaskForCore(unsigned core) const
{
    return dram::chipChannels(mem, core % mem.chips());
}

unsigned
SystemConfig::pimChannelCount() const
{
    dram::ChannelSet m = pimChannelMask();
    unsigned n = 0;
    while (m) {
        n += m & 1u;
        m >>= 1;
    }
    return n;
}

std::uint64_t
SystemConfig::weightCapacityBytes() const
{
    if (memoryMode == MemoryMode::Partitioned)
        return mem.capacityBytes / 2;
    return mem.capacityBytes;
}

void
SystemConfig::validate() const
{
    mem.validate();
    if (cores == 0)
        IANUS_FATAL("at least one NPU core required");
    if (pimEnabled && pimChips == 0)
        IANUS_FATAL("PIM enabled with zero PIM chips");
    if (pimEnabled && pimChips > mem.chips())
        IANUS_FATAL("more PIM chips (", pimChips, ") than memory chips (",
                    mem.chips(), ")");
    if (dmaEfficiency <= 0.0 || dmaEfficiency > 1.0)
        IANUS_FATAL("DMA efficiency must be in (0, 1]");
}

SystemConfig
SystemConfig::ianusDefault()
{
    SystemConfig cfg;
    cfg.validate();
    return cfg;
}

SystemConfig
SystemConfig::npuMem()
{
    SystemConfig cfg;
    cfg.pimEnabled = false;
    cfg.validate();
    return cfg;
}

SystemConfig
SystemConfig::partitioned()
{
    SystemConfig cfg;
    cfg.memoryMode = MemoryMode::Partitioned;
    // Half the memory (2 chips, 4 channels) carries PIM compute; the
    // other half is the NPU's dedicated DRAM (Fig 13's configuration).
    cfg.pimChips = 2;
    cfg.validate();
    return cfg;
}

} // namespace ianus
