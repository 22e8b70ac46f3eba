#include "pim/pim_channel.hh"

#include <bit>

#include "common/logging.hh"
#include "common/types.hh"

namespace ianus::pim
{

PimChannelEngine::PimChannelEngine(const dram::Gddr6Config &cfg,
                                   const PimUnitParams &pu)
    : cfg_(cfg), pu_(pu)
{
    cfg_.validate();
    IANUS_ASSERT(pu_.elemsPerMac * elemBytes == cfg_.burstBytes,
                 "MACAB width must equal one burst");
}

MacroTiming
PimChannelEngine::gemvTiming(const GemvTiling &tiling, bool fused_gelu,
                             bool has_bias) const
{
    const dram::DramTiming &t = cfg_.timing;
    const Tick burst = cfg_.burstTicks();

    MacroTiming mt;
    const std::uint64_t row_tiles = tiling.rowTiles();
    const std::uint64_t k_tiles = tiling.kTiles();

    // Every row tile of a slice issues the same commands, so each
    // slice adds its per-tile costs row_tiles times over.
    for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
        std::uint64_t k_elems = tiling.kSliceElems(kt);
        // WRGB: broadcast the input slice into every channel's global
        // buffer, one burst per 16 elements.
        std::uint64_t gb_bursts = ceilDiv(k_elems * elemBytes,
                                          cfg_.burstBytes);
        mt.gbFill += gb_bursts * burst;
        mt.micro.wrgb += gb_bursts;

        // Per row tile: ACTAB -> MACAB stream -> RDMAC [-> ACTAF] ->
        // PREAB, with the bias write on the first slice and the fused
        // activation on the last.
        std::uint64_t mac_bursts = ceilDiv(k_elems,
                                           std::uint64_t{pu_.elemsPerMac});
        Tick per_tile = t.tRCDRD + burst + t.tRP; // ACTAB, RDMAC, PREAB
        mt.micro.actab += row_tiles;
        mt.micro.rdmac += row_tiles;
        mt.micro.preab += row_tiles;
        if (has_bias && kt == 0) {
            per_tile += burst;
            mt.micro.wrbias += row_tiles;
        }
        if (fused_gelu && kt == k_tiles - 1) {
            per_tile += pu_.actafTicks;
            mt.micro.actaf += row_tiles;
        }
        mt.rowOverhead += row_tiles * per_tile;
        mt.macStream += row_tiles * mac_bursts * burst;
        mt.micro.macab += row_tiles * mac_bursts;
    }
    mt.total = mt.gbFill + mt.macStream + mt.rowOverhead;
    return mt;
}

MacroTiming
PimChannelEngine::macroTiming(const MacroCommand &macro,
                              unsigned channel_count) const
{
    IANUS_ASSERT(channel_count > 0, "macro command with no channels");
    GemvTiling tiling = GemvTiling::compute(macro.rows, macro.cols, cfg_,
                                            channel_count);
    return gemvTiming(tiling, macro.fusedGelu, macro.hasBias);
}

double
PimChannelEngine::effectiveGflops(const GemvTiling &tiling,
                                  unsigned channel_count) const
{
    MacroTiming mt = gemvTiming(tiling, false, false);
    double flops = 2.0 * static_cast<double>(tiling.rows) *
                   static_cast<double>(tiling.cols);
    double seconds = ticksToSec(mt.total);
    (void)channel_count; // lockstep: duration independent of channel count
    return flops / seconds / 1e9;
}

} // namespace ianus::pim
