/**
 * @file
 * PIM channel engine: timing and micro-command accounting of macro GEMV
 * commands on one channel, directly from the Table-1 DRAM constraints.
 *
 * Loop structure (k-slice outer, row-tile inner):
 *
 *   for each k-slice:                      (global buffer refill, WRGB)
 *     for each row tile:                   (ACTAB; MACAB ...; RDMAC; PREAB)
 *
 * The k-outer order fills the global buffer once per slice instead of once
 * per (row tile, slice) pair, matching the buffer's stated purpose of
 * input reuse. The single per-PU accumulator is read out per row tile;
 * when K spans multiple slices the per-slice partials are summed outside
 * the banks — the readout burst and the (tiny) accumulate are charged to
 * the macro command so the scheduler still sees one indivisible operation.
 *
 * Per-row-tile period = tRCDRD + ceil(kSlice/16)·tCCDL + tCCDL(RDMAC)
 *                       [+ ACTAF] + tRP,
 * identical across the 16 banks (lockstep all-bank commands) and across
 * channels (NoC broadcast). This reproduces the paper's observations:
 * head dim 64 gives 64/1024 = 6.25% MACAB row utilization, and a
 * 1280-wide embedding costs two ACTABs per tile where a 1024-wide one
 * costs one (the Fig-11 energy note).
 */

#ifndef IANUS_PIM_PIM_CHANNEL_HH
#define IANUS_PIM_PIM_CHANNEL_HH

#include <cstdint>

#include "dram/dram_params.hh"
#include "pim/pim_command.hh"
#include "pim/pim_tiling.hh"

namespace ianus::pim
{

/** Per-PU datapath parameters (Table 1). */
struct PimUnitParams
{
    double puFreqGhz = 1.0;        ///< processing unit clock
    unsigned elemsPerMac = 16;     ///< BF16 elements per MACAB per bank
    double puGflops = 32.0;        ///< per-PU peak (16 MACs @ 1 GHz)
    Tick actafTicks = 4000;        ///< LUT interpolate + writeback, per tile

    bool operator==(const PimUnitParams &) const = default;
};

/** Timing/energy breakdown of one macro command on one channel. */
struct MacroTiming
{
    Tick total = 0;          ///< wall-clock duration on the channel
    Tick gbFill = 0;         ///< time in WRGB bursts
    Tick macStream = 0;      ///< time in MACAB bursts
    Tick rowOverhead = 0;    ///< ACTAB + RDMAC + ACTAF + PREAB time
    MicroBudget micro{};     ///< micro-command counts (energy model input)
};

/**
 * Stateless timing engine for PIM macro commands on a single channel.
 * All channels execute in lockstep (broadcast), so the system-level macro
 * latency equals the single-channel latency computed here.
 */
class PimChannelEngine
{
  public:
    PimChannelEngine(const dram::Gddr6Config &cfg,
                     const PimUnitParams &pu = PimUnitParams{});

    /** Timing of @p macro given its Fig-4 tiling. */
    MacroTiming gemvTiming(const GemvTiling &tiling, bool fused_gelu,
                           bool has_bias) const;

    /** Convenience: timing of a macro command over @p channel_count. */
    MacroTiming macroTiming(const MacroCommand &macro,
                            unsigned channel_count) const;

    /**
     * Effective compute throughput of a GEMV in GFLOPS across
     * @p channel_count channels (utilization reporting).
     */
    double effectiveGflops(const GemvTiling &tiling,
                           unsigned channel_count) const;

    const PimUnitParams &unitParams() const { return pu_; }
    const dram::Gddr6Config &config() const { return cfg_; }

  private:
    dram::Gddr6Config cfg_;
    PimUnitParams pu_;
};

} // namespace ianus::pim

#endif // IANUS_PIM_PIM_CHANNEL_HH
