/**
 * @file
 * Network-on-chip model (Section 4.3).
 *
 * The IANUS NoC is all-to-all between the NPU cores and the PIM memory
 * controllers; it carries normal memory traffic, PIM commands from the
 * PIM control unit (with broadcast to all PIM MCs), and core-to-core
 * streams (the scratchpad-to-scratchpad transpose path).
 *
 * Bandwidth on the memory path is dominated by the DRAM channels and is
 * arbitrated by dram::ChannelArbiter; the NoC contributes a fixed
 * traversal latency per transfer plus the bandwidth of the on-chip
 * streaming path. Broadcast lets one WRGB train feed every channel's
 * global buffer simultaneously — the PIM engine's lockstep-channel timing
 * relies on this.
 */

#ifndef IANUS_NOC_NOC_HH
#define IANUS_NOC_NOC_HH

#include <cstdint>

#include "common/types.hh"

namespace ianus::noc
{

/** NoC latency/bandwidth parameters. */
struct NocParams
{
    Tick hopLatency = 50 * tickPerNs;     ///< core <-> MC traversal
    Tick broadcastLatency = 60 * tickPerNs; ///< PCU -> all PIM MCs
    /**
     * On-chip streaming path between the two scratchpad DMAs (the
     * transpose path of Section 4.2.1) and for core-to-core activation
     * gathers, bytes per tick. 256 B/cycle at 700 MHz = 179 GB/s per
     * core.
     */
    double onChipBytesPerTick = 256.0 / 1428.57;
    Tick syncLatency = 200 * tickPerNs;   ///< core barrier round trip

    bool operator==(const NocParams &) const = default;
};

/** All-to-all crossbar; pure timing helper. */
class Noc
{
  public:
    explicit Noc(const NocParams &p = NocParams{}) : params_(p) {}

    /** Latency added to one off-chip transfer (request + response). */
    Tick memoryTraversal() const { return params_.hopLatency; }

    /** Latency of broadcasting one macro command to all PIM MCs. */
    Tick broadcast() const { return params_.broadcastLatency; }

    /** Duration of an on-chip scratchpad-to-scratchpad stream. */
    Tick
    onChipStream(std::uint64_t bytes) const
    {
        double t = static_cast<double>(bytes) / params_.onChipBytesPerTick;
        return params_.hopLatency + static_cast<Tick>(t + 0.5);
    }

    /** Cost of one all-core barrier (Fig 6 sync points). */
    Tick barrier() const { return params_.syncLatency; }

    const NocParams &params() const { return params_; }

  private:
    NocParams params_;
};

} // namespace ianus::noc

#endif // IANUS_NOC_NOC_HH
