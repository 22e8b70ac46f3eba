/**
 * @file
 * Fluid-flow bandwidth arbiter over the memory channels.
 *
 * Every off-chip transfer (weight DMA, KV-cache load/store, spill) is a
 * *flow* striped over a set of channels. Each channel's external bandwidth
 * (32 GB/s × efficiency) is split equally among the flows currently using
 * it; a flow's rate is the sum of its per-channel shares. Rates are
 * piecewise constant between membership changes, so the arbiter only
 * touches the event queue when a flow starts, finishes, or a PIM macro
 * command acquires/releases channels.
 *
 * PIM computation and normal accesses cannot share a channel (the paper's
 * unified-memory constraint): acquireExclusive() stalls every flow on the
 * affected channels until release. The command scheduler additionally
 * holds off-chip DMA commands while a PIM macro is in flight (Section
 * 4.3), so in practice stalls model mis-scheduled overlap rather than the
 * common case.
 */

#ifndef IANUS_DRAM_CHANNEL_ARBITER_HH
#define IANUS_DRAM_CHANNEL_ARBITER_HH

#include <cstdint>
#include <vector>

#include "dram/dram_params.hh"
#include "sim/event_queue.hh"

namespace ianus::dram
{

/** Bitmask of memory channels (bit i == channel i). */
using ChannelSet = std::uint32_t;

/** All channels of a Gddr6Config as a mask. */
ChannelSet allChannels(const Gddr6Config &cfg);

/** The two channels belonging to PIM chip @p chip. */
ChannelSet chipChannels(const Gddr6Config &cfg, unsigned chip);

/** Bandwidth-sharing arbiter; see file comment. */
class ChannelArbiter
{
  public:
    using FlowId = std::uint64_t;

    /**
     * @param eq          Event queue driving completions.
     * @param cfg         Memory geometry (per-channel peak bandwidth).
     * @param efficiency  Fraction of peak an open-page stream sustains
     *                    (refresh, bus turnaround, bank conflicts).
     */
    ChannelArbiter(sim::EventQueue &eq, const Gddr6Config &cfg,
                   double efficiency);

    /**
     * Begin a transfer of @p bytes striped over @p channels.
     * @param is_write     Write (store) vs read (load) — energy accounting.
     * @param on_complete  Fired from event context when the last byte moves.
     */
    FlowId startFlow(std::uint64_t bytes, ChannelSet channels, bool is_write,
                     sim::SmallFn on_complete);

    /** Forget every flow, reservation and byte count, as if newly
     *  constructed, keeping the storage. Call it once the event queue
     *  has dropped the arbiter's pending event (EventQueue::reset). */
    void reset();

    /** Stall all flows on @p channels (PIM macro command entry). */
    void acquireExclusive(ChannelSet channels);

    /** Re-enable normal traffic on @p channels. */
    void releaseExclusive(ChannelSet channels);

    /** True if any live flow touches @p channels. */
    bool anyFlowOn(ChannelSet channels) const;

    /** Live (unfinished) flow count. */
    std::size_t activeFlows() const { return flows_.size(); }

    /** Bytes completed through the arbiter. */
    std::uint64_t readBytes() const { return readBytes_; }
    std::uint64_t writeBytes() const { return writeBytes_; }

    /** Ticks during which at least one channel was exclusively held. */
    Tick exclusiveTicks() const;

    double efficiency() const { return efficiency_; }

  private:
    struct Flow
    {
        FlowId id;
        double bytesLeft;
        ChannelSet channels;
        bool isWrite;
        double rate = 0.0; ///< bytes per tick, current share
        sim::SmallFn onComplete;
    };

    sim::EventQueue &eq_;
    Gddr6Config cfg_;
    double efficiency_;
    double perChannelRate_; ///< bytes/tick after efficiency derating

    std::vector<Flow> flows_;      ///< live flows, in start order
    std::vector<sim::SmallFn> done_; ///< completions being fired
    std::vector<int> exclusive_;   ///< per-channel reservation depth
    Tick lastUpdate_ = 0;
    sim::EventId pendingEvent_ = 0;
    FlowId nextId_ = 1;
    std::uint64_t readBytes_ = 0;
    std::uint64_t writeBytes_ = 0;
    Tick exclusiveSince_ = 0;
    Tick exclusiveAccum_ = 0;
    unsigned exclusiveChannels_ = 0;

    void advanceTo(Tick now);
    void recomputeRates();
    void rescheduleCompletion();
    void completeFinished();
};

} // namespace ianus::dram

#endif // IANUS_DRAM_CHANNEL_ARBITER_HH
