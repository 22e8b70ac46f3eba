#include "dram/channel_arbiter.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace ianus::dram
{

namespace
{

constexpr double kBytesEpsilon = 1e-6;
constexpr unsigned kMaxChannels = 32; ///< bits of a ChannelSet

} // namespace

ChannelSet
allChannels(const Gddr6Config &cfg)
{
    return cfg.channels >= 32 ? ~0u : ((1u << cfg.channels) - 1u);
}

ChannelSet
chipChannels(const Gddr6Config &cfg, unsigned chip)
{
    IANUS_ASSERT(chip < cfg.chips(), "chip index out of range");
    ChannelSet mask = 0;
    for (unsigned c = 0; c < cfg.channelsPerChip; ++c)
        mask |= 1u << (chip * cfg.channelsPerChip + c);
    return mask;
}

ChannelArbiter::ChannelArbiter(sim::EventQueue &eq, const Gddr6Config &cfg,
                               double efficiency)
    : eq_(eq), cfg_(cfg), efficiency_(efficiency)
{
    IANUS_ASSERT(efficiency > 0.0 && efficiency <= 1.0,
                 "efficiency must be in (0, 1]");
    IANUS_ASSERT(cfg.channels <= kMaxChannels,
                 "a channel set holds at most ", kMaxChannels, " channels");
    perChannelRate_ = cfg.channelPeakBytesPerTick() * efficiency;
    exclusive_.assign(cfg.channels, 0);
}

void
ChannelArbiter::advanceTo(Tick now)
{
    IANUS_ASSERT(now >= lastUpdate_, "arbiter time went backwards");
    double dt = static_cast<double>(now - lastUpdate_);
    if (dt > 0.0) {
        for (Flow &f : flows_)
            f.bytesLeft = std::max(0.0, f.bytesLeft - f.rate * dt);
    }
    lastUpdate_ = now;
}

void
ChannelArbiter::recomputeRates()
{
    // Per-channel share: capacity / flows on it; zero when exclusively
    // reserved by a PIM macro command. A flow's rate sums its shares in
    // channel order.
    std::array<unsigned, kMaxChannels> flows_on{};
    for (const Flow &f : flows_)
        for (ChannelSet m = f.channels; m; m &= m - 1)
            ++flows_on[std::countr_zero(m)];
    std::array<double, kMaxChannels> share{};
    for (unsigned ch = 0; ch < cfg_.channels; ++ch)
        if (exclusive_[ch] == 0 && flows_on[ch] > 0)
            share[ch] = perChannelRate_ / static_cast<double>(flows_on[ch]);
    for (Flow &f : flows_) {
        f.rate = 0.0;
        for (ChannelSet m = f.channels; m; m &= m - 1)
            f.rate += share[std::countr_zero(m)];
    }
}

void
ChannelArbiter::rescheduleCompletion()
{
    if (pendingEvent_ != 0) {
        eq_.deschedule(pendingEvent_);
        pendingEvent_ = 0;
    }
    double earliest = -1.0;
    for (const Flow &f : flows_) {
        if (f.rate <= 0.0)
            continue;
        double eta = f.bytesLeft / f.rate;
        if (earliest < 0.0 || eta < earliest)
            earliest = eta;
    }
    if (earliest < 0.0)
        return; // all flows stalled (or none live)
    Tick when = eq_.now() + static_cast<Tick>(std::ceil(earliest));
    pendingEvent_ = eq_.schedule(when, [this] {
        pendingEvent_ = 0;
        advanceTo(eq_.now());
        completeFinished();
        recomputeRates();
        rescheduleCompletion();
    });
}

void
ChannelArbiter::completeFinished()
{
    // Compact the live flows in place and take the finished ones'
    // callbacks out in start order. They fire once flows_ is
    // consistent again, since a callback may start a new flow.
    IANUS_ASSERT(done_.empty(), "re-entrant flow completion");
    std::size_t live = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (flows_[i].bytesLeft <= kBytesEpsilon)
            done_.push_back(std::move(flows_[i].onComplete));
        else if (live++ != i)
            flows_[live - 1] = std::move(flows_[i]);
    }
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(live),
                 flows_.end());
    for (sim::SmallFn &cb : done_)
        if (cb)
            cb();
    done_.clear();
}

ChannelArbiter::FlowId
ChannelArbiter::startFlow(std::uint64_t bytes, ChannelSet channels,
                          bool is_write, sim::SmallFn on_complete)
{
    IANUS_ASSERT((channels & allChannels(cfg_)) == channels,
                 "flow uses channels outside the memory system");
    IANUS_ASSERT(channels != 0, "flow must use at least one channel");

    if (is_write)
        writeBytes_ += bytes;
    else
        readBytes_ += bytes;

    advanceTo(eq_.now());
    FlowId id = nextId_++;
    if (bytes == 0) {
        // Degenerate transfer: complete on the next event boundary so the
        // callback still runs from event context.
        eq_.scheduleIn(0, std::move(on_complete));
        return id;
    }
    flows_.push_back(Flow{id, static_cast<double>(bytes), channels,
                          is_write, 0.0, std::move(on_complete)});
    recomputeRates();
    rescheduleCompletion();
    return id;
}

void
ChannelArbiter::reset()
{
    flows_.clear();
    std::fill(exclusive_.begin(), exclusive_.end(), 0);
    lastUpdate_ = 0;
    pendingEvent_ = 0;
    nextId_ = 1;
    readBytes_ = 0;
    writeBytes_ = 0;
    exclusiveSince_ = 0;
    exclusiveAccum_ = 0;
    exclusiveChannels_ = 0;
}

void
ChannelArbiter::acquireExclusive(ChannelSet channels)
{
    advanceTo(eq_.now());
    bool was_idle = exclusiveChannels_ == 0;
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        if (channels & (1u << ch)) {
            if (exclusive_[ch]++ == 0)
                ++exclusiveChannels_;
        }
    }
    if (was_idle && exclusiveChannels_ > 0)
        exclusiveSince_ = eq_.now();
    // The shares change only on channels that carry a flow.
    if (anyFlowOn(channels))
        recomputeRates();
    rescheduleCompletion();
}

void
ChannelArbiter::releaseExclusive(ChannelSet channels)
{
    advanceTo(eq_.now());
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        if (channels & (1u << ch)) {
            IANUS_ASSERT(exclusive_[ch] > 0,
                         "release of non-reserved channel ", ch);
            if (--exclusive_[ch] == 0)
                --exclusiveChannels_;
        }
    }
    if (exclusiveChannels_ == 0 && exclusiveSince_ <= eq_.now())
        exclusiveAccum_ += eq_.now() - exclusiveSince_;
    if (anyFlowOn(channels))
        recomputeRates();
    rescheduleCompletion();
}

bool
ChannelArbiter::anyFlowOn(ChannelSet channels) const
{
    for (const Flow &f : flows_)
        if (f.channels & channels)
            return true;
    return false;
}

Tick
ChannelArbiter::exclusiveTicks() const
{
    Tick t = exclusiveAccum_;
    if (exclusiveChannels_ > 0)
        t += eq_.now() - exclusiveSince_;
    return t;
}

} // namespace ianus::dram
