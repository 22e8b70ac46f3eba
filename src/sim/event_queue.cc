#include "sim/event_queue.hh"

#include <limits>

#include "common/logging.hh"

namespace ianus::sim
{

EventId
EventQueue::push(Tick when, std::uint8_t phase, SmallFn &&fn)
{
    IANUS_ASSERT(when >= now_, "event scheduled in the past: ", when,
                 " < ", now_);
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        IANUS_ASSERT(slots_.size() <
                         std::numeric_limits<std::uint32_t>::max(),
                     "too many pending events");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Slot &s = slots_[slot];
    const std::uint64_t seq = nextSeq_++;
    s.fn = std::move(fn);
    s.seq = seq;
    if (++s.gen == 0) // keep every EventId non-zero
        s.gen = 1;
    queue_.push(Key{when, seq, slot, phase});
    ++liveEvents_;
    return (EventId{s.gen} << 32) | slot;
}

EventId
EventQueue::schedule(Tick when, SmallFn fn)
{
    return push(when, 1, std::move(fn));
}

EventId
EventQueue::scheduleEarly(Tick when, SmallFn fn)
{
    return push(when, 0, std::move(fn));
}

void
EventQueue::release(std::uint32_t slot)
{
    slots_[slot].seq = 0;
    freeSlots_.push_back(slot);
}

bool
EventQueue::deschedule(EventId id)
{
    // The key stays in the heap until it surfaces; it no longer matches
    // its slot, so skipCancelled() drops it then.
    const auto slot = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (s.seq == 0 || s.gen != static_cast<std::uint32_t>(id >> 32))
        return false;
    s.fn = SmallFn{};
    release(slot);
    --liveEvents_;
    return true;
}

bool
EventQueue::skipCancelled()
{
    while (!queue_.empty()) {
        const Key &top = queue_.top();
        if (slots_[top.slot].seq == top.seq)
            return true;
        queue_.pop();
    }
    return false;
}

bool
EventQueue::step()
{
    if (!skipCancelled())
        return false;
    const Key top = queue_.top();
    queue_.pop();
    IANUS_ASSERT(top.when >= now_, "time went backwards");
    now_ = top.when;
    // Move the callable out first: it may schedule events, which can
    // reuse its slot or grow the slot vector.
    SmallFn fn = std::move(slots_[top.slot].fn);
    release(top.slot);
    --liveEvents_;
    ++executed_;
    fn();
    return true;
}

void
EventQueue::reset()
{
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
        if (slots_[slot].seq != 0) {
            slots_[slot].fn = SmallFn{};
            release(slot);
        }
    }
    while (!queue_.empty())
        queue_.pop();
    now_ = 0;
    nextSeq_ = 1;
    liveEvents_ = 0;
    executed_ = 0;
}

Tick
EventQueue::run(Tick limit)
{
    while (skipCancelled() && queue_.top().when <= limit)
        step();
    return now_;
}

} // namespace ianus::sim
