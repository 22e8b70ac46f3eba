/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded event queue keyed by (tick, phase, insertion order).
 * All timing models in the library are driven from one EventQueue owned by
 * the system under simulation; insertion order ties guarantee determinism.
 */

#ifndef IANUS_SIM_EVENT_QUEUE_HH
#define IANUS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace ianus::sim
{

/** Opaque handle identifying a scheduled event (for cancellation); never
 *  0, so 0 can stand for "no event". */
using EventId = std::uint64_t;

/**
 * Move-only type-erased callable with inline storage.
 *
 * Event callbacks are small capture-by-reference lambdas plus a few scalar
 * indices; std::function heap-allocates many of them, and at millions of
 * events that allocation churn dominates the drain. Captures up to
 * `sboBytes` live inside the queue entry itself; larger callables fall
 * back to a single heap allocation.
 */
class SmallFn
{
  public:
    static constexpr std::size_t sboBytes = 48;

    SmallFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn>>>
    SmallFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= sboBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            call_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
            relocate_ = [](void *src, void *dst) {
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            };
        } else {
            heap_ = new Fn(std::forward<F>(f));
            call_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { delete static_cast<Fn *>(p); };
        }
    }

    SmallFn(SmallFn &&o) noexcept { moveFrom(o); }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const { return call_ != nullptr; }

    void
    operator()()
    {
        call_(heap_ ? heap_ : static_cast<void *>(buf_));
    }

  private:
    alignas(std::max_align_t) unsigned char buf_[sboBytes];
    void *heap_ = nullptr;
    void (*call_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    void (*relocate_)(void *src, void *dst) = nullptr;

    void
    reset()
    {
        if (call_)
            destroy_(heap_ ? heap_ : static_cast<void *>(buf_));
        heap_ = nullptr;
        call_ = nullptr;
        destroy_ = nullptr;
        relocate_ = nullptr;
    }

    void
    moveFrom(SmallFn &o) noexcept
    {
        call_ = o.call_;
        destroy_ = o.destroy_;
        relocate_ = o.relocate_;
        if (o.heap_) {
            heap_ = o.heap_;
            o.heap_ = nullptr;
        } else if (o.call_) {
            o.relocate_(o.buf_, buf_);
        }
        o.call_ = nullptr;
        o.destroy_ = nullptr;
        o.relocate_ = nullptr;
    }
};

/**
 * Deterministic single-threaded event queue.
 *
 * Events at the same tick fire in (phase, scheduling order): all phase-0
 * ("early") events before all phase-1 (normal) events, and within a phase
 * in scheduling order. Callbacks may schedule further events (including at
 * the current tick, which fire before time advances).
 *
 * The early phase exists so producers that used to pre-schedule a long
 * series of events up front (lowest ids -> first at tied ticks) can
 * instead schedule each one lazily from its predecessor's callback without
 * changing same-tick ordering against normally-scheduled events.
 *
 * The heap orders small (when, phase, sequence, slot) keys; the callables
 * stay put in a slot vector whose free slots are reused, so scheduling
 * allocates only when the pending set outgrows every earlier one (or a
 * callable outgrows SmallFn's inline buffer).
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn at absolute time @p when (>= now()).
     * @return an id usable with deschedule().
     */
    EventId schedule(Tick when, SmallFn fn);

    /** Schedule @p fn @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, SmallFn fn)
    {
        return push(now_ + delay, 1, std::move(fn));
    }

    /**
     * Schedule @p fn at @p when in the early phase: it fires before every
     * normally-scheduled event at the same tick, regardless of insertion
     * order.
     */
    EventId scheduleEarly(Tick when, SmallFn fn);

    /**
     * Cancel a pending event and destroy its callable. Returns false if
     * it already fired or was cancelled.
     */
    bool deschedule(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return liveEvents_; }

    /**
     * Run until the queue drains or @p limit is reached.
     * @return the final simulated time.
     */
    Tick run(Tick limit = maxTick);

    /** Pop and execute exactly one event. Returns false if drained. */
    bool step();

    /** Drop every pending event and rewind to tick 0, as if newly
     *  constructed, keeping the storage. */
    void reset();

    /** Total events executed since construction or reset(). */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Heap key: the firing order, and where the callable waits. */
    struct Key
    {
        Tick when;
        std::uint64_t seq; ///< scheduling order, unique
        std::uint32_t slot;
        std::uint8_t phase;

        bool
        operator>(const Key &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (phase != o.phase)
                return phase > o.phase;
            return seq > o.seq;
        }
    };
    static_assert(sizeof(Key) == 24, "heap keys stay small to sift");

    /**
     * A pending callable. seq names the event that holds the slot (0:
     * free), so a key whose event was cancelled, and whose slot may
     * since hold another event, no longer matches it. gen counts the
     * slot's uses and tells a stale EventId from the current one.
     */
    struct Slot
    {
        SmallFn fn;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
    };

    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> queue_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

    EventId push(Tick when, std::uint8_t phase, SmallFn &&fn);
    /** Pop cancelled keys off the top; false when none is live. */
    bool skipCancelled();
    void release(std::uint32_t slot);
};

} // namespace ianus::sim

#endif // IANUS_SIM_EVENT_QUEUE_HH
