/** @file Event queue: ordering, determinism, cancellation, reentrancy. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

namespace
{

using ianus::sim::EventId;
using ianus::sim::EventQueue;
using ianus::sim::SmallFn;
using ianus::Tick;

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, SameTickReentrantScheduleFiresBeforeAdvance)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(10, [&] {
        times.push_back(eq.now());
        eq.scheduleIn(0, [&] { times.push_back(eq.now()); });
    });
    eq.schedule(20, [&] { times.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{10, 10, 20}));
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue eq;
    bool fired = false;
    auto id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id)); // double-cancel is a no-op
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunUntilLimitStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduled in the past");
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executed(), 2u);
}

// scheduleEarly wins every same-tick tie against schedule, no matter
// which was enqueued first — that is its whole contract (the serving
// drain uses it so a lazily scheduled arrival burst lands before the
// completion handlers of the same tick pump the scheduler).
TEST(EventQueue, EarlyPhaseFiresBeforeNormalAtSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.scheduleEarly(100, [&] { order.push_back(-1); });
    eq.schedule(100, [&] { order.push_back(2); });
    eq.scheduleEarly(100, [&] { order.push_back(-2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, -2, 1, 2}));
}

TEST(EventQueue, EarlyPhaseKeepsInsertionOrderWithinTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eq.scheduleEarly(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EarlyPhaseDoesNotJumpTicks)
{
    // Phase only breaks ties *within* a tick: a normal event at an
    // earlier tick still precedes an early event at a later one.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleEarly(20, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EarlyEventsCanBeDescheduled)
{
    EventQueue eq;
    int fired = 0;
    auto id = eq.scheduleEarly(5, [&] { ++fired; });
    eq.schedule(5, [&] { ++fired; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_EQ(fired, 1);
}

// A capture bigger than the inline buffer forces SmallFn onto its heap
// fallback; the callable must still move through the queue intact.
TEST(EventQueue, LargeCapturesSurviveHeapFallback)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    eq.schedule(1, [payload, &sum] {
        for (std::uint64_t v : payload)
            sum += v;
    });
    eq.run();
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < payload.size(); ++i)
        expect += i * 3 + 1;
    EXPECT_EQ(sum, expect);
}

/**
 * Drives an EventQueue with a seeded random mix of operations and
 * keeps the reference: every pending event's (when, phase, scheduling
 * order). Each callable holds a copy of one shared_ptr, so its use
 * count is 1 + the callables still alive.
 */
class RandomMix
{
  public:
    explicit RandomMix(unsigned seed) : rng_(seed) {}

    /** One top-level operation, then the invariants. */
    void
    operate()
    {
        switch (rng_() % 8) {
          case 0:
          case 1:
          case 2: add(); break;
          case 3: cancelOne(); break;
          case 4: cancelFired(); break;
          default: eq_.step(); break;
        }
        checkCounts();
    }

    void
    drain()
    {
        eq_.run();
        checkCounts();
        EXPECT_TRUE(pending_.empty());
        EXPECT_TRUE(eq_.empty());
    }

    std::uint64_t fired() const { return fired_.size(); }
    std::uint64_t cancelled() const { return cancelled_; }

  private:
    /** A callable of a chosen size: the padding puts it on either side
     *  of SmallFn's inline buffer. */
    template <std::size_t Pad>
    struct Probe
    {
        std::shared_ptr<int> token;
        RandomMix *mix;
        std::uint64_t seq;
        std::array<unsigned char, Pad> pad{};

        void operator()() const { mix->fire(seq); }
    };
    static_assert(sizeof(Probe<1>) <= SmallFn::sboBytes);
    static_assert(sizeof(Probe<64>) > SmallFn::sboBytes);

    struct Pending
    {
        Tick when;
        int phase; ///< 0 early, 1 normal
        std::uint64_t seq;
        EventId id;
    };

    std::mt19937 rng_;
    EventQueue eq_;
    std::shared_ptr<int> token_ = std::make_shared<int>(0);
    std::vector<Pending> pending_;
    std::vector<EventId> fired_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t cancelled_ = 0;

    /** Schedule one event at now + [0, 7], in a random phase, with a
     *  small or a large capture. */
    void
    add()
    {
        const Tick when = eq_.now() + rng_() % 8;
        const bool early = rng_() % 3 == 0;
        const std::uint64_t seq = nextSeq_++;
        SmallFn fn;
        if (rng_() % 2)
            fn = Probe<1>{token_, this, seq};
        else
            fn = Probe<64>{token_, this, seq};
        const EventId id = early ? eq_.scheduleEarly(when, std::move(fn))
                                 : eq_.schedule(when, std::move(fn));
        EXPECT_NE(id, 0u);
        pending_.push_back({when, early ? 0 : 1, seq, id});
    }

    void
    cancelOne()
    {
        if (pending_.empty())
            return;
        auto it = pending_.begin() +
                  static_cast<std::ptrdiff_t>(rng_() % pending_.size());
        const EventId id = it->id;
        pending_.erase(it);
        EXPECT_TRUE(eq_.deschedule(id));
        EXPECT_FALSE(eq_.deschedule(id));
        ++cancelled_;
    }

    /** A fired event's id is stale: cancelling it changes nothing,
     *  even if its slot now holds another event. */
    void
    cancelFired()
    {
        if (fired_.empty())
            return;
        EXPECT_FALSE(eq_.deschedule(fired_[rng_() % fired_.size()]));
    }

    void
    fire(std::uint64_t seq)
    {
        auto first = std::min_element(
            pending_.begin(), pending_.end(),
            [](const Pending &a, const Pending &b) {
                return std::tie(a.when, a.phase, a.seq) <
                       std::tie(b.when, b.phase, b.seq);
            });
        ASSERT_NE(first, pending_.end()) << "event " << seq;
        ASSERT_EQ(first->seq, seq) << "fired out of (when, phase, id) order";
        EXPECT_EQ(eq_.now(), first->when);
        fired_.push_back(first->id);
        pending_.erase(first);
        // The firing callable is alive until it returns.
        EXPECT_EQ(token_.use_count(),
                  static_cast<long>(2 + pending_.size()));
        // Re-entrant work: same-tick and later events, and a cancel.
        for (unsigned n = rng_() % 3; n > 0; --n)
            add();
        if (rng_() % 4 == 0)
            cancelOne();
    }

    void
    checkCounts()
    {
        EXPECT_EQ(eq_.pending(), pending_.size());
        EXPECT_EQ(token_.use_count(),
                  static_cast<long>(1 + pending_.size()));
    }
};

// A seeded random mix of schedule, scheduleEarly, deschedule (of live
// and of already-fired ids) and re-entrant scheduling from callbacks,
// with captures inside and beyond SmallFn's inline buffer. Every event
// fires in (when, phase, scheduling order), and every callable, fired
// or cancelled, is destroyed once: a freed slot keeps no capture alive.
TEST(EventQueue, RandomMixFiresInOrderAndDestroysEachCallableOnce)
{
    for (unsigned seed : {1u, 2u, 3u, 7919u}) {
        SCOPED_TRACE(seed);
        RandomMix mix(seed);
        for (int op = 0; op < 4000; ++op)
            mix.operate();
        mix.drain();
        EXPECT_GT(mix.fired(), 1000u);
        EXPECT_GT(mix.cancelled(), 100u);
    }
}

} // namespace
