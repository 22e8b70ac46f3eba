/**
 * @file Command scheduler: dependency resolution, queue bounds, and a
 * random-DAG property: random issue/complete interleavings drain, and
 * every ready FIFO head matches a deque-based reference model.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <iterator>
#include <optional>
#include <random>
#include <vector>

#include "npu/command_scheduler.hh"

namespace
{

using namespace ianus::isa;
using ianus::npu::CommandScheduler;
using ianus::npu::SchedulerConfig;

Command
vuCmd(std::uint16_t core)
{
    Command c;
    c.core = core;
    c.unit = UnitKind::VectorUnit;
    c.payload = VuArgs{VuOpKind::Add, 1};
    return c;
}

TEST(CommandScheduler, ReadyOnlyAfterDepsComplete)
{
    Program p;
    std::uint32_t a = p.add(vuCmd(0));
    std::uint32_t b = p.add(vuCmd(0), {a});
    CommandScheduler s(p, 1);

    auto head = s.peekReady(0, UnitKind::VectorUnit);
    ASSERT_TRUE(head);
    EXPECT_EQ(*head, a);
    s.issue(a);
    // b is still blocked.
    EXPECT_FALSE(s.peekReady(0, UnitKind::VectorUnit));
    s.complete(a);
    head = s.peekReady(0, UnitKind::VectorUnit);
    ASSERT_TRUE(head);
    EXPECT_EQ(*head, b);
    s.issue(b);
    s.complete(b);
    EXPECT_TRUE(s.allDone());
}

TEST(CommandScheduler, CrossCoreDependencies)
{
    Program p;
    std::uint32_t a = p.add(vuCmd(0));
    std::uint32_t b = p.add(vuCmd(1), {a}); // core 1 waits on core 0
    CommandScheduler s(p, 2);
    EXPECT_FALSE(s.peekReady(1, UnitKind::VectorUnit));
    s.issue(a);
    s.complete(a);
    auto head = s.peekReady(1, UnitKind::VectorUnit);
    ASSERT_TRUE(head);
    EXPECT_EQ(*head, b);
}

TEST(CommandScheduler, IssueQueueBound)
{
    Program p;
    for (int i = 0; i < 6; ++i)
        p.add(vuCmd(0));
    SchedulerConfig cfg;
    cfg.issueSlots = 4;
    CommandScheduler s(p, 1, cfg);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(s.canIssue(0, UnitKind::VectorUnit));
        s.issue(*s.peekReady(0, UnitKind::VectorUnit));
    }
    EXPECT_FALSE(s.canIssue(0, UnitKind::VectorUnit));
    EXPECT_EQ(s.issuedOn(0, UnitKind::VectorUnit), 4u);
    s.complete(0);
    EXPECT_TRUE(s.canIssue(0, UnitKind::VectorUnit));
}

TEST(CommandScheduler, PendingWindowLimitsVisibility)
{
    // With a 2-slot window only the first two commands are fetched; the
    // third becomes visible as completions free slots.
    Program p;
    p.add(vuCmd(0));
    p.add(vuCmd(0));
    p.add(vuCmd(0));
    SchedulerConfig cfg;
    cfg.pendingSlots = 2;
    CommandScheduler s(p, 1, cfg);
    s.issue(0);
    s.issue(1);
    EXPECT_FALSE(s.peekReady(0, UnitKind::VectorUnit)); // 2 not fetched
    s.complete(0);
    auto head = s.peekReady(0, UnitKind::VectorUnit);
    ASSERT_TRUE(head);
    EXPECT_EQ(*head, 2u);
}

TEST(CommandScheduler, OutOfOrderIssuePanics)
{
    Program p;
    p.add(vuCmd(0));
    p.add(vuCmd(0));
    CommandScheduler s(p, 1);
    EXPECT_DEATH(s.issue(1), "out-of-order");
}

TEST(CommandScheduler, CompleteWithoutIssuePanics)
{
    Program p;
    p.add(vuCmd(0));
    CommandScheduler s(p, 1);
    EXPECT_DEATH(s.complete(0), "non-issued");
}

/**
 * The scheduler's FIFO contract, kept the plain way: each core fetches
 * its commands in program order into a window of pendingSlots, a
 * fetched command whose dependencies have completed joins its unit's
 * deque, and a completion readies its dependents in id order before
 * its core fetches more.
 */
class ReferenceScheduler
{
  public:
    ReferenceScheduler(const Program &p, unsigned cores,
                       const SchedulerConfig &cfg)
        : p_(p), window_(cfg.pendingSlots), depsLeft_(p.size()),
          fetched_(p.size(), false), order_(cores), cursor_(cores, 0),
          inWindow_(cores, 0), ready_(cores)
    {
        for (const Command &c : p.commands()) {
            depsLeft_[c.id] = c.depCount;
            order_[c.core].push_back(c.id);
        }
        for (std::uint16_t core = 0; core < cores; ++core)
            fetch(core);
    }

    std::optional<std::uint32_t>
    head(std::uint16_t core, UnitKind unit) const
    {
        const auto &q = ready_[core][static_cast<std::size_t>(unit)];
        if (q.empty())
            return std::nullopt;
        return q.front();
    }

    std::uint8_t
    mask(std::uint16_t core) const
    {
        std::uint8_t m = 0;
        for (std::size_t u = 0; u < kUnits; ++u)
            if (!ready_[core][u].empty())
                m |= static_cast<std::uint8_t>(1u << u);
        return m;
    }

    void
    issue(std::uint32_t id)
    {
        const Command &c = p_.at(id);
        ready_[c.core][static_cast<std::size_t>(c.unit)].pop_front();
    }

    void
    complete(std::uint32_t id)
    {
        const std::uint16_t core = p_.at(id).core;
        --inWindow_[core];
        for (std::uint32_t j = id + 1; j < p_.size(); ++j)
            for (std::uint32_t d : p_.deps(p_.at(j)))
                if (d == id && --depsLeft_[j] == 0 && fetched_[j])
                    push(j);
        fetch(core);
    }

  private:
    static constexpr std::size_t kUnits = 6;

    const Program &p_;
    unsigned window_;
    std::vector<unsigned> depsLeft_;
    std::vector<bool> fetched_;
    std::vector<std::vector<std::uint32_t>> order_;
    std::vector<std::size_t> cursor_;
    std::vector<unsigned> inWindow_;
    std::vector<std::array<std::deque<std::uint32_t>, kUnits>> ready_;

    void
    push(std::uint32_t id)
    {
        const Command &c = p_.at(id);
        ready_[c.core][static_cast<std::size_t>(c.unit)].push_back(id);
    }

    void
    fetch(std::uint16_t core)
    {
        while (cursor_[core] < order_[core].size() &&
               inWindow_[core] < window_) {
            const std::uint32_t id = order_[core][cursor_[core]++];
            ++inWindow_[core];
            fetched_[id] = true;
            if (depsLeft_[id] == 0)
                push(id);
        }
    }
};

/**
 * Property: random DAGs always drain under random issue/complete
 * interleavings, with up to issueSlots commands in flight per unit:
 * no deadlock, every command completes exactly once, dependencies are
 * never violated, and every ready head and ready-unit mask matches the
 * reference after every step.
 */
class RandomDagLiveness : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomDagLiveness, DrainsCompletely)
{
    std::mt19937 rng(GetParam());
    const unsigned cores = 1 + rng() % 4;
    const int n = 200;
    SchedulerConfig cfg;
    cfg.issueSlots = 1 + rng() % 4;
    cfg.pendingSlots = 2 + rng() % 40;

    Program p;
    static const UnitKind units[] = {
        UnitKind::MatrixUnit, UnitKind::VectorUnit, UnitKind::DmaIn,
        UnitKind::DmaOut,     UnitKind::Pim,        UnitKind::Sync};
    for (int i = 0; i < n; ++i) {
        Command c;
        c.core = static_cast<std::uint16_t>(rng() % cores);
        c.unit = units[rng() % std::size(units)];
        c.payload = VuArgs{VuOpKind::Add, 1};
        // Up to 3 random backward deps.
        std::vector<std::uint32_t> deps;
        if (i > 0) {
            int ndeps = static_cast<int>(rng() % 4);
            for (int d = 0; d < ndeps; ++d)
                deps.push_back(rng() % i);
        }
        p.add(std::move(c), deps);
    }

    CommandScheduler s(p, cores, cfg);
    ReferenceScheduler ref(p, cores, cfg);
    std::vector<bool> done(n, false);
    std::vector<std::uint32_t> in_flight;
    auto matchesReference = [&] {
        for (std::uint16_t c = 0; c < cores; ++c) {
            ASSERT_EQ(s.readyUnits(c), ref.mask(c)) << "core " << c;
            for (UnitKind u : units)
                ASSERT_EQ(s.peekReady(c, u), ref.head(c, u))
                    << "core " << c << " unit " << toString(u);
        }
    };
    matchesReference();
    int completed = 0;
    while (!testing::Test::HasFatalFailure()) {
        // Every (core, unit) whose head can issue, then one random
        // move: issue one of those heads or complete one in flight.
        std::vector<std::uint32_t> issuable;
        for (std::uint16_t c = 0; c < cores; ++c)
            for (UnitKind u : units)
                if (auto head = s.peekReady(c, u);
                    head && s.canIssue(c, u))
                    issuable.push_back(*head);
        const std::size_t moves = issuable.size() + in_flight.size();
        if (moves == 0)
            break;
        const std::size_t pick = rng() % moves;
        if (pick < issuable.size()) {
            const std::uint32_t id = issuable[pick];
            for (std::uint32_t dep : p.deps(p.at(id)))
                EXPECT_TRUE(done[dep]) << "dep violation";
            s.issue(id);
            ref.issue(id);
            in_flight.push_back(id);
        } else {
            const std::size_t k = pick - issuable.size();
            const std::uint32_t id = in_flight[k];
            in_flight.erase(in_flight.begin() +
                            static_cast<std::ptrdiff_t>(k));
            s.complete(id);
            ref.complete(id);
            EXPECT_FALSE(done[id]) << "double completion";
            done[id] = true;
            ++completed;
        }
        for (std::uint16_t c = 0; c < cores; ++c)
            for (UnitKind u : units)
                EXPECT_LE(s.issuedOn(c, u), cfg.issueSlots);
        matchesReference();
    }
    EXPECT_TRUE(s.allDone()) << "deadlock after " << completed << "/" << n;
    EXPECT_EQ(completed, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagLiveness,
                         ::testing::Range(100u, 112u));

} // namespace
