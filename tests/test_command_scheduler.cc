/**
 * @file Command scheduler: dependency resolution, queue bounds, and a
 * random-DAG liveness property.
 */

#include <gtest/gtest.h>

#include <random>

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
 * Property: random DAGs always drain — no deadlock, every command
 * completes exactly once, dependencies never violated.
 */
class RandomDagLiveness : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomDagLiveness, DrainsCompletely)
{
    std::mt19937 rng(GetParam());
    const unsigned cores = 1 + rng() % 4;
    const int n = 200;

    Program p;
    std::uniform_int_distribution<int> unit_pick(0, 4);
    for (int i = 0; i < n; ++i) {
        Command c;
        c.core = static_cast<std::uint16_t>(rng() % cores);
        static const UnitKind units[] = {
            UnitKind::MatrixUnit, UnitKind::VectorUnit, UnitKind::DmaIn,
            UnitKind::DmaOut, UnitKind::Sync};
        c.unit = units[unit_pick(rng)];
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

    CommandScheduler s(p, cores);
    std::vector<bool> done(n, false);
    int completed = 0;
    // Greedy executor: repeatedly issue+complete any ready command.
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::uint16_t c = 0; c < cores; ++c) {
            for (UnitKind u : {UnitKind::MatrixUnit, UnitKind::VectorUnit,
                               UnitKind::DmaIn, UnitKind::DmaOut,
                               UnitKind::Pim, UnitKind::Sync}) {
                auto head = s.peekReady(c, u);
                if (!head || !s.canIssue(c, u))
                    continue;
                for (std::uint32_t dep : p.deps(p.at(*head)))
                    EXPECT_TRUE(done[dep]) << "dep violation";
                s.issue(*head);
                s.complete(*head);
                EXPECT_FALSE(done[*head]) << "double completion";
                done[*head] = true;
                ++completed;
                progress = true;
            }
        }
    }
    EXPECT_TRUE(s.allDone()) << "deadlock after " << completed << "/" << n;
    EXPECT_EQ(completed, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagLiveness,
                         ::testing::Range(100u, 112u));

} // namespace
