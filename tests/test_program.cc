/** @file Program DAG: id assignment, dependency rules, validation. */

#include <gtest/gtest.h>

#include <algorithm>

#include "isa/program.hh"

namespace
{

using namespace ianus::isa;

Command
vuCmd(std::uint16_t core)
{
    Command c;
    c.core = core;
    c.unit = UnitKind::VectorUnit;
    c.payload = VuArgs{VuOpKind::Add, 16};
    return c;
}

TEST(Program, AssignsSequentialIds)
{
    Program p;
    EXPECT_EQ(p.add(vuCmd(0)), 0u);
    EXPECT_EQ(p.add(vuCmd(1)), 1u);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.at(1).core, 1u);
}

TEST(Program, ForwardDependencyPanics)
{
    Program p;
    EXPECT_DEATH(p.add(vuCmd(0), {5}), "forward dependency");
}

TEST(Program, SelfDependencyPanics)
{
    Program p;
    p.add(vuCmd(0));
    EXPECT_DEATH(p.add(vuCmd(0), {1}), "forward dependency");
}

TEST(Program, UnitHistogram)
{
    Program p;
    p.add(vuCmd(0));
    p.add(vuCmd(0));
    p.add(0, UnitKind::Sync, OpClass::Other, SyncArgs{}, {0, 1});
    auto h = p.unitHistogram();
    EXPECT_EQ(h[UnitKind::VectorUnit], 2u);
    EXPECT_EQ(h[UnitKind::Sync], 1u);
}

TEST(Program, ValidateRejectsEmptyPimMask)
{
    Program p;
    ianus::pim::MacroCommand m;
    m.rows = 4;
    m.cols = 4;
    m.channelMask = 0; // invalid
    p.add(0, UnitKind::Pim, OpClass::Other, PimArgs{m, 1}, {});
    EXPECT_DEATH(p.validate(), "empty channel mask");
}

TEST(Program, ClearDropsEverythingButTheStorage)
{
    Program p;
    std::uint32_t a = p.add(vuCmd(0));
    p.markBlockEnd(p.add(0, UnitKind::Sync, OpClass::Other, SyncArgs{},
                         {a}));
    const std::size_t capacity = p.commands().capacity();
    p.clear();
    EXPECT_TRUE(p.empty());
    EXPECT_TRUE(p.blockEnds().empty());
    EXPECT_EQ(p.commands().capacity(), capacity);
    // Ids, dependency ranges and block ends start over.
    EXPECT_EQ(p.add(vuCmd(1)), 0u);
    EXPECT_EQ(p.add(vuCmd(1), {0}), 1u);
    EXPECT_TRUE(std::ranges::equal(p.deps(p.at(1)),
                                   std::vector<std::uint32_t>{0}));
    EXPECT_TRUE(p.deps(p.at(0)).empty());
    p.markBlockEnd(p.add(0, UnitKind::Sync, OpClass::Other, SyncArgs{},
                         {1}));
    EXPECT_EQ(p.blockEnds(), (std::vector<std::uint32_t>{2}));
}

TEST(Program, ConvenienceAddWiresDeps)
{
    Program p;
    std::uint32_t a = p.add(0, UnitKind::VectorUnit, OpClass::Other,
                            VuArgs{VuOpKind::Add, 8}, {});
    std::uint32_t b = p.add(0, UnitKind::VectorUnit, OpClass::Other,
                            VuArgs{VuOpKind::Add, 8}, {a});
    EXPECT_TRUE(std::ranges::equal(p.deps(p.at(b)),
                                   std::vector<std::uint32_t>{a}));
    p.validate();
}

} // namespace
