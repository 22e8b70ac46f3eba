/**
 * @file Execution engine: dispatch rules, PIM/DMA mutual exclusion,
 * overlap semantics, stats attribution.
 */

#include <gtest/gtest.h>

#include "ianus/execution_engine.hh"

namespace
{

using namespace ianus;
using namespace ianus::isa;

struct EngineFixture : ::testing::Test
{
    SystemConfig cfg = SystemConfig::ianusDefault();

    Command
    vu(std::uint16_t core, std::uint64_t elems)
    {
        Command c;
        c.core = core;
        c.unit = UnitKind::VectorUnit;
        c.opClass = OpClass::LayerNorm;
        c.payload = VuArgs{VuOpKind::LayerNorm, elems};
        return c;
    }

    Command
    load(std::uint16_t core, std::uint64_t bytes, dram::ChannelSet ch)
    {
        Command c;
        c.core = core;
        c.unit = UnitKind::DmaIn;
        c.opClass = OpClass::Other;
        DmaArgs d;
        d.bytes = bytes;
        d.channels = ch;
        c.payload = d;
        return c;
    }

    Command
    pimGemv(std::uint16_t core, std::uint64_t rows, std::uint64_t cols,
            dram::ChannelSet mask)
    {
        Command c;
        c.core = core;
        c.unit = UnitKind::Pim;
        c.opClass = OpClass::FfnAdd;
        pim::MacroCommand m;
        m.rows = rows;
        m.cols = cols;
        m.channelMask = mask;
        c.payload = PimArgs{m, 1};
        return c;
    }
};

TEST_F(EngineFixture, EmptyDependenciesRunInParallelAcrossUnits)
{
    // A VU op and a DMA on the same core overlap: wall time ~ max.
    Program p;
    p.add(vu(0, 64000));
    p.add(load(0, 1 << 20, 0xFF));
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    double vu_busy = s.busy(UnitKind::VectorUnit);
    double dma_busy = s.busy(UnitKind::DmaIn);
    EXPECT_LT(static_cast<double>(s.wallTicks),
              0.95 * (vu_busy + dma_busy));
}

TEST_F(EngineFixture, DependentCommandsSerialize)
{
    Program p;
    std::uint32_t a = p.add(vu(0, 64000));
    p.add(vu(0, 64000), {a});
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    EXPECT_NEAR(static_cast<double>(s.wallTicks),
                s.busy(UnitKind::VectorUnit), 1000.0);
}

TEST_F(EngineFixture, SameUnitCommandsSerializeWithoutDeps)
{
    Program p;
    p.add(vu(0, 64000));
    p.add(vu(0, 64000));
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    EXPECT_GE(static_cast<double>(s.wallTicks),
              0.99 * s.busy(UnitKind::VectorUnit));
}

TEST_F(EngineFixture, CoresRunIndependently)
{
    Program p;
    for (std::uint16_t c = 0; c < 4; ++c)
        p.add(vu(c, 640000));
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    // Four cores in parallel: wall ~ a quarter of the busy sum.
    EXPECT_LT(static_cast<double>(s.wallTicks),
              0.35 * s.busy(UnitKind::VectorUnit));
}

TEST_F(EngineFixture, PimExcludesDmaOnSameChannels)
{
    // A PIM macro on chip 0 and a DMA over all channels cannot overlap:
    // total >= sum of solo times.
    Program pim_only;
    pim_only.add(pimGemv(0, 4096, 1024, 0x03));
    Program dma_only;
    dma_only.add(load(0, 8 << 20, 0xFF));
    ExecutionEngine engine(cfg);
    Tick pim_t = engine.run(pim_only).wallTicks;
    Tick dma_t = engine.run(dma_only).wallTicks;

    Program both;
    both.add(pimGemv(0, 4096, 1024, 0x03));
    both.add(load(1, 8 << 20, 0xFF));
    Tick both_t = engine.run(both).wallTicks;
    EXPECT_GT(both_t, pim_t);
    EXPECT_GT(both_t, static_cast<Tick>(0.9 * (pim_t + dma_t)));
}

TEST_F(EngineFixture, PimAndDmaOverlapOnDisjointChannels)
{
    Program both;
    both.add(pimGemv(0, 4096, 1024, 0x03)); // chip 0
    both.add(load(1, 8 << 20, 0xC0));       // chip 3's channels
    ExecutionEngine engine(cfg);
    Tick both_t = engine.run(both).wallTicks;

    Program pim_only;
    pim_only.add(pimGemv(0, 4096, 1024, 0x03));
    Program dma_only;
    dma_only.add(load(1, 8 << 20, 0xC0));
    Tick pim_t = engine.run(pim_only).wallTicks;
    Tick dma_t = engine.run(dma_only).wallTicks;
    EXPECT_LT(both_t, pim_t + dma_t);
    EXPECT_GE(both_t, std::max(pim_t, dma_t));
}

TEST_F(EngineFixture, ParallelPimMacrosOnDistinctChips)
{
    Program p;
    for (std::uint16_t c = 0; c < 4; ++c)
        p.add(pimGemv(c, 4096, 1024, cfg.pimChipMaskForCore(c)));
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    // Lockstep macros on four chips run concurrently.
    EXPECT_LT(static_cast<double>(s.wallTicks),
              0.35 * s.busy(UnitKind::Pim));
}

TEST_F(EngineFixture, SameChipPimMacrosSerialize)
{
    Program p;
    p.add(pimGemv(0, 4096, 1024, 0x03));
    p.add(pimGemv(1, 4096, 1024, 0x03)); // same chip from another core
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    EXPECT_GE(static_cast<double>(s.wallTicks),
              0.99 * s.busy(UnitKind::Pim));
}

TEST_F(EngineFixture, PimRepeatsScaleDuration)
{
    Program once;
    once.add(pimGemv(0, 1024, 1024, 0x03));
    Program eight;
    {
        Command c = pimGemv(0, 1024, 1024, 0x03);
        std::get<PimArgs>(c.payload).repeats = 8;
        eight.add(std::move(c));
    }
    ExecutionEngine engine(cfg);
    Tick t1 = engine.run(once).wallTicks;
    Tick t8 = engine.run(eight).wallTicks;
    EXPECT_GT(t8, 7 * (t1 - cfg.pcuDispatch));
}

TEST_F(EngineFixture, MuWeightStreamingPipelinesWithCompute)
{
    // An FC with streamed weights: wall ~ max(load, compute), not sum.
    Program p;
    Command c;
    c.core = 0;
    c.unit = UnitKind::MatrixUnit;
    c.opClass = OpClass::FfnAdd;
    MuGemmArgs g;
    g.tokens = 512;
    g.k = 1536;
    g.n = 1536;
    g.weightBytes = g.k * g.n * 2;
    g.weightChannels = 0xFF;
    c.payload = g;
    p.add(std::move(c));
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    npu::MatrixUnit mu(cfg.mu);
    Tick compute = mu.gemmTicks(512, 1536, 1536);
    double load_ms = (1536.0 * 1536 * 2) / (256e9 * 0.9) * 1e3;
    Tick load = static_cast<Tick>(load_ms * tickPerMs);
    EXPECT_LT(s.wallTicks, compute + load);
    EXPECT_GE(s.wallTicks, std::max(compute, load));
}

TEST_F(EngineFixture, BarriersGateAllCores)
{
    Program p;
    std::vector<std::uint32_t> firsts;
    for (std::uint16_t c = 0; c < 4; ++c)
        firsts.push_back(p.add(vu(c, 64000 * (c + 1))));
    p.add(0, UnitKind::Sync, OpClass::Other, SyncArgs{}, firsts);
    std::uint32_t sync_id = static_cast<std::uint32_t>(p.size() - 1);
    p.add(vu(0, 64), {sync_id});
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    // Wall >= the slowest pre-barrier VU op + barrier + tail op.
    npu::VectorUnit vu_model(cfg.vu);
    Tick slowest = vu_model.opTicks(VuOpKind::LayerNorm, 64000 * 4);
    EXPECT_GE(s.wallTicks, slowest + cfg.noc.syncLatency);
}

TEST_F(EngineFixture, BlockEndsSnapshotTheStatsSoFar)
{
    // Two blocks: a load, then a VU op, each closed by a barrier.
    Program p;
    std::uint32_t a = p.add(load(0, 1 << 20, 0xFF));
    std::uint32_t end0 =
        p.add(0, UnitKind::Sync, OpClass::Other, SyncArgs{}, {a});
    p.markBlockEnd(end0);
    std::uint32_t b = p.add(vu(1, 64000), {end0});
    p.markBlockEnd(
        p.add(0, UnitKind::Sync, OpClass::Other, SyncArgs{}, {b}));
    p.add(vu(2, 64), {p.blockEnds().back()});

    ExecutionEngine engine(cfg);
    std::vector<RunStats> ends;
    RunStats s = engine.run(p, &ends);
    ASSERT_EQ(ends.size(), 2u);
    EXPECT_EQ(ends[0].commands, 2.0);
    EXPECT_EQ(ends[0].dramReadBytes, static_cast<double>(1 << 20));
    EXPECT_EQ(ends[1].commands, 4.0);
    EXPECT_EQ(ends[1].dramReadBytes, static_cast<double>(1 << 20));
    EXPECT_EQ(ends[0].busy(UnitKind::VectorUnit), 0.0);
    EXPECT_GT(ends[1].busy(UnitKind::VectorUnit), 0.0);
    EXPECT_LT(ends[1].busy(UnitKind::VectorUnit),
              s.busy(UnitKind::VectorUnit));
    EXPECT_LT(ends[0].wallTicks, ends[1].wallTicks);
    EXPECT_LT(ends[1].wallTicks, s.wallTicks);
    // Taking snapshots does not change the run.
    RunStats plain = engine.run(p);
    EXPECT_EQ(plain.wallTicks, s.wallTicks);
    EXPECT_EQ(plain.commands, s.commands);
}

TEST_F(EngineFixture, BlockEndWithWorkInFlightPanics)
{
    // The barrier does not wait for the load, so it completes first.
    Program p;
    p.add(load(0, 1 << 20, 0xFF));
    p.markBlockEnd(p.add(0, UnitKind::Sync, OpClass::Other, SyncArgs{}, {}));
    ExecutionEngine engine(cfg);
    EXPECT_EQ(engine.run(p).commands, 2.0);
    std::vector<RunStats> ends;
    EXPECT_DEATH(engine.run(p, &ends), "work in flight");
}

TEST_F(EngineFixture, InterDeviceBarrierAddsPcieTime)
{
    Program p;
    SyncArgs args;
    args.interDeviceBytes = 1 << 20;
    p.add(0, UnitKind::Sync, OpClass::Other, args, {});

    ExecutionEngine one(cfg, 1);
    ExecutionEngine four(cfg, 4);
    Tick t1 = one.run(p).wallTicks;
    Tick t4 = four.run(p).wallTicks;
    EXPECT_GT(t4, t1 + 6 * cfg.pcie.latency);
}

TEST_F(EngineFixture, StatsAttributeBusyTimeByClass)
{
    Program p;
    p.add(vu(0, 64000)); // LayerNorm class
    Command c = load(1, 1 << 20, 0xFF);
    c.opClass = OpClass::SelfAttention;
    p.add(std::move(c));
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    EXPECT_GT(s.busy(OpClass::LayerNorm), 0.0);
    EXPECT_GT(s.busy(OpClass::SelfAttention), 0.0);
    EXPECT_EQ(s.busy(OpClass::FfnAdd), 0.0);
    EXPECT_EQ(s.commands, 2.0);
    EXPECT_EQ(s.dramReadBytes, static_cast<double>(1 << 20));
}

TEST_F(EngineFixture, EmptyProgramCompletesAtTickZero)
{
    Program p;
    ExecutionEngine engine(cfg);
    RunStats s = engine.run(p);
    EXPECT_EQ(s.wallTicks, 0u);
    EXPECT_EQ(s.commands, 0.0);
}

} // namespace
