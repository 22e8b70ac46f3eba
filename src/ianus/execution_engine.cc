#include "ianus/execution_engine.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hh"
#include "dram/channel_arbiter.hh"
#include "noc/noc.hh"
#include "npu/command_scheduler.hh"
#include "npu/dma_engine.hh"
#include "npu/matrix_unit.hh"
#include "npu/vector_unit.hh"
#include "pim/pim_channel.hh"
#include "sim/event_queue.hh"

namespace ianus
{

using isa::UnitKind;

namespace
{

/** Per-run simulation state; one instance per ExecutionEngine::run(). */
class RunContext
{
  public:
    RunContext(const SystemConfig &cfg, unsigned devices,
               const isa::Program &prog, std::vector<RunStats> *block_ends)
        : cfg_(cfg), devices_(devices), prog_(prog),
          arbiter_(eq_, cfg.mem, cfg.dmaEfficiency),
          sched_(prog, cfg.cores, cfg.sched), mu_(cfg.mu), vu_(cfg.vu),
          pimEngine_(cfg.mem, cfg.pimUnit), noc_(cfg.noc),
          dma_(noc_, cfg.mem),
          unitBusy_(cfg.cores),
          startTick_(prog.size(), 0), join_(prog.size()),
          blockEnds_(block_ends)
    {
    }

    RunStats
    execute()
    {
        pump();
        while (!sched_.allDone()) {
            if (!eq_.step()) {
                dumpDeadlock();
                IANUS_PANIC("execution deadlock: ",
                            sched_.completedCount(), "/", prog_.size(),
                            " commands completed");
            }
        }
        return snapshot();
    }

  private:
    const SystemConfig &cfg_;
    unsigned devices_;
    const isa::Program &prog_;
    sim::EventQueue eq_;
    dram::ChannelArbiter arbiter_;
    npu::CommandScheduler sched_;
    npu::MatrixUnit mu_;
    npu::VectorUnit vu_;
    pim::PimChannelEngine pimEngine_;
    noc::Noc noc_;
    npu::DmaEngine dma_;

    std::vector<std::array<bool, RunStats::numUnits>> unitBusy_;
    std::vector<Tick> startTick_;
    /** A weight-streamed GEMM finishes when both its compute and its
     *  weight flow have: halves still running, and the latest end. */
    struct Join
    {
        unsigned left = 0;
        Tick at = 0;
    };
    std::vector<Join> join_; ///< by command id
    std::vector<RunStats> *blockEnds_;
    std::size_t nextEnd_ = 0; ///< next entry of prog_.blockEnds()
    dram::ChannelSet pimBusyMask_ = 0;
    dram::ChannelSet pimWaitMask_ = 0;
    RunStats stats_;
    bool pumping_ = false;
    /** In-flight command count and span-open timestamp per OpClass. */
    std::array<unsigned, RunStats::numClasses> classActive_{};
    std::array<Tick, RunStats::numClasses> classSpanStart_{};
    Tick lastAttr_ = 0;

    static std::size_t
    idx(UnitKind unit)
    {
        return static_cast<std::size_t>(unit);
    }

    /** The statistics so far: wall time now, DRAM bytes moved so far. */
    RunStats
    snapshot() const
    {
        RunStats s = stats_;
        s.wallTicks = eq_.now();
        s.dramReadBytes += static_cast<double>(arbiter_.readBytes());
        s.dramWriteBytes += static_cast<double>(arbiter_.writeBytes());
        return s;
    }

    /** Whether (@p core, @p unit) has a ready command; one that has
     *  none cannot dispatch, so pump() skips it. */
    bool
    hasReady(std::uint16_t core, UnitKind unit) const
    {
        return sched_.readyUnits(core) & (1u << idx(unit));
    }

    /** Channels an off-chip command would touch; 0 for on-chip work. */
    static dram::ChannelSet
    offChipChannels(const isa::Command &cmd)
    {
        if (const auto *g = std::get_if<isa::MuGemmArgs>(&cmd.payload))
            return g->weightBytes > 0 ? g->weightChannels : 0;
        if (const auto *d = std::get_if<isa::DmaArgs>(&cmd.payload))
            return d->offChip ? d->channels : 0;
        return 0;
    }

    void
    pump()
    {
        if (pumping_)
            return; // completions re-enter; the outer loop re-scans
        pumping_ = true;
        bool progress = true;
        while (progress) {
            progress = false;
            // PIM pass first so DMA dispatch sees fresh wait masks.
            pimWaitMask_ = 0;
            for (std::uint16_t c = 0; c < cfg_.cores; ++c)
                if (hasReady(c, UnitKind::Pim))
                    progress |= tryDispatchPim(c);
            static constexpr UnitKind npu_units[] = {
                UnitKind::MatrixUnit, UnitKind::VectorUnit,
                UnitKind::DmaIn, UnitKind::DmaOut, UnitKind::Sync};
            for (std::uint16_t c = 0; c < cfg_.cores; ++c)
                for (UnitKind unit : npu_units)
                    if (hasReady(c, unit))
                        progress |= tryDispatch(c, unit);
        }
        pumping_ = false;
    }

    bool
    tryDispatchPim(std::uint16_t core)
    {
        if (unitBusy_[core][idx(UnitKind::Pim)])
            return false;
        auto ready = sched_.peekReady(core, UnitKind::Pim);
        if (!ready || !sched_.canIssue(core, UnitKind::Pim))
            return false;
        const isa::Command &cmd = prog_.at(*ready);
        const auto &args = std::get<isa::PimArgs>(cmd.payload);
        dram::ChannelSet mask = args.macro.channelMask;
        // Admission: channels idle of both PIM work and normal flows.
        if ((mask & pimBusyMask_) || arbiter_.anyFlowOn(mask)) {
            pimWaitMask_ |= mask; // hold new off-chip traffic out
            return false;
        }
        sched_.issue(*ready);
        unitBusy_[core][idx(UnitKind::Pim)] = true;
        startTick_[*ready] = eq_.now();
        openSpan(cmd.opClass);
        pimBusyMask_ |= mask;
        arbiter_.acquireExclusive(mask);

        unsigned channels = static_cast<unsigned>(std::popcount(mask));
        pim::MacroTiming mt = pimEngine_.macroTiming(args.macro, channels);
        double reps = static_cast<double>(args.repeats);
        stats_.pimMacros += reps;
        stats_.pimActivates += reps * static_cast<double>(mt.micro.actab) *
                               channels;
        stats_.pimGbBursts += reps * static_cast<double>(mt.micro.wrgb) *
                              channels;
        stats_.pimRdBursts += reps * static_cast<double>(mt.micro.rdmac) *
                              channels;
        stats_.pimWeightBytes +=
            reps * static_cast<double>(args.macro.rows) *
            static_cast<double>(args.macro.cols) * pim::elemBytes;

        Tick dur = cfg_.pcuDispatch + noc_.broadcast() +
                   args.repeats * mt.total + cfg_.cmdOverhead;
        std::uint32_t id = *ready;
        eq_.scheduleIn(dur, [this, id, mask] {
            pimBusyMask_ &= ~mask;
            arbiter_.releaseExclusive(mask);
            finish(id);
        });
        return true;
    }

    bool
    tryDispatch(std::uint16_t core, UnitKind unit)
    {
        if (unitBusy_[core][idx(unit)])
            return false;
        auto ready = sched_.peekReady(core, unit);
        if (!ready || !sched_.canIssue(core, unit))
            return false;
        const isa::Command &cmd = prog_.at(*ready);

        // PAS hold: off-chip traffic stays out of running/waiting PIM
        // channel sets.
        dram::ChannelSet touch = offChipChannels(cmd);
        if (touch & (pimBusyMask_ | pimWaitMask_))
            return false;

        // A GEMM with streamed weights drives the core's load DMA for
        // the whole stream — KV prefetches queue behind it (the paper's
        // "prefetching keys and values instead of the weight" point).
        const auto *gemm = std::get_if<isa::MuGemmArgs>(&cmd.payload);
        bool holds_dma = gemm && gemm->weightBytes > 0;
        if (holds_dma && unitBusy_[core][idx(UnitKind::DmaIn)])
            return false;

        sched_.issue(*ready);
        unitBusy_[core][idx(unit)] = true;
        if (holds_dma)
            unitBusy_[core][idx(UnitKind::DmaIn)] = true;
        startTick_[*ready] = eq_.now();
        openSpan(cmd.opClass);
        begin(cmd);
        return true;
    }

    /**
     * Exclusive-attribution priority: FC classes first (an instant under
     * an FC belongs to the FC even if attention work overlaps it), then
     * the attention pipeline, then vector work.
     */
    static std::size_t
    attributionRank(std::size_t cls)
    {
        using isa::OpClass;
        switch (static_cast<OpClass>(cls)) {
          case OpClass::FcQkv: return 0;
          case OpClass::FfnAdd: return 1;
          case OpClass::FcAttnAdd: return 2;
          case OpClass::LmHead: return 3;
          case OpClass::Embedding: return 4;
          case OpClass::SelfAttention: return 5;
          case OpClass::LayerNorm: return 6;
          case OpClass::Other: return 7;
        }
        return 7;
    }

    void
    attributeElapsed()
    {
        Tick now = eq_.now();
        if (now > lastAttr_) {
            std::size_t best = RunStats::numClasses;
            std::size_t best_rank = ~std::size_t{0};
            for (std::size_t i = 0; i < RunStats::numClasses; ++i) {
                if (classActive_[i] && attributionRank(i) < best_rank) {
                    best_rank = attributionRank(i);
                    best = i;
                }
            }
            if (best < RunStats::numClasses)
                stats_.classExclusive[best] +=
                    static_cast<double>(now - lastAttr_);
        }
        lastAttr_ = now;
    }

    void
    openSpan(isa::OpClass cls)
    {
        attributeElapsed();
        auto i = static_cast<std::size_t>(cls);
        if (classActive_[i]++ == 0)
            classSpanStart_[i] = eq_.now();
    }

    void
    closeSpan(isa::OpClass cls)
    {
        attributeElapsed();
        auto i = static_cast<std::size_t>(cls);
        IANUS_ASSERT(classActive_[i] > 0, "span underflow");
        if (--classActive_[i] == 0)
            stats_.classSpan[i] += static_cast<double>(
                eq_.now() - classSpanStart_[i]);
    }

    void
    begin(const isa::Command &cmd)
    {
        const std::uint32_t id = cmd.id;
        const Tick ov = cfg_.cmdOverhead;
        if (const auto *g = std::get_if<isa::MuGemmArgs>(&cmd.payload)) {
            stats_.muFlops += 2.0 * static_cast<double>(g->tokens) *
                              static_cast<double>(g->k) *
                              static_cast<double>(g->n);
            Tick compute =
                mu_.gemmTicks(g->tokens, g->k, g->n) + ov;
            if (g->weightBytes == 0) {
                eq_.scheduleIn(compute, [this, id] { finish(id); });
                return;
            }
            // Weight stream pipelined with compute: done when both the
            // flow and the compute are, plus one tile of pipeline fill.
            compute += mu_.tileFillTicks();
            join_[id] = Join{2, 0};
            eq_.scheduleIn(compute, [this, id] { joinPart(id, eq_.now()); });
            Tick fixed = dma_.loadStartLatency();
            std::uint16_t core = cmd.core;
            arbiter_.startFlow(g->weightBytes, g->weightChannels, false,
                               [this, id, fixed, core] {
                                   // Weight stream drained: the load DMA
                                   // engine frees up for queued loads.
                                   unitBusy_[core][idx(UnitKind::DmaIn)] =
                                       false;
                                   joinPart(id, eq_.now() + fixed);
                                   pump();
                               });
            return;
        }
        if (const auto *v = std::get_if<isa::VuArgs>(&cmd.payload)) {
            stats_.vuElems += static_cast<double>(v->elems);
            Tick dur = vu_.opTicks(v->op, v->elems) + ov;
            eq_.scheduleIn(dur, [this, id] { finish(id); });
            return;
        }
        if (const auto *d = std::get_if<isa::DmaArgs>(&cmd.payload)) {
            if (!d->offChip) {
                Tick dur = dma_.onChipStreamTicks(d->bytes) + ov;
                eq_.scheduleIn(dur, [this, id] { finish(id); });
                return;
            }
            Tick fixed = (d->isWrite ? dma_.storeStartLatency()
                                     : dma_.loadStartLatency()) +
                         ov;
            arbiter_.startFlow(d->bytes, d->channels, d->isWrite,
                               [this, id, fixed] {
                                   eq_.scheduleIn(fixed, [this, id] {
                                       finish(id);
                                   });
                               });
            return;
        }
        if (const auto *s = std::get_if<isa::SyncArgs>(&cmd.payload)) {
            Tick dur = ov + noc_.barrier();
            if (devices_ > 1 && s->interDeviceBytes > 0)
                dur += allReduceTicks(s->interDeviceBytes);
            eq_.scheduleIn(dur, [this, id] { finish(id); });
            return;
        }
        IANUS_PANIC("unhandled payload in command ", cmd.id);
    }

    /** One half of weight-streamed GEMM @p id ends at @p at; the
     *  second schedules its finish. */
    void
    joinPart(std::uint32_t id, Tick at)
    {
        Join &j = join_[id];
        j.at = std::max(j.at, at);
        if (--j.left == 0)
            eq_.schedule(std::max(j.at, eq_.now()),
                         [this, id] { finish(id); });
    }

    /** Ring allgather/allreduce over PCIe (Section 7.1). */
    Tick
    allReduceTicks(std::uint64_t bytes) const
    {
        std::uint64_t steps = 2ull * (devices_ - 1);
        double chunk = static_cast<double>(bytes) /
                       static_cast<double>(devices_);
        Tick per_step =
            static_cast<Tick>(chunk / cfg_.pcie.bytesPerTick) +
            cfg_.pcie.latency;
        return steps * per_step;
    }

    void
    finish(std::uint32_t id)
    {
        const isa::Command &cmd = prog_.at(id);
        Tick dur = eq_.now() - startTick_[id];
        stats_.busy(cmd.opClass) += static_cast<double>(dur);
        stats_.busy(cmd.unit) += static_cast<double>(dur);
        stats_.commands += 1.0;
        closeSpan(cmd.opClass);
        unitBusy_[cmd.core][idx(cmd.unit)] = false;
        sched_.complete(id);
        // A block's closing barrier completes on a drained machine, and
        // the next block waits on it: snapshot before that dispatches.
        const auto &ends = prog_.blockEnds();
        if (blockEnds_ && nextEnd_ < ends.size() && ends[nextEnd_] == id) {
            IANUS_ASSERT(eq_.empty(), "block ", nextEnd_,
                         " ends with work in flight");
            blockEnds_->push_back(snapshot());
            ++nextEnd_;
        }
        pump();
    }

    void
    dumpDeadlock() const
    {
        for (std::uint16_t c = 0; c < cfg_.cores; ++c) {
            for (std::size_t u = 0; u < RunStats::numUnits; ++u) {
                auto ready = sched_.peekReady(
                    c, static_cast<UnitKind>(u));
                if (ready)
                    IANUS_WARN("stuck ready: ",
                               prog_.at(*ready).describe());
            }
        }
    }
};

} // namespace

ExecutionEngine::ExecutionEngine(const SystemConfig &cfg, unsigned devices)
    : cfg_(cfg), devices_(devices)
{
    cfg_.validate();
    IANUS_ASSERT(devices_ >= 1, "need at least one device");
}

RunStats
ExecutionEngine::run(const isa::Program &prog,
                     std::vector<RunStats> *block_ends)
{
    prog.validate();
    RunContext ctx(cfg_, devices_, prog, block_ends);
    return ctx.execute();
}

} // namespace ianus
