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

/** The device model and the state of the run in progress. Every
 *  buffer is sized by reset() and kept for the next run. */
class ExecutionEngine::Machine
{
  public:
    Machine(const SystemConfig &cfg, unsigned devices)
        : cfg_(cfg), devices_(devices),
          arbiter_(eq_, cfg_.mem, cfg_.dmaEfficiency),
          sched_(cfg_.cores, cfg_.sched), mu_(cfg_.mu), vu_(cfg_.vu),
          pimEngine_(cfg_.mem, cfg_.pimUnit), noc_(cfg_.noc),
          dma_(noc_, cfg_.mem), busy_(cfg_.cores)
    {
    }

    RunStats
    run(const isa::Program &prog, std::vector<RunStats> *block_ends)
    {
        reset(prog, block_ends);
        pump();
        while (!sched_.allDone()) {
            if (!eq_.step()) {
                dumpDeadlock();
                IANUS_PANIC("execution deadlock: ",
                            sched_.completedCount(), "/", prog.size(),
                            " commands completed");
            }
        }
        return snapshot();
    }

  private:
    /** The channels a command waits on: a PIM command's macro channels,
     *  or the channels an off-chip NPU command touches (0 for on-chip
     *  work); and whether it is a GEMM that streams its weights, which
     *  drives the core's load DMA for the whole stream. */
    struct Gate
    {
        dram::ChannelSet channels = 0;
        bool streamsWeights = false;
    };

    static constexpr std::uint8_t pimBit =
        1u << static_cast<unsigned>(UnitKind::Pim);
    static constexpr std::uint8_t dmaInBit =
        1u << static_cast<unsigned>(UnitKind::DmaIn);

    const SystemConfig cfg_;
    const unsigned devices_;
    sim::EventQueue eq_;
    dram::ChannelArbiter arbiter_;
    npu::CommandScheduler sched_;
    npu::MatrixUnit mu_;
    npu::VectorUnit vu_;
    pim::PimChannelEngine pimEngine_;
    noc::Noc noc_;
    npu::DmaEngine dma_;

    /** The program running. Program::add numbers commands in order
     *  and lets them depend only on earlier ones, so every id the
     *  scheduler hands out indexes commands_. */
    const isa::Program *prog_ = nullptr;
    const isa::Command *commands_ = nullptr;
    /** Per core, the units running a command (bit i == UnitKind i); a
     *  weight-streaming GEMM also holds its core's DmaIn. */
    std::vector<std::uint8_t> busy_;
    std::vector<Gate> gate_;      ///< by command id
    std::vector<Tick> startTick_; ///< by command id, set at dispatch
    /** A weight-streamed GEMM finishes when both its compute and its
     *  weight flow have: halves still running, and the latest end. */
    struct Join
    {
        unsigned left = 0;
        Tick at = 0;
    };
    std::vector<Join> join_; ///< by command id, set at dispatch
    std::vector<RunStats> *blockEnds_ = nullptr;
    std::size_t nextEnd_ = 0; ///< next entry of prog_->blockEnds()
    dram::ChannelSet pimBusyMask_ = 0;
    dram::ChannelSet pimWaitMask_ = 0;
    RunStats stats_;
    bool pumping_ = false;
    /** In-flight command count and span-open timestamp per OpClass. */
    std::array<unsigned, RunStats::numClasses> classActive_{};
    std::array<Tick, RunStats::numClasses> classSpanStart_{};
    /** The classes in flight, one bit per attribution rank (byRank). */
    std::uint8_t activeRanks_ = 0;
    Tick lastAttr_ = 0;

    static std::size_t
    idx(UnitKind unit)
    {
        return static_cast<std::size_t>(unit);
    }

    /** Start over on @p prog at tick 0. */
    void
    reset(const isa::Program &prog, std::vector<RunStats> *block_ends)
    {
        prog_ = &prog;
        commands_ = prog.commands().data();
        blockEnds_ = block_ends;
        nextEnd_ = 0;
        eq_.reset();
        arbiter_.reset();
        sched_.reset(prog);
        std::fill(busy_.begin(), busy_.end(), 0);
        const std::size_t n = prog.size();
        gate_.resize(n);
        for (std::size_t id = 0; id < n; ++id)
            gate_[id] = gateOf(commands_[id]);
        startTick_.resize(n);
        join_.resize(n);
        pimBusyMask_ = 0;
        pimWaitMask_ = 0;
        pumping_ = false;
        stats_ = RunStats{};
        classActive_ = {};
        classSpanStart_ = {};
        activeRanks_ = 0;
        lastAttr_ = 0;
    }

    /** @p cmd's Gate; panics on a PIM command that names no channel,
     *  the one payload rule the engine relies on that Program::add
     *  does not check. */
    static Gate
    gateOf(const isa::Command &cmd)
    {
        if (cmd.unit == UnitKind::Pim) {
            const auto *pim = std::get_if<isa::PimArgs>(&cmd.payload);
            IANUS_ASSERT(pim, "PIM command without PimArgs");
            IANUS_ASSERT(pim->macro.channelMask != 0,
                         "PIM command with empty channel mask");
            return {pim->macro.channelMask, false};
        }
        if (const auto *g = std::get_if<isa::MuGemmArgs>(&cmd.payload))
            return g->weightBytes > 0 ? Gate{g->weightChannels, true}
                                      : Gate{};
        if (const auto *d = std::get_if<isa::DmaArgs>(&cmd.payload))
            return {d->offChip ? d->channels : 0, false};
        return {};
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

    /**
     * Dispatch what can start now, in one pass: the PIM unit of every
     * core, so that the NPU units see fresh wait masks, then each
     * core's NPU units in UnitKind order. Only ready, idle units are
     * visited. A second pass would start nothing: a dispatch completes
     * no command (every completion is an event), so it readies no
     * command and frees no unit, and the masks that hold a command
     * back only grow during a pass.
     */
    void
    pump()
    {
        pumping_ = true;
        pimWaitMask_ = 0;
        for (std::uint16_t c = 0; c < cfg_.cores; ++c)
            if (sched_.readyUnits(c) & ~busy_[c] & pimBit)
                tryDispatchPim(c);
        for (std::uint16_t c = 0; c < cfg_.cores; ++c) {
            std::uint8_t todo = sched_.readyUnits(c) & ~busy_[c] & ~pimBit;
            while (todo) {
                const auto unit =
                    static_cast<UnitKind>(std::countr_zero(todo));
                todo &= todo - 1;
                if (tryDispatch(c, unit))
                    todo &= ~busy_[c]; // a GEMM may have taken DmaIn
            }
        }
        pumping_ = false;
    }

    void
    tryDispatchPim(std::uint16_t core)
    {
        const std::uint32_t id = sched_.readyHead(core, UnitKind::Pim);
        const dram::ChannelSet mask = gate_[id].channels;
        // Admission: channels idle of both PIM work and normal flows.
        if ((mask & pimBusyMask_) || arbiter_.anyFlowOn(mask)) {
            pimWaitMask_ |= mask; // hold new off-chip traffic out
            return;
        }
        const isa::Command &cmd = commands_[id];
        const auto &args = std::get<isa::PimArgs>(cmd.payload);
        sched_.issue(id);
        busy_[core] |= pimBit;
        startTick_[id] = eq_.now();
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
        eq_.scheduleIn(dur, [this, id, mask] {
            pimBusyMask_ &= ~mask;
            arbiter_.releaseExclusive(mask);
            finish(id);
        });
    }

    /** Dispatch the ready head of idle NPU unit (@p core, @p unit);
     *  returns whether it started. A unit runs one command at a time,
     *  so an idle unit has a free issue slot. */
    bool
    tryDispatch(std::uint16_t core, UnitKind unit)
    {
        const std::uint32_t id = sched_.readyHead(core, unit);
        const Gate gate = gate_[id];
        // PAS hold: off-chip traffic stays out of running/waiting PIM
        // channel sets.
        if (gate.channels & (pimBusyMask_ | pimWaitMask_))
            return false;
        // A GEMM with streamed weights drives the core's load DMA for
        // the whole stream — KV prefetches queue behind it (the paper's
        // "prefetching keys and values instead of the weight" point).
        if (gate.streamsWeights && (busy_[core] & dmaInBit))
            return false;

        const isa::Command &cmd = commands_[id];
        sched_.issue(id);
        busy_[core] |= static_cast<std::uint8_t>(1u << idx(unit));
        if (gate.streamsWeights)
            busy_[core] |= dmaInBit;
        startTick_[id] = eq_.now();
        openSpan(cmd.opClass);
        begin(cmd);
        return true;
    }

    /**
     * Exclusive-attribution priority, best first: FC classes (an
     * instant under an FC belongs to the FC even if attention work
     * overlaps it), then the attention pipeline, then vector work.
     */
    static constexpr std::array<isa::OpClass, RunStats::numClasses>
        byRank = {isa::OpClass::FcQkv,     isa::OpClass::FfnAdd,
                  isa::OpClass::FcAttnAdd, isa::OpClass::LmHead,
                  isa::OpClass::Embedding, isa::OpClass::SelfAttention,
                  isa::OpClass::LayerNorm, isa::OpClass::Other};

    /** Each class's bit in activeRanks_, by OpClass: one bit per
     *  place in byRank. */
    static constexpr std::array<std::uint8_t, RunStats::numClasses>
        rankBit = [] {
            std::array<std::uint8_t, RunStats::numClasses> bits{};
            for (std::size_t r = 0; r < byRank.size(); ++r)
                bits[static_cast<std::size_t>(byRank[r])] =
                    static_cast<std::uint8_t>(1u << r);
            return bits;
        }();
    static_assert(std::ranges::find(rankBit, 0) == rankBit.end(),
                  "byRank ranks every OpClass once");

    /** Give the time since the last span change to the best-ranked
     *  class in flight. */
    void
    attributeElapsed()
    {
        Tick now = eq_.now();
        if (now > lastAttr_ && activeRanks_) {
            auto best = byRank[std::countr_zero(activeRanks_)];
            stats_.classExclusive[static_cast<std::size_t>(best)] +=
                static_cast<double>(now - lastAttr_);
        }
        lastAttr_ = now;
    }

    void
    openSpan(isa::OpClass cls)
    {
        attributeElapsed();
        auto i = static_cast<std::size_t>(cls);
        if (classActive_[i]++ == 0) {
            classSpanStart_[i] = eq_.now();
            activeRanks_ |= rankBit[i];
        }
    }

    void
    closeSpan(isa::OpClass cls)
    {
        attributeElapsed();
        auto i = static_cast<std::size_t>(cls);
        IANUS_ASSERT(classActive_[i] > 0, "span underflow");
        if (--classActive_[i] == 0) {
            stats_.classSpan[i] += static_cast<double>(
                eq_.now() - classSpanStart_[i]);
            activeRanks_ &= static_cast<std::uint8_t>(~rankBit[i]);
        }
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
                                   busy_[core] &= ~dmaInBit;
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
        IANUS_ASSERT(!pumping_, "command ", id, " finished inside pump()");
        const isa::Command &cmd = commands_[id];
        Tick dur = eq_.now() - startTick_[id];
        stats_.busy(cmd.opClass) += static_cast<double>(dur);
        stats_.busy(cmd.unit) += static_cast<double>(dur);
        stats_.commands += 1.0;
        closeSpan(cmd.opClass);
        busy_[cmd.core] &= static_cast<std::uint8_t>(~(1u << idx(cmd.unit)));
        sched_.complete(id);
        // A block's closing barrier completes on a drained machine, and
        // the next block waits on it: snapshot before that dispatches.
        const auto &ends = prog_->blockEnds();
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
                               commands_[*ready].describe());
            }
        }
    }
};

ExecutionEngine::ExecutionEngine(const SystemConfig &cfg, unsigned devices)
{
    cfg.validate();
    IANUS_ASSERT(devices >= 1, "need at least one device");
    machine_ = std::make_unique<Machine>(cfg, devices);
}

ExecutionEngine::~ExecutionEngine() = default;

RunStats
ExecutionEngine::run(const isa::Program &prog,
                     std::vector<RunStats> *block_ends)
{
    return machine_->run(prog, block_ends);
}

} // namespace ianus
