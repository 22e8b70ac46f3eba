#include "npu/command_scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ianus::npu
{

static_assert(CommandScheduler::unitKinds <= 8,
              "readyMask_ holds one bit per unit kind");

CommandScheduler::CommandScheduler(unsigned cores,
                                   const SchedulerConfig &cfg)
    : cores_(cores), cfg_(cfg), fetchCursor_(cores), orderEnd_(cores),
      windowOccupancy_(cores), head_(cores * unitKinds),
      tail_(cores * unitKinds), readyMask_(cores),
      issuedCount_(cores * unitKinds)
{
    IANUS_ASSERT(cores_ > 0, "scheduler needs at least one core");
}

CommandScheduler::CommandScheduler(const isa::Program &prog, unsigned cores,
                                   const SchedulerConfig &cfg)
    : CommandScheduler(cores, cfg)
{
    reset(prog);
}

void
CommandScheduler::reset(const isa::Program &prog)
{
    program_ = &prog;
    const std::size_t n = prog.size();
    state_.assign(n, State::Unfetched);
    depsLeft_.resize(n);
    depStart_.assign(n + 1, 0);
    // Count each core's commands in orderEnd_ and each slot's in tail_.
    std::fill(orderEnd_.begin(), orderEnd_.end(), 0);
    std::fill(tail_.begin(), tail_.end(), 0);
    for (const isa::Command &c : prog.commands()) {
        IANUS_ASSERT(c.core < cores_, "command ", c.id, " targets core ",
                     c.core, " but system has ", cores_);
        depsLeft_[c.id] = c.depCount;
        for (std::uint32_t d : prog.deps(c))
            ++depStart_[d + 1];
        ++orderEnd_[c.core];
        ++tail_[slot(c.core, c.unit)];
    }
    for (std::size_t i = 0; i < n; ++i)
        depStart_[i + 1] += depStart_[i];

    // Lay the cores' fetch orders end to end, then fill them and the
    // dependents in one more pass.
    order_.resize(n);
    std::uint32_t base = 0;
    for (unsigned core = 0; core < cores_; ++core) {
        const std::uint32_t count = orderEnd_[core];
        fetchCursor_[core] = orderEnd_[core] = base;
        base += count;
    }
    dependents_.resize(depStart_[n]);
    fill_.assign(depStart_.begin(), depStart_.end() - 1);
    for (const isa::Command &c : prog.commands()) {
        order_[orderEnd_[c.core]++] = c.id;
        for (std::uint32_t d : prog.deps(c))
            dependents_[fill_[d]++] = c.id;
    }

    // The ready FIFOs, end to end.
    fifo_.resize(n);
    base = 0;
    for (std::size_t k = 0; k < tail_.size(); ++k) {
        const std::uint32_t count = tail_[k];
        head_[k] = tail_[k] = base;
        base += count;
    }

    std::fill(windowOccupancy_.begin(), windowOccupancy_.end(), 0);
    std::fill(readyMask_.begin(), readyMask_.end(), 0);
    std::fill(issuedCount_.begin(), issuedCount_.end(), 0);
    completed_ = 0;
    for (std::uint16_t core = 0; core < cores_; ++core)
        fetchMore(core);
}

void
CommandScheduler::fetchMore(std::uint16_t core)
{
    while (fetchCursor_[core] < orderEnd_[core] &&
           windowOccupancy_[core] < cfg_.pendingSlots) {
        std::uint32_t id = order_[fetchCursor_[core]++];
        ++windowOccupancy_[core];
        state_[id] = State::Pending;
        if (depsLeft_[id] == 0)
            makeReady(id);
    }
}

void
CommandScheduler::makeReady(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Pending, "bad ready transition");
    state_[id] = State::Ready;
    const isa::Command &c = program_->commands()[id];
    fifo_[tail_[slot(c.core, c.unit)]++] = id;
    readyMask_[c.core] |=
        static_cast<std::uint8_t>(1u << static_cast<unsigned>(c.unit));
}

std::optional<std::uint32_t>
CommandScheduler::peekReady(std::uint16_t core, isa::UnitKind unit) const
{
    const std::size_t k = slot(core, unit);
    if (head_[k] == tail_[k])
        return std::nullopt;
    return fifo_[head_[k]];
}

void
CommandScheduler::issue(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Ready, "issue of non-ready command ",
                 id);
    const isa::Command &c = program_->commands()[id];
    const std::size_t k = slot(c.core, c.unit);
    IANUS_ASSERT(head_[k] < tail_[k] && fifo_[head_[k]] == id,
                 "out-of-order issue from the ready FIFO");
    IANUS_ASSERT(issuedCount_[k] < cfg_.issueSlots, "issue queue overflow");
    if (++head_[k] == tail_[k])
        readyMask_[c.core] &= static_cast<std::uint8_t>(
            ~(1u << static_cast<unsigned>(c.unit)));
    ++issuedCount_[k];
    state_[id] = State::Issued;
}

void
CommandScheduler::complete(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Issued,
                 "completion of non-issued command ", id);
    const isa::Command &c = program_->commands()[id];
    state_[id] = State::Completed;
    --issuedCount_[slot(c.core, c.unit)];
    IANUS_ASSERT(windowOccupancy_[c.core] > 0, "window underflow");
    --windowOccupancy_[c.core];
    ++completed_;

    for (std::uint32_t i = depStart_[id]; i < depStart_[id + 1]; ++i) {
        const std::uint32_t dep = dependents_[i];
        IANUS_ASSERT(depsLeft_[dep] > 0, "dependency double count");
        if (--depsLeft_[dep] == 0 && state_[dep] == State::Pending)
            makeReady(dep);
    }
    fetchMore(c.core);
}

} // namespace ianus::npu
