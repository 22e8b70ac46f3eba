#include "npu/command_scheduler.hh"

#include "common/logging.hh"

namespace ianus::npu
{

namespace
{

constexpr std::size_t kUnitKinds = 6;
static_assert(kUnitKinds <= 8, "readyMask_ holds one bit per unit kind");

} // namespace

std::size_t
CommandScheduler::unitIndex(isa::UnitKind unit)
{
    return static_cast<std::size_t>(unit);
}

CommandScheduler::CommandScheduler(const isa::Program &prog, unsigned cores,
                                   const SchedulerConfig &cfg)
    : program_(&prog), cores_(cores), cfg_(cfg)
{
    IANUS_ASSERT(cores_ > 0, "scheduler needs at least one core");
    const std::size_t n = prog.size();
    state_.assign(n, State::Unfetched);
    depsLeft_.assign(n, 0);
    depStart_.assign(n + 1, 0);
    coreOrder_.assign(cores_, {});
    fetchCursor_.assign(cores_, 0);
    windowOccupancy_.assign(cores_, 0);
    ready_.assign(cores_, std::vector<std::deque<std::uint32_t>>(
                              kUnitKinds));
    readyMask_.assign(cores_, 0);
    issuedCount_.assign(cores_, std::vector<unsigned>(kUnitKinds, 0));

    for (const isa::Command &c : prog.commands()) {
        IANUS_ASSERT(c.core < cores_, "command ", c.id, " targets core ",
                     c.core, " but system has ", cores_);
        depsLeft_[c.id] = c.depCount;
        for (std::uint32_t d : prog.deps(c))
            ++depStart_[d + 1];
        coreOrder_[c.core].push_back(c.id);
    }
    for (std::size_t i = 0; i < n; ++i)
        depStart_[i + 1] += depStart_[i];
    dependents_.resize(depStart_[n]);
    std::vector<std::uint32_t> fill(depStart_.begin(), depStart_.end() - 1);
    for (const isa::Command &c : prog.commands())
        for (std::uint32_t d : prog.deps(c))
            dependents_[fill[d]++] = c.id;
    for (std::uint16_t core = 0; core < cores_; ++core)
        fetchMore(core);
}

void
CommandScheduler::fetchMore(std::uint16_t core)
{
    auto &order = coreOrder_[core];
    while (fetchCursor_[core] < order.size() &&
           windowOccupancy_[core] < cfg_.pendingSlots) {
        std::uint32_t id = order[fetchCursor_[core]++];
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
    const isa::Command &c = program_->at(id);
    ready_[c.core][unitIndex(c.unit)].push_back(id);
    readyMask_[c.core] |= static_cast<std::uint8_t>(1u << unitIndex(c.unit));
}

std::optional<std::uint32_t>
CommandScheduler::peekReady(std::uint16_t core, isa::UnitKind unit) const
{
    const auto &q = ready_[core][unitIndex(unit)];
    if (q.empty())
        return std::nullopt;
    return q.front();
}

void
CommandScheduler::issue(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Ready, "issue of non-ready command ",
                 id);
    const isa::Command &c = program_->at(id);
    auto &q = ready_[c.core][unitIndex(c.unit)];
    IANUS_ASSERT(!q.empty() && q.front() == id,
                 "out-of-order issue from the ready FIFO");
    IANUS_ASSERT(canIssue(c.core, c.unit), "issue queue overflow");
    q.pop_front();
    if (q.empty())
        readyMask_[c.core] &=
            static_cast<std::uint8_t>(~(1u << unitIndex(c.unit)));
    ++issuedCount_[c.core][unitIndex(c.unit)];
    state_[id] = State::Issued;
}

void
CommandScheduler::complete(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Issued,
                 "completion of non-issued command ", id);
    const isa::Command &c = program_->at(id);
    state_[id] = State::Completed;
    --issuedCount_[c.core][unitIndex(c.unit)];
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

unsigned
CommandScheduler::issuedOn(std::uint16_t core, isa::UnitKind unit) const
{
    return issuedCount_[core][unitIndex(unit)];
}

std::size_t
CommandScheduler::readyCount() const
{
    std::size_t n = 0;
    for (const auto &per_core : ready_)
        for (const auto &q : per_core)
            n += q.size();
    return n;
}

} // namespace ianus::npu
