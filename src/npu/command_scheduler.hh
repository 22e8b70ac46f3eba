/**
 * @file
 * Command scheduler (Section 4.3).
 *
 * Tracks dependencies between commands and the occupancy of each unit.
 * Commands are fetched per core in program order into a bounded pending
 * window (256 slots); a fetched command whose dependencies have all
 * completed becomes *ready* and may be pushed into its unit's issue queue
 * (4 slots). On completion the scheduler resolves dependences and refills
 * the window.
 *
 * Policy knobs that belong to PIM Access Scheduling — holding off-chip
 * DMA commands while a macro PIM command is in flight, and channel
 * admission for PIM commands — live in the execution engine; this class
 * is the pure dependency/queue mechanism.
 */

#ifndef IANUS_NPU_COMMAND_SCHEDULER_HH
#define IANUS_NPU_COMMAND_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "isa/program.hh"

namespace ianus::npu
{

/** Queue capacities (Table 1). */
struct SchedulerConfig
{
    unsigned issueSlots = 4;
    unsigned pendingSlots = 256;

    bool operator==(const SchedulerConfig &) const = default;
};

/**
 * Dependency/queue mechanism for one Program at a time. reset() starts
 * over on another program and keeps every buffer, so a scheduler that
 * runs programs no larger than earlier ones allocates nothing.
 *
 * Each command enters exactly one ready FIFO, once, so the FIFOs are
 * slices of one id array, each sized to its (core, unit)'s command
 * count; a FIFO's head and tail only move forward.
 */
class CommandScheduler
{
  public:
    /** Unit kinds per core (isa::UnitKind's enumerators). */
    static constexpr std::size_t unitKinds = 6;

    /** A scheduler with no program loaded yet; see reset(). */
    explicit CommandScheduler(unsigned cores,
                              const SchedulerConfig &cfg = SchedulerConfig{});

    CommandScheduler(const isa::Program &prog, unsigned cores,
                     const SchedulerConfig &cfg = SchedulerConfig{});

    /** Start over on @p prog, which must outlive its use: nothing
     *  issued or completed, and each core's window filled. */
    void reset(const isa::Program &prog);

    /** Bitmask of the units of @p core whose ready FIFO is non-empty
     *  (bit i == UnitKind i). */
    std::uint8_t
    readyUnits(std::uint16_t core) const
    {
        return readyMask_[core];
    }

    /** Next ready command for (core, unit) without removing it. */
    std::optional<std::uint32_t> peekReady(std::uint16_t core,
                                           isa::UnitKind unit) const;

    /** The next ready command of (@p core, @p unit), whose bit in
     *  readyUnits() must be set. */
    std::uint32_t
    readyHead(std::uint16_t core, isa::UnitKind unit) const
    {
        return fifo_[head_[slot(core, unit)]];
    }

    /** Move a ready command into the unit's issue queue. */
    void issue(std::uint32_t id);

    /**
     * Mark a command complete; resolves dependents and refills windows.
     * Newly ready commands become visible via peekReady().
     */
    void complete(std::uint32_t id);

    /** True when every command has completed. */
    bool allDone() const { return completed_ == state_.size(); }

    /** Commands issued but not yet completed on a unit (<= issueSlots). */
    unsigned
    issuedOn(std::uint16_t core, isa::UnitKind unit) const
    {
        return issuedCount_[slot(core, unit)];
    }

    /** Can (core, unit) accept another issue? */
    bool
    canIssue(std::uint16_t core, isa::UnitKind unit) const
    {
        return issuedOn(core, unit) < cfg_.issueSlots;
    }

    std::size_t completedCount() const { return completed_; }

  private:
    enum class State : std::uint8_t { Unfetched, Pending, Ready, Issued,
                                      Completed };

    const isa::Program *program_ = nullptr;
    unsigned cores_;
    SchedulerConfig cfg_;

    std::vector<State> state_;
    std::vector<std::uint32_t> depsLeft_;
    /** Dependents of command i, in id order:
     *  dependents_[depStart_[i] .. depStart_[i + 1]). */
    std::vector<std::uint32_t> depStart_;
    std::vector<std::uint32_t> dependents_;
    std::vector<std::uint32_t> fill_; ///< reset()'s scratch

    /** Every core's command ids in program order, core after core; a
     *  core fetches order_[fetchCursor_[c] .. orderEnd_[c]). */
    std::vector<std::uint32_t> order_;
    std::vector<std::uint32_t> fetchCursor_;
    std::vector<std::uint32_t> orderEnd_;
    std::vector<unsigned> windowOccupancy_;

    /** Ready FIFO of slot k = (core, unit): fifo_[head_[k] ..
     *  tail_[k]). */
    std::vector<std::uint32_t> fifo_;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> tail_;
    std::vector<std::uint8_t> readyMask_; ///< per core, see readyUnits()
    std::vector<unsigned> issuedCount_;   ///< per slot

    std::size_t completed_ = 0;

    static std::size_t
    slot(std::uint16_t core, isa::UnitKind unit)
    {
        return core * unitKinds + static_cast<std::size_t>(unit);
    }

    void fetchMore(std::uint16_t core);
    void makeReady(std::uint32_t id);
};

} // namespace ianus::npu

#endif // IANUS_NPU_COMMAND_SCHEDULER_HH
