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

#include <cstdint>
#include <deque>
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

/** Dependency/queue mechanism for one Program. */
class CommandScheduler
{
  public:
    CommandScheduler(const isa::Program &prog, unsigned cores,
                     const SchedulerConfig &cfg = SchedulerConfig{});

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

    /** Move a ready command into the unit's issue queue. */
    void issue(std::uint32_t id);

    /**
     * Mark a command complete; resolves dependents and refills windows.
     * Newly ready commands become visible via peekReady().
     */
    void complete(std::uint32_t id);

    /** True when every command has completed. */
    bool allDone() const { return completed_ == program_->size(); }

    /** Commands issued but not yet completed on a unit (<= issueSlots). */
    unsigned issuedOn(std::uint16_t core, isa::UnitKind unit) const;

    /** Can (core, unit) accept another issue? */
    bool
    canIssue(std::uint16_t core, isa::UnitKind unit) const
    {
        return issuedOn(core, unit) < cfg_.issueSlots;
    }

    std::size_t completedCount() const { return completed_; }

    /** Ready commands across all cores/units (diagnostics). */
    std::size_t readyCount() const;

  private:
    enum class State : std::uint8_t { Unfetched, Pending, Ready, Issued,
                                      Completed };

    const isa::Program *program_;
    unsigned cores_;
    SchedulerConfig cfg_;

    std::vector<State> state_;
    std::vector<std::uint32_t> depsLeft_;
    /** Dependents of command i, in id order:
     *  dependents_[depStart_[i] .. depStart_[i + 1]). */
    std::vector<std::uint32_t> depStart_;
    std::vector<std::uint32_t> dependents_;

    /** Per-core fetch cursor (next program index owned by that core). */
    std::vector<std::vector<std::uint32_t>> coreOrder_;
    std::vector<std::size_t> fetchCursor_;
    std::vector<unsigned> windowOccupancy_;

    /** Ready FIFOs indexed [core][unit]. */
    std::vector<std::vector<std::deque<std::uint32_t>>> ready_;
    std::vector<std::uint8_t> readyMask_; ///< per core, see readyUnits()
    std::vector<std::vector<unsigned>> issuedCount_;

    std::size_t completed_ = 0;

    void fetchMore(std::uint16_t core);
    void makeReady(std::uint32_t id);
    static std::size_t unitIndex(isa::UnitKind unit);
};

} // namespace ianus::npu

#endif // IANUS_NPU_COMMAND_SCHEDULER_HH
