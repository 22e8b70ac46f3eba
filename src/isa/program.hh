/**
 * @file
 * A Program is the compiler's output: an append-only DAG of Commands.
 *
 * Dependencies always point backwards (dep id < command id), so programs
 * are acyclic by construction and id order is a valid topological order.
 * The builder API returns command ids so schedules can be wired exactly
 * as Figures 6/7 describe.
 */

#ifndef IANUS_ISA_PROGRAM_HH
#define IANUS_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <vector>

#include "isa/command.hh"

namespace ianus::isa
{

/** Append-only command DAG. */
class Program
{
  public:
    Program() = default;

    /** Append a command; fills in its id; validates dependency ids. */
    std::uint32_t add(Command cmd);

    /** Convenience builder. */
    std::uint32_t add(std::uint16_t core, UnitKind unit, OpClass cls,
                      Payload payload,
                      std::vector<std::uint32_t> deps = {});

    const Command &at(std::uint32_t id) const { return commands_.at(id); }
    const std::vector<Command> &commands() const { return commands_; }
    std::size_t size() const { return commands_.size(); }
    bool empty() const { return commands_.empty(); }

    /** Ids of the last command appended per core (dep chaining helper). */
    std::uint32_t lastOnCore(std::uint16_t core) const;
    bool hasCommandsOnCore(std::uint16_t core) const;

    /**
     * Record command @p id, a barrier (non-marker Sync), as the one that
     * closes a transformer block. Blocks close in program order.
     */
    void markBlockEnd(std::uint32_t id);

    /** The closing barrier of every emitted block, in block order. */
    const std::vector<std::uint32_t> &blockEnds() const { return blockEnds_; }

    /** Command count per unit kind (test/report helper). */
    std::map<UnitKind, std::size_t> unitHistogram() const;

    /** Verify dependency sanity; panics on violation (a compiler bug). */
    void validate() const;

  private:
    std::vector<Command> commands_;
    std::map<std::uint16_t, std::uint32_t> lastPerCore_;
    std::vector<std::uint32_t> blockEnds_;
};

} // namespace ianus::isa

#endif // IANUS_ISA_PROGRAM_HH
