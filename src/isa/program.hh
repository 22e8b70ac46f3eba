/**
 * @file
 * A Program is the compiler's output: an append-only DAG of Commands.
 *
 * Dependencies always point backwards (dep id < command id), so programs
 * are acyclic by construction and id order is a valid topological order.
 * The builder API returns command ids so schedules can be wired exactly
 * as Figures 6/7 describe. Every command's dependency ids sit in one
 * flat array the program owns, and clear() keeps the storage of both
 * arrays, so a program rebuilt into old storage allocates nothing once
 * it fits.
 */

#ifndef IANUS_ISA_PROGRAM_HH
#define IANUS_ISA_PROGRAM_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <vector>

#include "isa/command.hh"

namespace ianus::isa
{

/** A command's dependency ids. */
using Deps = std::span<const std::uint32_t>;

/** Append-only command DAG. */
class Program
{
  public:
    Program() = default;

    /** Append a command depending on @p deps, which must not point
     *  into this program; fills in the command's id and dependency
     *  range; validates dependency ids. */
    std::uint32_t add(Command cmd, Deps deps = {});

    std::uint32_t
    add(Command cmd, std::initializer_list<std::uint32_t> deps)
    {
        return add(std::move(cmd), Deps(deps.begin(), deps.size()));
    }

    /** Convenience builder. */
    std::uint32_t add(std::uint16_t core, UnitKind unit, OpClass cls,
                      Payload payload, Deps deps = {});

    std::uint32_t
    add(std::uint16_t core, UnitKind unit, OpClass cls, Payload payload,
        std::initializer_list<std::uint32_t> deps)
    {
        return add(core, unit, cls, std::move(payload),
                   Deps(deps.begin(), deps.size()));
    }

    const Command &at(std::uint32_t id) const { return commands_.at(id); }
    const std::vector<Command> &commands() const { return commands_; }
    std::size_t size() const { return commands_.size(); }
    bool empty() const { return commands_.empty(); }

    /** The ids @p cmd, a command of this program, waits for. */
    Deps
    deps(const Command &cmd) const
    {
        return Deps(deps_.data() + cmd.depBegin, cmd.depCount);
    }

    /**
     * Record command @p id, a barrier (non-marker Sync), as the one that
     * closes a transformer block. Blocks close in program order.
     */
    void markBlockEnd(std::uint32_t id);

    /** The closing barrier of every emitted block, in block order. */
    const std::vector<std::uint32_t> &blockEnds() const { return blockEnds_; }

    /** Drop every command, dependency and block end; keep the storage. */
    void clear();

    /** Command count per unit kind (test/report helper). */
    std::map<UnitKind, std::size_t> unitHistogram() const;

    /** Verify dependency sanity; panics on violation (a compiler bug). */
    void validate() const;

  private:
    std::vector<Command> commands_;
    std::vector<std::uint32_t> deps_; ///< every command's, in id order
    std::vector<std::uint32_t> blockEnds_;
};

} // namespace ianus::isa

#endif // IANUS_ISA_PROGRAM_HH
