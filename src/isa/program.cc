#include "isa/program.hh"

#include "common/logging.hh"

namespace ianus::isa
{

std::uint32_t
Program::add(Command cmd, Deps deps)
{
    return add(cmd.core, cmd.unit, cmd.opClass, std::move(cmd.payload),
               deps);
}

std::uint32_t
Program::add(std::uint16_t core, UnitKind unit, OpClass cls,
             Payload payload, Deps deps)
{
    const auto id = static_cast<std::uint32_t>(commands_.size());
    for (std::uint32_t dep : deps)
        IANUS_ASSERT(dep < id, "forward dependency ", dep,
                     " from command ", id);
    Command &cmd = commands_.emplace_back();
    cmd.id = id;
    cmd.core = core;
    cmd.unit = unit;
    cmd.opClass = cls;
    cmd.payload = std::move(payload);
    cmd.depBegin = static_cast<std::uint32_t>(deps_.size());
    cmd.depCount = static_cast<std::uint32_t>(deps.size());
    deps_.insert(deps_.end(), deps.begin(), deps.end());
    return id;
}

void
Program::markBlockEnd(std::uint32_t id)
{
    IANUS_ASSERT(std::holds_alternative<SyncArgs>(at(id).payload),
                 "block end ", id, " is not a barrier");
    IANUS_ASSERT(blockEnds_.empty() || blockEnds_.back() < id,
                 "block ends out of program order");
    blockEnds_.push_back(id);
}

void
Program::clear()
{
    commands_.clear();
    deps_.clear();
    blockEnds_.clear();
}

std::map<UnitKind, std::size_t>
Program::unitHistogram() const
{
    std::map<UnitKind, std::size_t> h;
    for (const Command &c : commands_)
        ++h[c.unit];
    return h;
}

void
Program::validate() const
{
    for (const Command &c : commands_) {
        for (std::uint32_t dep : deps(c)) {
            IANUS_ASSERT(dep < c.id, "forward dep in command ", c.id);
        }
        if (c.unit == UnitKind::Pim) {
            const auto *pim_args = std::get_if<PimArgs>(&c.payload);
            IANUS_ASSERT(pim_args, "PIM command without PimArgs");
            IANUS_ASSERT(pim_args->macro.channelMask != 0,
                         "PIM command with empty channel mask");
        }
    }
}

} // namespace ianus::isa
