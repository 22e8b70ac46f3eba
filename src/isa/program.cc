#include "isa/program.hh"

#include "common/logging.hh"

namespace ianus::isa
{

std::uint32_t
Program::add(Command cmd)
{
    cmd.id = static_cast<std::uint32_t>(commands_.size());
    for (std::uint32_t dep : cmd.deps)
        IANUS_ASSERT(dep < cmd.id, "forward dependency ", dep,
                     " from command ", cmd.id);
    lastPerCore_[cmd.core] = cmd.id;
    commands_.push_back(std::move(cmd));
    return commands_.back().id;
}

std::uint32_t
Program::add(std::uint16_t core, UnitKind unit, OpClass cls,
             Payload payload, std::vector<std::uint32_t> deps)
{
    Command cmd;
    cmd.core = core;
    cmd.unit = unit;
    cmd.opClass = cls;
    cmd.payload = std::move(payload);
    cmd.deps = std::move(deps);
    return add(std::move(cmd));
}

std::uint32_t
Program::lastOnCore(std::uint16_t core) const
{
    auto it = lastPerCore_.find(core);
    IANUS_ASSERT(it != lastPerCore_.end(), "no commands on core ", core);
    return it->second;
}

bool
Program::hasCommandsOnCore(std::uint16_t core) const
{
    return lastPerCore_.count(core) > 0;
}

void
Program::markBlockEnd(std::uint32_t id)
{
    const auto *sync = std::get_if<SyncArgs>(&at(id).payload);
    IANUS_ASSERT(sync && !sync->phaseMarker,
                 "block end ", id, " is not a barrier");
    IANUS_ASSERT(blockEnds_.empty() || blockEnds_.back() < id,
                 "block ends out of program order");
    blockEnds_.push_back(id);
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
        for (std::uint32_t dep : c.deps) {
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
