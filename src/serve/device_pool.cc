#include "serve/device_pool.hh"

#include "common/logging.hh"

namespace ianus::serve
{

const char *
toString(ReplicaRole role)
{
    switch (role) {
    case ReplicaRole::Unified:
        return "unified";
    case ReplicaRole::Prefill:
        return "prefill";
    case ReplicaRole::Decode:
        return "decode";
    }
    return "?";
}

ReplicaRole
makeReplicaRole(const std::string &name)
{
    if (name == "unified")
        return ReplicaRole::Unified;
    if (name == "prefill")
        return ReplicaRole::Prefill;
    if (name == "decode")
        return ReplicaRole::Decode;
    IANUS_FATAL("unknown replica role '", name,
                "' (expected unified, prefill, or decode)");
}

DevicePool::DevicePool(const SystemConfig &sys,
                       const workloads::ModelConfig &model,
                       PoolOptions opts)
{
    if (opts.replicas == 0)
        IANUS_FATAL("a device pool needs at least one replica");
    replicas_.reserve(opts.replicas);
    roles_.reserve(opts.replicas);
    for (std::size_t i = 0; i < opts.replicas; ++i)
        addReplica(std::make_unique<CompiledModel>(sys, model, opts.build));
}

void
DevicePool::addReplica(std::unique_ptr<CompiledModel> replica,
                       ReplicaRole role)
{
    if (!replica)
        IANUS_FATAL("cannot add a null replica to a device pool");
    for (const auto &peer : replicas_)
        if (peer->config() == replica->config() &&
            peer->model() == replica->model() &&
            peer->options() == replica->options()) {
            replica->shareStore(*peer);
            break;
        }
    replicas_.push_back(std::move(replica));
    roles_.push_back(role);
}

ReplicaRole
DevicePool::role(std::size_t i) const
{
    if (i >= roles_.size())
        IANUS_FATAL("replica index ", i, " out of range (pool has ",
                    roles_.size(), ")");
    return roles_[i];
}

void
DevicePool::setRole(std::size_t i, ReplicaRole role)
{
    if (i >= roles_.size())
        IANUS_FATAL("replica index ", i, " out of range (pool has ",
                    roles_.size(), ")");
    roles_[i] = role;
}

bool
DevicePool::disaggregated() const
{
    for (ReplicaRole r : roles_)
        if (r != ReplicaRole::Unified)
            return true;
    return false;
}

const CompiledModel &
DevicePool::replica(std::size_t i) const
{
    if (i >= replicas_.size())
        IANUS_FATAL("replica index ", i, " out of range (pool has ",
                    replicas_.size(), ")");
    return *replicas_[i];
}

unsigned
DevicePool::totalDevices() const
{
    unsigned total = 0;
    for (const auto &r : replicas_)
        total += r->options().devices;
    return total;
}

} // namespace ianus::serve
