/**
 * @file
 * A pool of serving replicas.
 *
 * DevicePool owns N replicas, each a CompiledModel (equal replicas
 * share one program store). A replica is one *serving unit*: a single
 * IANUS device by default, or a tensor-parallel group when
 * PoolOptions::build.devices > 1 (the Section 7.1 multi-device
 * partitioning) — replicas scale throughput, tensor-parallel devices
 * scale per-request latency. Under a batching ServingEngine a replica
 * serves a multi-request batch per token step, costed by its
 * CompiledModel's batched-step entries (generationStepStats), so each
 * replica's cache also memoizes the KV-length multisets it has seen.
 *
 * The homogeneous constructor clones one (SystemConfig, ModelConfig,
 * BuildOptions) triple across the pool; addReplica() admits
 * heterogeneous pools (e.g. mixing IANUS and NPU-MEM replicas) for
 * experiments. Replicas with equal triples build equal programs, so
 * they share one program-statistics store (see CompiledModel): the
 * pool builds each distinct program once, not once per replica.
 */

#ifndef IANUS_SERVE_DEVICE_POOL_HH
#define IANUS_SERVE_DEVICE_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/compiled_model.hh"

namespace ianus::serve
{

/**
 * What lifecycle stages a replica serves. `Unified` replicas run a
 * request end to end (every pool before disaggregation). A `Prefill`
 * replica only runs prompt phases: when a decoding request finishes
 * its last prefill chunk there, its written KV is shipped over the
 * costed pool link to a `Decode` replica, which only runs generation.
 * A pool whose replicas are all Unified never takes the transfer path.
 */
enum class ReplicaRole : std::uint8_t
{
    Unified, ///< prefill and decode on the same replica (the default)
    Prefill, ///< prompt phases only; KV hands off after the last chunk
    Decode   ///< generation only; receives KV from a prefill replica
};

const char *toString(ReplicaRole role);

/** Role by name: "unified", "prefill", "decode". Unknown is fatal. */
ReplicaRole makeReplicaRole(const std::string &name);

/** Pool shape: replica count and the per-replica build options. */
struct PoolOptions
{
    /** Number of independent serving replicas. */
    std::size_t replicas = 1;

    /** Per-replica compiler options; build.devices > 1 makes each
     *  replica a tensor-parallel group of that many devices. */
    compiler::BuildOptions build{};
};

/** N serving replicas; equal replicas share one program store. */
class DevicePool
{
  public:
    /** Empty pool; populate with addReplica(). */
    DevicePool() = default;

    /** Homogeneous pool: @p opts.replicas copies of one configuration. */
    DevicePool(const SystemConfig &sys,
               const workloads::ModelConfig &model,
               PoolOptions opts = PoolOptions{});

    DevicePool(DevicePool &&) = default;
    DevicePool &operator=(DevicePool &&) = default;

    /** Append a (possibly heterogeneous) replica with a role. It
     *  adopts the program store of the first replica whose triple
     *  equals its own, if any, and keeps its own otherwise. */
    void addReplica(std::unique_ptr<CompiledModel> replica,
                    ReplicaRole role = ReplicaRole::Unified);

    std::size_t size() const { return replicas_.size(); }
    bool empty() const { return replicas_.empty(); }

    const CompiledModel &replica(std::size_t i) const;

    /** Replica @p i's lifecycle role (fatal on a bad index). */
    ReplicaRole role(std::size_t i) const;

    /** Re-type replica @p i (fatal on a bad index). */
    void setRole(std::size_t i, ReplicaRole role);

    /** All roles, in replica order (ServingOptions::roles shape). */
    const std::vector<ReplicaRole> &roles() const { return roles_; }

    /** True iff any replica is role-typed (non-Unified). */
    bool disaggregated() const;

    /** Devices per replica summed over the pool (TDP/cost accounting). */
    unsigned totalDevices() const;

  private:
    std::vector<std::unique_ptr<CompiledModel>> replicas_;
    std::vector<ReplicaRole> roles_;
};

} // namespace ianus::serve

#endif // IANUS_SERVE_DEVICE_POOL_HH
