/**
 * @file
 * One-shot entry points: an IANUS device running end-to-end inference.
 *
 * IanusSystem::run() simulates one request — the summarization stage
 * over the input tokens, then one generation step per output token (the
 * first output token falls out of summarization's LM head, as in the
 * paper's (x,1) configurations). It is a thin wrapper over
 * serve::CompiledModel, which compiles the model once and memoizes
 * programs; serving loops that replay many requests should hold a
 * CompiledModel (or a serve::ServingEngine on top of it) instead of
 * calling run() per request.
 *
 * For long generations a token stride can sample generation steps and
 * integrate between samples (token latency varies smoothly with KV
 * length); stride 1 simulates every step exactly.
 */

#ifndef IANUS_IANUS_IANUS_SYSTEM_HH
#define IANUS_IANUS_IANUS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/workload_builder.hh"
#include "ianus/execution_engine.hh"
#include "ianus/report.hh"
#include "ianus/system_config.hh"
#include "workloads/model_config.hh"

namespace ianus::serve
{
class CompiledModel;
} // namespace ianus::serve

namespace ianus
{

/** One IANUS device (or NPU-MEM / partitioned variant, per config). */
class IanusSystem
{
  public:
    explicit IanusSystem(const SystemConfig &cfg);

    /**
     * Simulate one inference request end to end (compiles the model,
     * serves once, discards the programs). Rejects invalid requests
     * (zero input/output tokens, zero stride) with a fatal error.
     *
     * @param model        Transformer configuration.
     * @param request      (input tokens, output tokens), batch 1.
     * @param opts         Compiler options (scheduling policy, attention
     *                     mapping, FC placement, devices).
     * @param token_stride Generation-step sampling stride (1 = exact).
     */
    InferenceReport run(const workloads::ModelConfig &model,
                        const workloads::InferenceRequest &request,
                        const compiler::BuildOptions &opts =
                            compiler::BuildOptions{},
                        unsigned token_stride = 1) const;

    const SystemConfig &config() const { return cfg_; }

  private:
    SystemConfig cfg_;
};

/**
 * Symmetric multi-device system (Section 7.1): weights and heads are
 * partitioned across devices x cores; activations allgather over PCIe at
 * the per-block sync points. Device 0 is simulated; the others are
 * symmetric by construction.
 */
class MultiDeviceSystem
{
  public:
    MultiDeviceSystem(const SystemConfig &per_device, unsigned devices);
    ~MultiDeviceSystem();

    MultiDeviceSystem(MultiDeviceSystem &&) = default;
    MultiDeviceSystem &operator=(MultiDeviceSystem &&) = default;

    /**
     * Compile (and memoize) @p model partitioned across this system's
     * devices. Repeated runs of the same (model, opts) pair share one
     * CompiledModel — and therefore its program cache — instead of
     * recompiling per call. The reference stays valid for the lifetime
     * of this system. Also the pool-construction helper: hand the
     * result (or its config triple) to serve::DevicePool to replicate
     * a tensor-parallel group.
     */
    const serve::CompiledModel &
    compile(const workloads::ModelConfig &model,
            compiler::BuildOptions opts = compiler::BuildOptions{}) const;

    InferenceReport run(const workloads::ModelConfig &model,
                        const workloads::InferenceRequest &request,
                        compiler::BuildOptions opts =
                            compiler::BuildOptions{},
                        unsigned token_stride = 1) const;

    unsigned devices() const { return devices_; }

    /** Aggregate TDP of the appliance (Section 7.2). */
    double
    totalTdpWatts() const
    {
        return static_cast<double>(devices_) * cfg_.tdpWatts;
    }

    /** Generation throughput of a report, tokens per second (Fig 18). */
    static double tokensPerSecond(const InferenceReport &report);

  private:
    SystemConfig cfg_;
    unsigned devices_;

    /** Memoized CompiledModels, one per distinct (model, opts); see
     *  compile(). */
    mutable std::vector<std::unique_ptr<serve::CompiledModel>> compiled_;
};

} // namespace ianus

#endif // IANUS_IANUS_IANUS_SYSTEM_HH
