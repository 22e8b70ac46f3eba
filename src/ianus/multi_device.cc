#include "ianus/ianus_system.hh"

#include "common/logging.hh"
#include "serve/compiled_model.hh"

namespace ianus
{

MultiDeviceSystem::MultiDeviceSystem(const SystemConfig &per_device,
                                     unsigned devices)
    : cfg_(per_device), devices_(devices)
{
    IANUS_ASSERT(devices_ >= 1, "need at least one device");
    cfg_.validate();
}

// Out of line so the header can hold CompiledModel by forward
// declaration only.
MultiDeviceSystem::~MultiDeviceSystem() = default;

const serve::CompiledModel &
MultiDeviceSystem::compile(const workloads::ModelConfig &model,
                           compiler::BuildOptions opts) const
{
    opts.devices = devices_;

    // Match on every field (the defaulted operator==), not the name
    // alone: callers may hand-build ModelConfigs.
    for (const auto &compiled : compiled_)
        if (compiled->model() == model && compiled->options() == opts)
            return *compiled;
    compiled_.push_back(
        std::make_unique<serve::CompiledModel>(cfg_, model, opts));
    return *compiled_.back();
}

InferenceReport
MultiDeviceSystem::run(const workloads::ModelConfig &model,
                       const workloads::InferenceRequest &request,
                       compiler::BuildOptions opts,
                       unsigned token_stride) const
{
    // Unlike the one-shot IanusSystem::run, repeated runs memoize: the
    // scaling studies sweep many requests per (model, device count)
    // pair, so the cached program stats are kept and shared via
    // compile().
    return compile(model, opts).run(request, token_stride);
}

double
MultiDeviceSystem::tokensPerSecond(const InferenceReport &report)
{
    if (report.generationSteps == 0)
        return 0.0;
    double sec = ticksToSec(report.generation.wallTicks);
    return sec > 0.0 ? static_cast<double>(report.generationSteps) / sec
                     : 0.0;
}

} // namespace ianus
