/**
 * @file
 * Quickstart: simulate one GPT-2 inference request on IANUS and on the
 * same NPU without PIM, and print where the speedup comes from.
 *
 *   ./quickstart [model] [input] [output]
 *   ./quickstart xl 128 64
 */

#include <cstdio>

#include "baselines/gpu_model.hh"
#include "energy/energy_model.hh"
#include "example_cli.hh"
#include "serve/compiled_model.hh"

namespace
{

const char *const usage =
    "usage: quickstart [model] [input] [output]\n"
    "\n"
    "  model   GPT-2 size: m, l, xl (default) or 2.5b\n"
    "  input   prompt tokens (default 128)\n"
    "  output  generated tokens (default 64)\n"
    "\n"
    "Exit status: 0 on success, 1 on a simulation error, 2 on a usage\n"
    "error.\n";

int
run(int argc, char **argv)
{
    using namespace ianus;

    workloads::ModelConfig model =
        examples::gpt2Arg(argc > 1 ? argv[1] : "xl");
    workloads::InferenceRequest req;
    req.inputTokens =
        argc > 2 ? examples::parseCount("input", argv[2]) : 128;
    req.outputTokens =
        argc > 3 ? examples::parseCount("output", argv[3]) : 64;

    std::printf("model: %s\n", model.describe().c_str());
    std::printf("request: input=%llu output=%llu (batch 1)\n\n",
                (unsigned long long)req.inputTokens,
                (unsigned long long)req.outputTokens);

    // IANUS: NPU whose main memory is GDDR6-AiM PIM (unified).
    // CompiledModel binds the model to the device once; run() replays
    // cached programs for any further requests.
    serve::CompiledModel ianus_sys(SystemConfig::ianusDefault(), model);
    InferenceReport ianus_rep = ianus_sys.run(req);

    // NPU-MEM: identical NPU, plain GDDR6.
    serve::CompiledModel npu_mem(SystemConfig::npuMem(), model);
    InferenceReport npu_rep = npu_mem.run(req);

    // A100 GPU (analytical baseline).
    baselines::GpuModel gpu;
    double gpu_ms = gpu.latencyMs(model, req);

    std::printf("%-10s %12s %14s %14s\n", "system", "total(ms)",
                "summarize(ms)", "ms/gen-token");
    std::printf("%-10s %12.2f %14.2f %14.3f\n", "IANUS",
                ianus_rep.totalMs(), ianus_rep.summarizationMs(),
                ianus_rep.msPerGeneratedToken());
    std::printf("%-10s %12.2f %14.2f %14.3f\n", "NPU-MEM",
                npu_rep.totalMs(), npu_rep.summarizationMs(),
                npu_rep.msPerGeneratedToken());
    std::printf("%-10s %12.2f\n\n", "A100", gpu_ms);

    std::printf("IANUS speedup vs NPU-MEM: %.2fx\n",
                npu_rep.totalMs() / ianus_rep.totalMs());
    std::printf("IANUS speedup vs A100:    %.2fx\n\n",
                gpu_ms / ianus_rep.totalMs());

    energy::EnergyModel em;
    energy::EnergyBreakdown ie = em.evaluate(ianus_rep.combined());
    energy::EnergyBreakdown ne = em.evaluate(npu_rep.combined());
    std::printf("dynamic energy (J): IANUS %.2f (dram %.2f, pim %.2f, "
                "cores %.2f) | NPU-MEM %.2f\n",
                ie.total(), ie.normalDramJ, ie.pimJ, ie.coreJ, ne.total());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return ianus::examples::runExample(argc, argv, usage, run);
}
