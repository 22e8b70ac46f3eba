/**
 * @file
 * BERT question-answering throughput study (the Fig 14 scenario as an
 * application): sweep the BERT model zoo and input lengths, reporting
 * latency, throughput and compute utilization of the NPU path (the PIM
 * stays idle — encoders have no matrix-vector stage).
 *
 * Each model is compiled once (CompiledModel); the input-length sweep
 * replays against its cached programs.
 *
 *   ./bert_qa_throughput [input_tokens...]
 */

#include <cstdio>
#include <vector>

#include "baselines/gpu_model.hh"
#include "example_cli.hh"
#include "serve/compiled_model.hh"

namespace
{

const char *const usage =
    "usage: bert_qa_throughput [input_tokens...]\n"
    "\n"
    "  input_tokens  prompt lengths to sweep (default 128 256 512)\n"
    "\n"
    "Exit status: 0 on success, 1 on a simulation error, 2 on a usage\n"
    "error.\n";

int
run(int argc, char **argv)
{
    using namespace ianus;
    std::vector<std::uint64_t> inputs;
    for (int i = 1; i < argc; ++i)
        inputs.push_back(examples::parseCount("input_tokens", argv[i]));
    if (inputs.empty())
        inputs = {128, 256, 512};

    SystemConfig cfg = SystemConfig::ianusDefault();
    baselines::GpuModel gpu;

    std::printf("BERT QA on IANUS (NPU path only) vs A100\n\n");
    std::printf("%-11s %6s %12s %12s %10s %12s %10s\n", "model", "input",
                "ianus_ms", "ianus_TF", "util%", "a100_ms", "a100_TF");
    for (const auto &model : workloads::allBert()) {
        serve::CompiledModel compiled(cfg, model);
        for (std::uint64_t in : inputs) {
            InferenceReport r = compiled.run({in, 1});
            double flops = model.forwardFlops(in);
            double tflops = flops / (r.totalMs() / 1000.0) / 1e12;
            double gpu_ms = gpu.summarizationMs(model, in);
            std::printf("%-11s %6llu %12.2f %12.1f %10.1f %12.2f "
                        "%10.1f\n",
                        model.name.c_str(), (unsigned long long)in,
                        r.totalMs(), tflops,
                        100.0 * tflops / cfg.npuPeakTflops(), gpu_ms,
                        flops / (gpu_ms / 1000.0) / 1e12);
        }
    }
    serve::CompiledModel bert_l(cfg, workloads::bert("l"));
    std::printf("\nQA batch sizing hint: one question of 384 tokens on "
                "BERT-L costs %.2f ms on IANUS.\n",
                bert_l.run({384, 1}).totalMs());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return ianus::examples::runExample(argc, argv, usage, run);
}
