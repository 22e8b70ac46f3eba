/**
 * @file
 * Design-space exploration beyond the paper's Fig 15: sweep cores, PIM
 * chips, DMA efficiency and scheduling policy together and print the
 * latency surface for a chosen model/workload — the kind of what-if an
 * architect runs before committing RTL.
 *
 *   ./design_space_explorer [model] [input] [output]
 */

#include <cstdio>

#include "example_cli.hh"
#include "serve/compiled_model.hh"

namespace
{

const char *const usage =
    "usage: design_space_explorer [model] [input] [output]\n"
    "\n"
    "  model   GPT-2 size: m, l (default), xl or 2.5b\n"
    "  input   prompt tokens (default 256)\n"
    "  output  generated tokens (default 32)\n"
    "\n"
    "Exit status: 0 on success, 1 on a simulation error, 2 on a usage\n"
    "error.\n";

int
run(int argc, char **argv)
{
    using namespace ianus;
    using compiler::BuildOptions;
    using compiler::SchedulingPolicy;

    workloads::ModelConfig model =
        examples::gpt2Arg(argc > 1 ? argv[1] : "l");
    workloads::InferenceRequest req;
    req.inputTokens =
        argc > 2 ? examples::parseCount("input", argv[2]) : 256;
    req.outputTokens =
        argc > 3 ? examples::parseCount("output", argv[3]) : 32;

    std::printf("design space for %s at (%llu,%llu)\n\n",
                model.describe().c_str(),
                (unsigned long long)req.inputTokens,
                (unsigned long long)req.outputTokens);

    std::printf("%6s %6s %8s %10s %12s %12s %12s\n", "cores", "pims",
                "dma_eff", "policy", "total_ms", "ms/token",
                "vs_baseline");
    double baseline = 0.0;
    for (unsigned cores : {2u, 4u}) {
        for (unsigned pims : {2u, 4u}) {
            for (double eff : {0.7, 0.8}) {
                for (auto policy : {SchedulingPolicy::Naive,
                                    SchedulingPolicy::Pas}) {
                    SystemConfig cfg = SystemConfig::ianusDefault();
                    cfg.cores = cores;
                    cfg.pimChips = pims;
                    cfg.dmaEfficiency = eff;
                    BuildOptions opts;
                    opts.policy = policy;
                    serve::CompiledModel sys(cfg, model, opts);
                    double ms = sys.run(req, 4).totalMs();
                    double per_token =
                        req.outputTokens > 1
                            ? sys.run(req, 4).msPerGeneratedToken()
                            : 0.0;
                    if (baseline == 0.0)
                        baseline = ms;
                    std::printf("%6u %6u %8.2f %10s %12.2f %12.3f "
                                "%11.2fx\n",
                                cores, pims, eff,
                                policy == SchedulingPolicy::Pas ? "pas"
                                                                : "naive",
                                ms, per_token, baseline / ms);
                }
            }
        }
    }
    std::printf("\nreading: the largest lever for generation-dominant "
                "workloads is PIM chips; for summarization it is "
                "cores; PAS compounds with both.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return ianus::examples::runExample(argc, argv, usage, run);
}
