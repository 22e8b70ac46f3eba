/**
 * @file
 * Figure 15: sensitivity to the number of NPU cores and PIM chips for a
 * summarization-only case (256,1) and a generation-dominant case
 * (256,512), GPT-2 L, normalized to 4 cores / 4 PIM chips. Memory
 * bandwidth is held constant (only compute capability varies).
 *
 * Paper: fewer cores slow both cases (summarization more); fewer PIM
 * chips hit only the generation-dominant case.
 */

#include <cstdio>

#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 15 — core/PIM-chip sensitivity, GPT-2 L",
                  "summarization (256,1) degrades with cores; "
                  "generation (256,512) degrades with PIM chips");

    workloads::ModelConfig model = workloads::gpt2("l");
    workloads::InferenceRequest sum_req{256, 1};
    workloads::InferenceRequest gen_req{256, 512};
    unsigned stride = bench::strideFor(gen_req.outputTokens, opts);

    auto run = [&](unsigned cores, unsigned pims,
                   const workloads::InferenceRequest &req) {
        SystemConfig cfg = SystemConfig::ianusDefault();
        cfg.cores = cores;
        cfg.pimChips = pims;
        return serve::CompiledModel(cfg, model).run(req, stride).totalMs();
    };

    double base_sum = run(4, 4, sum_req);
    double base_gen = run(4, 4, gen_req);

    bench::Table table({"sweep", "value", "slowdown(256,1)",
                        "slowdown(256,512)"});
    for (unsigned cores : {1u, 2u, 4u}) {
        table.addRow({"# of cores", std::to_string(cores),
                      bench::Table::ratio(run(cores, 4, sum_req) /
                                          base_sum),
                      bench::Table::ratio(run(cores, 4, gen_req) /
                                          base_gen)});
    }
    for (unsigned pims : {1u, 2u, 4u}) {
        table.addRow({"# of PIMs", std::to_string(pims),
                      bench::Table::ratio(run(4, pims, sum_req) /
                                          base_sum),
                      bench::Table::ratio(run(4, pims, gen_req) /
                                          base_gen)});
    }
    table.print(opts);
    std::printf("expected shape: core column dominates (256,1); PIM "
                "column dominates (256,512); 4/4 row is 1.0x by "
                "construction.\n");
    return 0;
}
