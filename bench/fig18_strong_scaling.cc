/**
 * @file
 * Figure 18: strong scaling of GPT 6.7B generation throughput
 * (256:64 token configuration) across 2/4/8 IANUS devices.
 *
 * Paper: 127.1 / 211.6 / 317.6 tokens per second — 1.67x then 1.50x per
 * doubling; communication overhead keeps scaling sublinear.
 */

#include <cstdio>
#include <vector>

#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 18 — strong scaling, GPT 6.7B (256,64)",
                  "127.1 / 211.6 / 317.6 tokens/s on 2 / 4 / 8 devices "
                  "(1.67x, 1.50x per doubling)");

    workloads::ModelConfig model = workloads::gptLarge("6.7b");
    workloads::InferenceRequest req{256, 64};
    unsigned stride = bench::strideFor(req.outputTokens, opts);
    const double paper_tps[] = {127.1, 211.6, 317.6};
    const unsigned devices[] = {2, 4, 8};

    bench::Table table({"devices", "tokens/s", "scaling", "paper_tok/s",
                        "paper_scaling", "shape"});
    double prev = 0.0, paper_prev = 0.0;
    for (int i = 0; i < 3; ++i) {
        serve::CompiledModel sys(SystemConfig::ianusDefault(), model,
                                 {.devices = devices[i]});
        double tps = sys.run(req, stride).generationTokensPerSec();
        table.addRow(
            {std::to_string(devices[i]), bench::Table::num(tps, 1),
             prev > 0 ? bench::Table::ratio(tps / prev) : "-",
             bench::Table::num(paper_tps[i], 1),
             paper_prev > 0 ? bench::Table::ratio(paper_tps[i] /
                                                  paper_prev)
                            : "-",
             bench::shapeCheck(tps, paper_tps[i])});
        prev = tps;
        paper_prev = paper_tps[i];
    }
    table.print(opts);
    std::printf("scaling must stay sublinear: PCIe allgathers at the "
                "per-block sync points do not shrink with more "
                "devices.\n");
    return 0;
}
