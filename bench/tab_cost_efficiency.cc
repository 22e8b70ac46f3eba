/**
 * @file
 * Section 7.2 cost analysis: performance per TDP watt of multi-IANUS
 * systems vs one A100 (400 W), using the (256,64) configuration.
 *
 * Paper: 3.9x / 2.7x / 2.1x better performance/TDP for the 6.7B / 13B /
 * 30B models on 2 / 4 / 8 devices (120 W each).
 */

#include <cstdio>

#include "baselines/gpu_model.hh"
#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Section 7.2 — cost efficiency (performance / TDP)",
                  "3.9x / 2.7x / 2.1x vs A100 for 6.7B / 13B / 30B");

    baselines::GpuModel gpu;
    const SystemConfig cfg = SystemConfig::ianusDefault();
    workloads::InferenceRequest req{256, 64};
    unsigned stride = bench::strideFor(req.outputTokens, opts);

    struct Case
    {
        const char *size;
        unsigned devices;
        double paper;
    };
    const Case cases[] = {{"6.7b", 2, 3.9}, {"13b", 4, 2.7},
                          {"30b", 8, 2.1}};

    bench::Table table({"model", "devices", "ianus_ms", "gpu_ms",
                        "speedup", "ianus_tdp_w", "perf/tdp_gain",
                        "paper", "shape"});
    for (const Case &c : cases) {
        workloads::ModelConfig model = workloads::gptLarge(c.size);
        serve::CompiledModel sys(cfg, model, {.devices = c.devices});
        double i = sys.run(req, stride).totalMs();
        double g = gpu.latencyMs(model, req);
        double speedup = g / i;
        double tdp = c.devices * cfg.tdpWatts;
        double tdp_gain = speedup * gpu.params().tdpWatts / tdp;
        table.addRow({model.name, std::to_string(c.devices),
                      bench::Table::num(i), bench::Table::num(g),
                      bench::Table::ratio(speedup),
                      bench::Table::num(tdp, 0),
                      bench::Table::ratio(tdp_gain),
                      bench::Table::ratio(c.paper),
                      bench::shapeCheck(tdp_gain, c.paper)});
    }
    table.print(opts);
    std::printf("cost-efficiency shrinks as devices multiply: the TDP "
                "bill scales linearly, the speedup does not.\n");
    return 0;
}
