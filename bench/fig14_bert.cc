/**
 * @file
 * Figure 14: BERT throughput (TFLOPS) and compute utilization on the
 * A100 GPU and IANUS (matrix + vector units only; PIM idle since BERT
 * has no matrix-vector stage).
 *
 * Paper: IANUS reaches 3.1x / 2.0x / 0.8x / 0.6x the GPU's throughput
 * and 5.2x / 3.3x / 1.3x / 1.0x its utilization for BERT-B/L/1.3B/3.9B,
 * despite 1.4x lower peak FLOPS.
 */

#include <cstdio>
#include <vector>

#include "baselines/gpu_model.hh"
#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 14 — BERT throughput and utilization vs A100",
                  "throughput ratios 3.1/2.0/0.8/0.6x; utilization "
                  "ratios 5.2/3.3/1.3/1.0x");

    baselines::GpuModel gpu;
    SystemConfig cfg = SystemConfig::ianusDefault();
    const double paper_thr[] = {3.1, 2.0, 0.8, 0.6};
    const double paper_util[] = {5.2, 3.3, 1.3, 1.0};

    bench::Table table({"model", "input", "gpu_tflops", "ianus_tflops",
                        "gpu_util%", "ianus_util%"});
    auto models = workloads::allBert();
    std::vector<double> thr_ratio(models.size()), util_ratio(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        serve::CompiledModel sys(cfg, models[m]);
        std::vector<double> g_thr, i_thr;
        for (std::uint64_t in : {128u, 256u, 512u}) {
            double gthr = gpu.throughputTflops(models[m], in);
            InferenceReport r = sys.run({in, 1});
            double ithr = models[m].forwardFlops(in) /
                          (r.totalMs() / 1000.0) / 1e12;
            g_thr.push_back(gthr);
            i_thr.push_back(ithr);
            table.addRow({models[m].name, std::to_string(in),
                          bench::Table::num(gthr, 1),
                          bench::Table::num(ithr, 1),
                          bench::Table::num(
                              100.0 * gthr / gpu.params().peakTflops, 1),
                          bench::Table::num(
                              100.0 * ithr / cfg.npuPeakTflops(), 1)});
        }
        thr_ratio[m] = bench::mean(i_thr) / bench::mean(g_thr);
        util_ratio[m] = thr_ratio[m] * gpu.params().peakTflops /
                        cfg.npuPeakTflops();
    }
    table.print(opts);

    for (std::size_t m = 0; m < models.size(); ++m) {
        std::printf("%-10s throughput ratio %.1fx (paper %.1fx) [%s] | "
                    "utilization ratio %.1fx (paper %.1fx) [%s]\n",
                    models[m].name.c_str(), thr_ratio[m], paper_thr[m],
                    bench::shapeCheck(thr_ratio[m], paper_thr[m]).c_str(),
                    util_ratio[m], paper_util[m],
                    bench::shapeCheck(util_ratio[m], paper_util[m])
                        .c_str());
    }
    std::printf("\ncrossover: IANUS wins small encoders on data "
                "manipulation + vector work; the GPU's 1.4x peak FLOPS "
                "takes over as models become compute-bound.\n");
    return 0;
}
