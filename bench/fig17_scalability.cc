/**
 * @file
 * Figure 17: inference scalability of larger GPT models (Table 4) on
 * multi-IANUS systems (2/4/8 devices chosen for memory capacity) vs a
 * single A100.
 *
 * Paper: average speedups 2.4x (6.7B, 2 devices), 3.4x (13B, 4) and
 * 5.3x (30B, 8).
 */

#include <cstdio>
#include <vector>

#include "baselines/gpu_model.hh"
#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

namespace
{

struct PaperRow
{
    std::uint64_t out;
    double gpu, ianus;
};

struct ModelCase
{
    const char *size;
    unsigned devices;
    double paper_avg;
    std::vector<PaperRow> rows;
};

const ModelCase cases[] = {
    {"6.7b", 2, 2.4,
     {{1, 33, 52}, {8, 160, 101}, {64, 1168, 504}, {512, 9457, 3901}}},
    {"13b", 4, 3.4,
     {{1, 54, 64}, {8, 251, 118}, {64, 1801, 554}, {512, 14812, 4217}}},
    {"30b", 8, 5.3,
     {{1, 107, 95}, {8, 484, 161}, {64, 3486, 694}, {512, 28230, 5126}}},
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 17 — larger LLMs on multi-IANUS vs one A100",
                  "average speedups 2.4x (6.7B/2dev), 3.4x (13B/4dev), "
                  "5.3x (30B/8dev)");

    baselines::GpuModel gpu;
    for (const ModelCase &mc : cases) {
        workloads::ModelConfig model = workloads::gptLarge(mc.size);
        serve::CompiledModel sys(SystemConfig::ianusDefault(), model,
                                 {.devices = mc.devices});

        bench::Table table({"(in,out)", "gpu_ms", "ianus_ms", "speedup",
                            "paper_gpu", "paper_ianus", "shape"});
        std::vector<double> g_all, i_all;
        for (const PaperRow &row : mc.rows) {
            workloads::InferenceRequest req{256, row.out};
            double g = gpu.latencyMs(model, req);
            double i =
                sys.run(req, bench::strideFor(row.out, opts)).totalMs();
            g_all.push_back(g);
            i_all.push_back(i);
            table.addRow({"(256," + std::to_string(row.out) + ")",
                          bench::Table::num(g), bench::Table::num(i),
                          bench::Table::ratio(g / i),
                          bench::Table::num(row.gpu),
                          bench::Table::num(row.ianus),
                          bench::shapeCheck(g / i, row.gpu / row.ianus)});
        }
        double avg = bench::mean(g_all) / bench::mean(i_all);
        std::printf("--- %s on %u IANUS devices ---\n",
                    model.describe().c_str(), mc.devices);
        table.print(opts);
        std::printf("average speedup: measured %.1fx, paper %.1fx "
                    "[%s]\n\n",
                    avg, mc.paper_avg,
                    bench::shapeCheck(avg, mc.paper_avg).c_str());
    }
    return 0;
}
