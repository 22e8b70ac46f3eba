/**
 * @file
 * Figure 8: end-to-end inference latency of GPT-2 M/L/XL/2.5B on the
 * A100 GPU and on IANUS across (input, output) sizes, batch 1.
 *
 * Paper headline: IANUS averages 11.3x / 7.6x / 6.2x / 4.3x lower
 * latency than the A100 for GPT-2 M / L / XL / 2.5B.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/gpu_model.hh"
#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

namespace
{

struct PaperRow
{
    std::uint64_t in, out;
    double gpu, ianus;
};

// Published Fig-8 series (ms).
const std::vector<PaperRow> paperM = {
    {128, 1, 15, 5},    {128, 8, 111, 12},   {128, 64, 870, 68},
    {128, 512, 6938, 576}, {256, 1, 15, 6},  {256, 8, 111, 13},
    {256, 64, 872, 74}, {256, 512, 7130, 609}, {512, 1, 15, 9},
    {512, 8, 112, 17},  {512, 64, 879, 84},  {512, 512, 7221, 673}};
const std::vector<PaperRow> paperL = {
    {128, 1, 22, 10},   {128, 8, 164, 25},   {128, 64, 1271, 151},
    {128, 512, 10274, 1261}, {256, 1, 23, 13}, {256, 8, 164, 29},
    {256, 64, 1299, 161}, {256, 512, 10291, 1323}, {512, 1, 23, 18},
    {512, 8, 168, 36},  {512, 64, 1299, 182}, {512, 512, 10401, 1447}};
const std::vector<PaperRow> paperXl = {
    {128, 1, 29, 18},   {128, 8, 212, 43},   {128, 64, 1698, 251},
    {128, 512, 13622, 2073}, {256, 1, 29, 22}, {256, 8, 220, 49},
    {256, 64, 1740, 267}, {256, 512, 13701, 2171}, {512, 1, 31, 31},
    {512, 8, 221, 60},  {512, 64, 1801, 299}, {512, 512, 14239, 2367}};
const std::vector<PaperRow> paper25 = {
    {128, 1, 32, 32},   {128, 8, 242, 71},   {128, 64, 1916, 388},
    {128, 512, 15411, 3261}, {256, 1, 33, 38}, {256, 8, 245, 79},
    {256, 64, 1928, 418}, {256, 512, 15436, 3462}, {512, 1, 39, 50},
    {512, 8, 248, 97},  {512, 64, 2009, 478}, {512, 512, 15480, 3864}};

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 8 — GPT-2 inference latency, A100 vs IANUS",
                  "avg speedups 11.3x (M), 7.6x (L), 6.2x (XL), "
                  "4.3x (2.5B)");

    baselines::GpuModel gpu;

    struct ModelCase
    {
        const char *size;
        const std::vector<PaperRow> *paper;
        double paper_avg_speedup;
    };
    const ModelCase cases[] = {{"m", &paperM, 11.3},
                               {"l", &paperL, 7.6},
                               {"xl", &paperXl, 6.2},
                               {"2.5b", &paper25, 4.3}};

    for (const ModelCase &mc : cases) {
        workloads::ModelConfig model = workloads::gpt2(mc.size);
        serve::CompiledModel sys(SystemConfig::ianusDefault(), model);
        bench::Table table({"(in,out)", "gpu_ms", "ianus_ms", "speedup",
                            "paper_gpu", "paper_ianus", "paper_speedup",
                            "shape"});
        std::vector<double> gpu_ms_all, ianus_ms_all;
        for (const PaperRow &row : *mc.paper) {
            workloads::InferenceRequest req{row.in, row.out};
            double g = gpu.latencyMs(model, req);
            double i =
                sys.run(req, bench::strideFor(row.out, opts)).totalMs();
            gpu_ms_all.push_back(g);
            ianus_ms_all.push_back(i);
            double speedup = g / i;
            double paper_speedup = row.gpu / row.ianus;
            char tag[48];
            std::snprintf(tag, sizeof(tag), "(%llu,%llu)",
                          (unsigned long long)row.in,
                          (unsigned long long)row.out);
            table.addRow({tag,
                          bench::Table::num(g), bench::Table::num(i),
                          bench::Table::ratio(speedup),
                          bench::Table::num(row.gpu),
                          bench::Table::num(row.ianus),
                          bench::Table::ratio(paper_speedup),
                          bench::shapeCheck(speedup, paper_speedup)});
        }
        double avg_speedup =
            bench::mean(gpu_ms_all) / bench::mean(ianus_ms_all);
        std::printf("--- %s ---\n", model.describe().c_str());
        table.print(opts);
        std::printf("average speedup (avg latency ratio): measured "
                    "%.1fx, paper %.1fx [%s]\n\n",
                    avg_speedup, mc.paper_avg_speedup,
                    bench::shapeCheck(avg_speedup, mc.paper_avg_speedup)
                        .c_str());
    }
    return 0;
}
