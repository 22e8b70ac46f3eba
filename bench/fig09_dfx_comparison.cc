/**
 * @file
 * Figure 9: GPT-2 XL latency on DFX (4 FPGAs), NPU-MEM and IANUS.
 *
 * Paper headline: IANUS averages 3.2x over DFX while NPU-MEM is 24%
 * slower than DFX; 49.3x over DFX at (128,1); 1.8x per generated token
 * at (64,256) (3.8 ms vs 6.9 ms, NPU-MEM 15.5 ms).
 */

#include <cstdio>
#include <vector>

#include "baselines/dfx_model.hh"
#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

namespace
{

struct PaperRow
{
    std::uint64_t in, out;
    double dfx, npu_mem, ianus;
};

const std::vector<PaperRow> paperRows = {
    {32, 1, 227, 18, 18},      {32, 16, 330, 247, 73},
    {32, 256, 1981, 3970, 989}, {64, 1, 447, 18, 18},
    {64, 16, 550, 246, 72},    {64, 256, 2201, 3972, 990},
    {128, 1, 887, 18, 18},     {128, 16, 991, 249, 73},
    {128, 256, 2642, 3983, 997}};

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 9 — GPT-2 XL: DFX vs NPU-MEM vs IANUS",
                  "IANUS 3.2x vs DFX on average; NPU-MEM 24% slower "
                  "than DFX; 49.3x at (128,1)");

    workloads::ModelConfig xl = workloads::gpt2("xl");
    baselines::DfxModel dfx;
    serve::CompiledModel ianus_sys(SystemConfig::ianusDefault(), xl);
    serve::CompiledModel npu_mem(SystemConfig::npuMem(), xl);

    bench::Table table({"(in,out)", "dfx_ms", "npumem_ms", "ianus_ms",
                        "ianus_vs_dfx", "paper_dfx", "paper_npumem",
                        "paper_ianus", "shape"});

    std::vector<double> dfx_all, npu_all, ianus_all;
    double gen_token_ianus = 0, gen_token_npu = 0;
    for (const PaperRow &row : paperRows) {
        workloads::InferenceRequest req{row.in, row.out};
        unsigned stride = bench::strideFor(row.out, opts);
        double d = dfx.latencyMs(xl, req);
        InferenceReport ir = ianus_sys.run(req, stride);
        InferenceReport nr = npu_mem.run(req, stride);
        double i = ir.totalMs();
        double n = nr.totalMs();
        dfx_all.push_back(d);
        npu_all.push_back(n);
        ianus_all.push_back(i);
        if (row.in == 64 && row.out == 256) {
            gen_token_ianus = ir.msPerGeneratedToken();
            gen_token_npu = nr.msPerGeneratedToken();
        }
        double speedup = d / i;
        char tag[48];
        std::snprintf(tag, sizeof(tag), "(%llu,%llu)",
                      (unsigned long long)row.in,
                      (unsigned long long)row.out);
        table.addRow({tag,
                      bench::Table::num(d), bench::Table::num(n),
                      bench::Table::num(i), bench::Table::ratio(speedup),
                      bench::Table::num(row.dfx),
                      bench::Table::num(row.npu_mem),
                      bench::Table::num(row.ianus),
                      bench::shapeCheck(speedup, row.dfx / row.ianus)});
    }
    table.print(opts);

    double avg_vs_dfx = bench::mean(dfx_all) / bench::mean(ianus_all);
    double npu_vs_dfx = bench::mean(dfx_all) / bench::mean(npu_all);
    std::printf("IANUS vs DFX average: measured %.1fx, paper 3.2x [%s]\n",
                avg_vs_dfx, bench::shapeCheck(avg_vs_dfx, 3.2).c_str());
    std::printf("NPU-MEM vs DFX average: measured %.2fx, paper 0.76x "
                "(24%% slowdown) [%s]\n",
                npu_vs_dfx, bench::shapeCheck(npu_vs_dfx, 0.76).c_str());
    std::printf("(64,256) ms/generated-token: IANUS %.2f (paper 3.8), "
                "NPU-MEM %.2f (paper 15.5), DFX %.2f (paper 6.9)\n",
                gen_token_ianus, gen_token_npu,
                dfx.generationStepMs(xl));
    return 0;
}
