/**
 * @file
 * Figure 11: dynamic energy of NPU-MEM vs IANUS for the GPT-2 models at
 * (256,512), normalized to IANUS on GPT-2 M.
 *
 * Paper: energy-efficiency gains 3.7x / 3.6x / 3.9x / 4.4x; normal
 * memory-operation energy shrinks 10.5-13.4x; core energy 6.3-10.2x.
 * Normalized totals: NPU-MEM 3.7/7.7/13.9/25.1, IANUS 1.0/2.1/3.6/5.8.
 */

#include <cstdio>
#include <vector>

#include "common/bench_common.hh"
#include "energy/energy_model.hh"
#include "serve/compiled_model.hh"

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 11 — dynamic energy, NPU-MEM vs IANUS "
                  "(256,512)",
                  "efficiency gains 3.7/3.6/3.9/4.4x; normal-op energy "
                  "/10.5-13.4; core energy /6.3-10.2");

    energy::EnergyModel em;
    workloads::InferenceRequest req{256, 512};
    unsigned stride = bench::strideFor(req.outputTokens, opts);

    const double paper_npu[] = {3.7, 7.7, 13.9, 25.1};
    const double paper_ianus[] = {1.0, 2.1, 3.6, 5.8};
    const double paper_gain[] = {3.7, 3.6, 3.9, 4.4};

    struct Entry
    {
        std::string name;
        energy::EnergyBreakdown ianus_e, npu_e;
    };
    std::vector<Entry> entries;
    for (const auto &model : workloads::allGpt2()) {
        Entry e;
        e.name = model.name;
        serve::CompiledModel ianus_sys(SystemConfig::ianusDefault(), model);
        serve::CompiledModel npu_mem(SystemConfig::npuMem(), model);
        e.ianus_e = em.evaluate(ianus_sys.run(req, stride).combined());
        e.npu_e = em.evaluate(npu_mem.run(req, stride).combined());
        entries.push_back(e);
    }

    double norm = entries[0].ianus_e.total(); // IANUS GPT-2 M
    bench::Table table({"model", "system", "normal_dram", "pim_op",
                        "cores", "total(norm)", "paper(norm)", "shape"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        table.addRow({e.name, "NPU-MEM",
                      bench::Table::num(e.npu_e.normalDramJ / norm, 2),
                      bench::Table::num(e.npu_e.pimJ / norm, 2),
                      bench::Table::num(e.npu_e.coreJ / norm, 2),
                      bench::Table::num(e.npu_e.total() / norm, 1),
                      bench::Table::num(paper_npu[i], 1),
                      bench::shapeCheck(e.npu_e.total() / norm,
                                        paper_npu[i])});
        table.addRow({e.name, "IANUS",
                      bench::Table::num(e.ianus_e.normalDramJ / norm, 2),
                      bench::Table::num(e.ianus_e.pimJ / norm, 2),
                      bench::Table::num(e.ianus_e.coreJ / norm, 2),
                      bench::Table::num(e.ianus_e.total() / norm, 1),
                      bench::Table::num(paper_ianus[i], 1),
                      bench::shapeCheck(e.ianus_e.total() / norm,
                                        paper_ianus[i])});
    }
    table.print(opts);

    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        double gain = e.npu_e.total() / e.ianus_e.total();
        double normal_red = e.npu_e.normalDramJ / e.ianus_e.normalDramJ;
        double core_red = e.npu_e.coreJ / e.ianus_e.coreJ;
        std::printf("%-11s efficiency %.1fx (paper %.1fx) [%s] | "
                    "normal-op /%.1f (paper 10.5-13.4) | cores /%.1f "
                    "(paper 6.3-10.2)\n",
                    e.name.c_str(), gain, paper_gain[i],
                    bench::shapeCheck(gain, paper_gain[i]).c_str(),
                    normal_red, core_red);
    }
    std::printf("\nnote: GPT-2 L pays ~2x the ACTAB count of GPT-2 M "
                "(1280-wide rows span two slices), visible in pim_op.\n");
    return 0;
}
