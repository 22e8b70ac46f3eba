/**
 * @file
 * Tables 1-4: the simulation parameters, system specifications and
 * network configurations, regenerated from the live configuration
 * objects (so a drifting constant shows up here, not just in results).
 */

#include <cstdio>
#include <string>

#include "baselines/dfx_model.hh"
#include "baselines/gpu_model.hh"
#include "common/bench_common.hh"
#include "ianus/system_config.hh"
#include "workloads/model_config.hh"

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Tables 1-4 — configurations",
                  "IANUS simulation parameters and model zoo");

    SystemConfig cfg = SystemConfig::ianusDefault();

    std::printf("--- Table 1: simulation parameters ---\n");
    bench::Table t1({"parameter", "value", "paper"});
    t1.addRow({"NPU cores", std::to_string(cfg.cores), "4"});
    t1.addRow({"PIM memory controllers",
               std::to_string(cfg.mem.channels), "8"});
    t1.addRow({"frequency (MHz)",
               bench::Table::num(cfg.mu.freqGhz * 1000, 0), "700"});
    t1.addRow({"matrix unit", "128x64 PEs, 4 MACs/PE", "same"});
    t1.addRow({"matrix unit TFLOPS/core",
               bench::Table::num(cfg.mu.peakTflops(), 1), "46"});
    t1.addRow({"vector unit", "16x 4-wide VLIW", "same"});
    t1.addRow({"issue/pending slots",
               std::to_string(cfg.sched.issueSlots) + "/" +
                   std::to_string(cfg.sched.pendingSlots),
               "4/256"});
    t1.addRow({"scratchpads (AM/WM MiB)",
               std::to_string(cfg.coreMem.actScratchpadBytes >> 20) +
                   "/" +
                   std::to_string(cfg.coreMem.weightScratchpadBytes >>
                                  20),
               "12/4"});
    t1.addRow({"GDDR6 channels x banks",
               std::to_string(cfg.mem.channels) + "x" +
                   std::to_string(cfg.mem.banksPerChannel),
               "8x16"});
    t1.addRow({"row (page) size (B)", std::to_string(cfg.mem.rowBytes),
               "2048"});
    t1.addRow({"external bandwidth (GB/s)",
               bench::Table::num(cfg.mem.systemPeakGBs(), 0), "256"});
    // Shortest form of a number ("0.5", "1", "21"); DRAM timing ticks
    // are picoseconds, and tCCD is tCCDL, the burst cadence.
    auto g = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return std::string(buf);
    };
    const dram::DramTiming &tm = cfg.mem.timing;
    auto ns = [&](Tick t) { return g(static_cast<double>(t) / 1000.0); };
    t1.addRow({"tCK/tCCD/tRAS/tWR (ns)",
               ns(tm.tCK) + "/" + ns(tm.tCCDL) + "/" + ns(tm.tRAS) + "/" +
                   ns(tm.tWR),
               "same"});
    t1.addRow({"tRP/tRCDRD/tRCDWR (ns)",
               ns(tm.tRP) + "/" + ns(tm.tRCDRD) + "/" + ns(tm.tRCDWR),
               "same"});
    t1.addRow({"PIM PU",
               g(cfg.pimUnit.puFreqGhz) + " GHz, 1/bank, " +
                   g(cfg.pimUnit.puGflops) + " GFLOPS",
               "same"});
    t1.addRow({"global buffer", "2 KB per channel", "same"});
    t1.print(opts);

    std::printf("--- Table 2: system specifications ---\n");
    baselines::GpuParams gpu;
    baselines::DfxParams dfx;
    bench::Table t2({"spec", "A100", "DFX", "IANUS"});
    t2.addRow({"compute (TFLOPS)", bench::Table::num(gpu.peakTflops, 0),
               bench::Table::num(dfx.peakTflops, 2),
               bench::Table::num(cfg.npuPeakTflops(), 0)});
    t2.addRow({"off-chip bandwidth (GB/s)",
               bench::Table::num(gpu.memGBs, 0),
               bench::Table::num(dfx.memGBs, 0),
               bench::Table::num(cfg.mem.systemPeakGBs(), 0)});
    t2.addRow({"PIM internal bandwidth (GB/s)", "n/a", "n/a",
               bench::Table::num(cfg.pimInternalGBs(), 0)});
    t2.addRow({"capacity (GB)", "80", "32",
               std::to_string(cfg.mem.capacityBytes >> 30)});
    t2.addRow({"TDP (W)", bench::Table::num(gpu.tdpWatts, 0), "-",
               bench::Table::num(cfg.tdpWatts, 0)});
    t2.print(opts);

    std::printf("--- Tables 3/4: network configurations ---\n");
    bench::Table t3({"name", "emb", "head_dim", "heads", "blocks",
                     "params(M)"});
    for (const auto &zoo :
         {workloads::allBert(), workloads::allGpt2(),
          workloads::allGptLarge()}) {
        for (const auto &m : zoo)
            t3.addRow({m.name, std::to_string(m.embDim),
                       std::to_string(m.headDim),
                       std::to_string(m.nHeads),
                       std::to_string(m.nBlocks),
                       std::to_string(m.paramCount() / 1000000)});
    }
    t3.print(opts);
    return 0;
}
