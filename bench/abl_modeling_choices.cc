/**
 * @file
 * Ablation: how sensitive are the headline conclusions to the simulator's
 * calibration constants (DESIGN.md §5)?
 *
 * Sweeps DMA efficiency, per-command scheduler overhead, and PCU dispatch
 * latency around their calibrated values and reports the IANUS-vs-NPU-MEM
 * generation speedup for GPT-2 XL. The claim being defended: the paper's
 * conclusion (PIM offload wins generation by ~4x) is a property of the
 * architecture, not of any single calibrated constant.
 */

#include <cstdio>

#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

namespace
{

double
speedup(ianus::SystemConfig ianus_cfg, ianus::SystemConfig npu_cfg,
        unsigned stride)
{
    using namespace ianus;
    workloads::ModelConfig xl = workloads::gpt2("xl");
    workloads::InferenceRequest req{128, 17};
    serve::CompiledModel a(ianus_cfg, xl), b(npu_cfg, xl);
    return b.run(req, stride).msPerGeneratedToken() /
           a.run(req, stride).msPerGeneratedToken();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Ablation — calibration-constant sensitivity",
                  "IANUS vs NPU-MEM generation speedup (GPT-2 XL) should "
                  "stay ~3-6x across reasonable constants");
    unsigned stride = opts.fast ? 8 : 4;

    bench::Table table({"constant", "value", "gen speedup"});
    for (double eff : {0.7, 0.8, 0.9, 1.0}) {
        SystemConfig i = SystemConfig::ianusDefault();
        SystemConfig n = SystemConfig::npuMem();
        i.dmaEfficiency = n.dmaEfficiency = eff;
        table.addRow({"dmaEfficiency", bench::Table::num(eff, 2),
                      bench::Table::ratio(speedup(i, n, stride))});
    }
    for (Tick ov : {Tick{0}, 120 * tickPerNs, 250 * tickPerNs,
                    500 * tickPerNs}) {
        SystemConfig i = SystemConfig::ianusDefault();
        SystemConfig n = SystemConfig::npuMem();
        i.cmdOverhead = n.cmdOverhead = ov;
        table.addRow({"cmdOverhead(ns)",
                      bench::Table::num(static_cast<double>(ov) / 1000, 0),
                      bench::Table::ratio(speedup(i, n, stride))});
    }
    for (Tick pcu : {Tick{0}, 200 * tickPerNs, 1000 * tickPerNs,
                     4000 * tickPerNs}) {
        SystemConfig i = SystemConfig::ianusDefault();
        SystemConfig n = SystemConfig::npuMem();
        i.pcuDispatch = pcu;
        table.addRow({"pcuDispatch(ns)",
                      bench::Table::num(static_cast<double>(pcu) / 1000,
                                        0),
                      bench::Table::ratio(speedup(i, n, stride))});
    }
    table.print(opts);
    std::printf("a conclusion that flipped under any of these sweeps "
                "would be calibration, not architecture.\n");
    return 0;
}
