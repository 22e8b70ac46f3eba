/**
 * @file
 * KV capacity microbenchmark: paged-block admission control on one
 * continuously batched replica under a long-context trace.
 *
 * Section 1 — admission modes. A seeded Poisson trace of long prompts
 * (512 / 1024 tokens) whose worst-case KV reservations oversubscribe a
 * deliberately tight block pool. Cells: {off, none, queue, shed} at a
 * fixed capacity. `off` disables the capacity model entirely — the
 * slot-count-only admission every earlier PR ran, shown as the
 * unrealistic free-memory baseline. `none` models capacity but admits
 * on slots alone, so resident KV overcommits the pool and the overflow
 * rides PCIe: every segment of an overcommitted replica dilates by the
 * spill factor and the SLO-goodput collapses. `queue` and `shed` hold
 * or drop requests at the gate instead, keeping reservations within
 * the pool — structurally zero spill.
 *
 * Section 2 — layouts. Unified vs partitioned (UMDAM-style halved
 * pools) under shed admission: a request must fit whole in one
 * region, so the partitioned pool sheds requests the unified pool
 * serves, and its KV reads run at half the aggregate bandwidth — the
 * capacity/bandwidth trade the paper's Fig. 13 makes for GEMV.
 *
 * Gates (exit 1 on violation):
 *  - `none` spills (dilated segments > 0) while `queue` and `shed`
 *    spill exactly zero;
 *  - capacity-aware admission beats slot-count overcommit on
 *    SLO-goodput: queue > none and shed > none;
 *  - the queue cell replays bit-identically (determinism);
 *  - partitioned sheds strictly more than unified at equal capacity,
 *    and reports half the unified KV read bandwidth.
 *
 *   ./micro_kv_capacity [--fast] [--csv]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "serve/kv_manager.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;

serve::ArrivalTrace
longContextTrace(const bench::Options &opts)
{
    serve::TraceOptions topts;
    topts.seed = 7;
    topts.requests = opts.fast ? 20 : 32;
    topts.inputTokenChoices = {512, 512, 1024};
    // Deliberately not block multiples, so ceil reservation leaves a
    // visible internal-fragmentation tail in the report.
    topts.outputTokenChoices = {40, 120};
    topts.arrivalsPerSec = 25.0;
    return serve::generatePoissonTrace(topts);
}

serve::ServingReport
drainWithKv(const serve::ArrivalTrace &trace, const serve::KvOptions &kv)
{
    serve::CompiledModel model(SystemConfig::ianusDefault(),
                               workloads::gpt2("m"));
    serve::ServingOptions opts;
    opts.batching = serve::BatchingMode::Continuous;
    opts.maxBatch = 4;
    opts.tokenStride = 4;
    opts.sloMsPerToken = 6.0;
    opts.kv = kv;
    serve::ServingEngine engine(model, opts, serve::makePolicy("edf"));
    serve::submitAll(trace, engine);
    return engine.drain();
}

serve::KvOptions
kvCell(std::uint64_t capacity, serve::KvAdmission admission,
       serve::KvLayout layout = serve::KvLayout::Unified)
{
    serve::KvOptions kv;
    kv.capacityTokens = capacity;
    kv.blockTokens = 32;
    kv.admission = admission;
    kv.layout = layout;
    return kv;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("micro: KV capacity + admission control",
                  "paged KV blocks on a tight pool: overcommit spills "
                  "to PCIe, capacity-aware admission holds the "
                  "SLO-goodput (gated)");

    serve::ArrivalTrace trace = longContextTrace(opts);
    bool ok = true;

    // The biggest worst case is 1024 + 120 = 1144 tokens = 36 blocks;
    // 1728 tokens (54 blocks) fit one long plus one short resident, so
    // a 4-slot batch oversubscribes the pool by up to ~2.7x.
    const std::uint64_t capacity = 1728;

    // --- Section 1: admission modes under KV pressure ------------------
    struct Cell
    {
        const char *name;
        serve::KvOptions kv;
    };
    const std::vector<Cell> cells = {
        {"off", serve::KvOptions{}},
        {"none", kvCell(capacity, serve::KvAdmission::None)},
        {"queue", kvCell(capacity, serve::KvAdmission::Queue)},
        {"shed", kvCell(capacity, serve::KvAdmission::Shed)},
    };

    bench::Table adm_table({"admission", "served", "shed",
                            "slo_goodput", "deadline_miss",
                            "spilled_segs", "max_dilation",
                            "peak_pressure", "frag"});
    double goodput_none = 0.0;
    for (const Cell &cell : cells) {
        serve::ServingReport rep = drainWithKv(trace, cell.kv);
        adm_table.addRow(
            {cell.name, bench::Table::num(rep.requests(), 0),
             bench::Table::num(rep.kvShed, 0),
             bench::Table::num(rep.sloGoodputTokensPerSec(), 1),
             bench::Table::num(rep.deadlineMissRate(), 3),
             bench::Table::num(rep.kvSpilledSegments, 0),
             bench::Table::ratio(rep.kvMaxDilation),
             bench::Table::num(rep.kvPeakPressure, 2),
             bench::Table::num(rep.kvMeanFragmentation, 3)});

        const std::string name = cell.name;
        if (name == "none") {
            goodput_none = rep.sloGoodputTokensPerSec();
            if (rep.kvSpilledSegments == 0) {
                std::printf("FAIL: overcommit never spilled — the "
                            "capacity is not tight for this trace\n");
                ok = false;
            }
        }
        if (name == "queue" || name == "shed") {
            if (rep.kvSpilledSegments != 0) {
                std::printf("FAIL: %s admission spilled %llu segments "
                            "(reservations must bound residency)\n",
                            cell.name,
                            (unsigned long long)rep.kvSpilledSegments);
                ok = false;
            }
            if (!(rep.sloGoodputTokensPerSec() > goodput_none)) {
                std::printf("FAIL: %s admission did not beat overcommit "
                            "on SLO-goodput (%.1f vs %.1f tok/s)\n",
                            cell.name, rep.sloGoodputTokensPerSec(),
                            goodput_none);
                ok = false;
            }
        }
        if (name == "queue") {
            serve::ServingReport rep2 = drainWithKv(trace, cell.kv);
            if (!bench::identicalResults(rep, rep2)) {
                std::printf("FAIL: queue-admission drain is not "
                            "deterministic across replays\n");
                ok = false;
            }
        }
    }
    adm_table.print(opts);

    // --- Section 2: unified vs partitioned layout ----------------------
    // 2048 tokens = 64 blocks: the 36-block long requests fit the
    // unified pool with room to spare, but can never fit a 32-block
    // half region — partitioning's overflow is structural, not load.
    const std::uint64_t lay_capacity = 2048;
    const SystemConfig cfg = SystemConfig::ianusDefault();
    bench::Table lay_table({"layout", "kv_read_GBs", "served", "shed",
                            "slo_goodput", "peak_pressure"});
    std::uint64_t shed_unified = 0, shed_partitioned = 0;
    for (serve::KvLayout layout :
         {serve::KvLayout::Unified, serve::KvLayout::Partitioned}) {
        serve::ServingReport rep = drainWithKv(
            trace,
            kvCell(lay_capacity, serve::KvAdmission::Shed, layout));
        if (layout == serve::KvLayout::Unified)
            shed_unified = rep.kvShed;
        else
            shed_partitioned = rep.kvShed;
        lay_table.addRow(
            {serve::toString(layout),
             bench::Table::num(
                 serve::KvBlockManager::readBandwidthGBs(cfg, layout),
                 1),
             bench::Table::num(rep.requests(), 0),
             bench::Table::num(rep.kvShed, 0),
             bench::Table::num(rep.sloGoodputTokensPerSec(), 1),
             bench::Table::num(rep.kvPeakPressure, 2)});
    }
    lay_table.print(opts);

    if (!(shed_partitioned > shed_unified)) {
        std::printf("FAIL: partitioning the pool did not increase shed "
                    "(%llu vs %llu) — region overflow is not biting\n",
                    (unsigned long long)shed_partitioned,
                    (unsigned long long)shed_unified);
        ok = false;
    }
    const double full =
        serve::KvBlockManager::readBandwidthGBs(cfg,
                                                serve::KvLayout::Unified);
    const double half = serve::KvBlockManager::readBandwidthGBs(
        cfg, serve::KvLayout::Partitioned);
    if (half * 2.0 != full) {
        std::printf("FAIL: partitioned KV read bandwidth is not half "
                    "the unified aggregate (%.1f vs %.1f GB/s)\n", half,
                    full);
        ok = false;
    }

    std::printf("\nkv capacity sanity: %s\n",
                ok ? "overcommit spills to PCIe, capacity-aware "
                     "admission holds SLO-goodput with zero spill, "
                     "partitioning trades capacity for banked reads"
                   : "VIOLATED — BUG");
    return ok ? 0 : 1;
}
