/**
 * @file
 * Disaggregated prefill/decode microbenchmark: role-typed pools versus
 * unified pools on mixed context-length traffic, with an honest
 * transfer-bound loss point and the SLO-budget router's win over
 * predicted-finish.
 *
 * Three experiments on seeded open-loop traces:
 *
 *  - `win` — a 2 NPU-MEM + 2 IANUS fleet, unified vs role-typed with
 *    the NPU-MEM replicas as prefill and the IANUS replicas as decode,
 *    over the PCIe-derived KV link, on a mixed trace (30% long
 *    prompts). NPU-MEM prefills as fast as IANUS (compute-bound) but
 *    decodes ~5x slower (memory-bound — the paper's Figure 8 gap), so
 *    the unified mix strands half its decodes on replicas that can
 *    never hold the cadence, while the typed pool aligns each stage
 *    with the device that is good at it: p95 TTFT and SLO-goodput both
 *    improve despite paying for every KV transfer;
 *  - `loss` — the same cells over a 0.05 GB/s starved link: each
 *    handoff ships tens of MB through a straw, decode starts stall,
 *    and the unified pool honestly wins — disaggregation is not free;
 *  - `router` — a heterogeneous unified pool (2 IANUS + 2 NPU-MEM)
 *    under deadline-diverse load: predicted-finish burns fast replicas
 *    on slack-rich requests, slo-budget spends the cheapest replica
 *    that still meets each deadline and wins on SLO-goodput.
 *
 * Gates (exit 1 on violation): every cell completes every request;
 * disagg wins p95 TTFT and SLO-goodput at the win point; unified wins
 * SLO-goodput at the transfer-bound point; slo-budget beats
 * predicted-finish on SLO-goodput; zero KV leaked on either role; the
 * win cell replays bit-identically.
 *
 *   ./micro_disagg [--fast] [--csv]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "serve/device_pool.hh"
#include "serve/kv_manager.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;

/** Mixed context-length open-loop trace: 30% long prompts. */
serve::ArrivalTrace
mixedTrace(const bench::Options &opts)
{
    serve::TraceOptions topts;
    topts.seed = 23;
    topts.requests = opts.fast ? 48 : 120;
    topts.arrivalsPerSec = 88.0;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {32, 64};
    topts.longFraction = 0.3;
    topts.longInputTokenChoices = {768, 1024};
    topts.longOutputTokenChoices = {8, 16};
    return serve::generatePoissonTrace(topts);
}

serve::ServingReport
drainCell(const serve::DevicePool &pool,
          const std::vector<serve::ReplicaRole> &roles,
          const serve::ArrivalTrace &trace, double link_gbs,
          const std::string &router)
{
    serve::ServingOptions opts;
    opts.batching = serve::BatchingMode::Continuous;
    opts.maxBatch = 6;
    opts.tokenStride = 4;
    opts.sloMsPerToken = 12.0;
    opts.roles = roles;
    opts.kvLinkGBs = link_gbs;
    serve::ServingEngine engine(pool, opts, serve::makePolicy("fcfs"),
                                serve::makeRouter(router,
                                                  opts.sloMsPerToken));
    serve::submitAll(trace, engine);
    return engine.drain();
}

bool
noLeaks(const serve::ServingReport &rep, const char *cell)
{
    for (const serve::ReplicaUtilization &u : rep.replicas)
        if (u.kvTokensEnd != 0 || u.kvBlocksLeaked != 0) {
            std::printf("FAIL: %s leaked KV (%llu tokens, %llu blocks "
                        "resident at drain end)\n",
                        cell, (unsigned long long)u.kvTokensEnd,
                        (unsigned long long)u.kvBlocksLeaked);
            return false;
        }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("micro: disaggregated prefill/decode pools",
                  "NPU-MEM-prefill + IANUS-decode vs the unified mix "
                  "on mixed-length traffic, plus the transfer-bound "
                  "loss point and the slo-budget router (gated)");

    bool ok = true;
    serve::ArrivalTrace trace = mixedTrace(opts);

    // 2 NPU-MEM + 2 IANUS: prefill speeds match, decode speeds differ
    // ~5x — the fleet where lifecycle roles have something to align.
    const workloads::ModelConfig model = workloads::gpt2("m");
    serve::DevicePool pool;
    for (int i = 0; i < 2; ++i)
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::npuMem(), model));
    for (int i = 0; i < 2; ++i)
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), model));
    const std::vector<serve::ReplicaRole> unified; // empty = all-unified
    const std::vector<serve::ReplicaRole> disagg = {
        serve::ReplicaRole::Prefill, serve::ReplicaRole::Prefill,
        serve::ReplicaRole::Decode, serve::ReplicaRole::Decode};

    bench::Table table({"cell", "reqs", "p95_ttft_ms", "p95_total_ms",
                        "slo_goodput", "deadline_miss", "transfers",
                        "xfer_gb", "xfer_ms"});
    auto addRow = [&](const char *name, const serve::ServingReport &r) {
        table.addRow({name, bench::Table::num(r.requests(), 0),
                      bench::Table::num(r.ttftPercentile(95.0), 1),
                      bench::Table::num(r.latencyPercentile(95.0), 1),
                      bench::Table::num(r.sloGoodputTokensPerSec(), 1),
                      bench::Table::num(r.deadlineMissRate(), 3),
                      bench::Table::num(r.kvTransfers, 0),
                      bench::Table::num(r.kvTransferGB, 3),
                      bench::Table::num(r.kvTransferMs, 1)});
        if (r.requests() != trace.size()) {
            std::printf("FAIL: %s completed %zu of %zu requests\n",
                        name, r.requests(), trace.size());
            ok = false;
        }
        ok = noLeaks(r, name) && ok;
    };

    // --- Win point: the PCIe-derived link ------------------------------
    serve::ServingReport u_win =
        drainCell(pool, unified, trace, 0.0, "round-robin");
    serve::ServingReport d_win =
        drainCell(pool, disagg, trace, 0.0, "round-robin");
    addRow("unified-mix", u_win);
    addRow("npu-pre+ianus-dec", d_win);
    if (!(d_win.ttftPercentile(95.0) < u_win.ttftPercentile(95.0))) {
        std::printf("FAIL: disaggregation did not win p95 TTFT at the "
                    "win point (%.1f vs %.1f ms)\n",
                    d_win.ttftPercentile(95.0),
                    u_win.ttftPercentile(95.0));
        ok = false;
    }
    if (!(d_win.sloGoodputTokensPerSec() >
          u_win.sloGoodputTokensPerSec())) {
        std::printf("FAIL: disaggregation did not win SLO-goodput at "
                    "the win point (%.1f vs %.1f tok/s)\n",
                    d_win.sloGoodputTokensPerSec(),
                    u_win.sloGoodputTokensPerSec());
        ok = false;
    }
    if (d_win.kvTransfers == 0) {
        std::printf("FAIL: the disaggregated cell never transferred "
                    "KV\n");
        ok = false;
    }

    // --- Loss point: a starved 0.05 GB/s link --------------------------
    serve::ServingReport u_loss = u_win; // link bandwidth never read
    serve::ServingReport d_loss =
        drainCell(pool, disagg, trace, 0.05, "round-robin");
    addRow("disagg-starved", d_loss);
    if (!(u_loss.sloGoodputTokensPerSec() >
          d_loss.sloGoodputTokensPerSec())) {
        std::printf("FAIL: the unified pool did not win SLO-goodput at "
                    "the transfer-bound point (%.1f vs %.1f tok/s)\n",
                    u_loss.sloGoodputTokensPerSec(),
                    d_loss.sloGoodputTokensPerSec());
        ok = false;
    }
    if (!(d_loss.kvTransferMs > d_win.kvTransferMs)) {
        std::printf("FAIL: the starved link did not cost more wire "
                    "time than the PCIe link (%.1f vs %.1f ms)\n",
                    d_loss.kvTransferMs, d_win.kvTransferMs);
        ok = false;
    }

    // --- Router: slo-budget vs predicted-finish ------------------------
    // Deadline-diverse load on a mixed fleet: short-output requests
    // carry tight budgets only the IANUS replicas can meet; long-output
    // requests have slack the NPU-MEM replicas can absorb.
    serve::DevicePool hetero;
    for (int i = 0; i < 2; ++i)
        hetero.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), workloads::gpt2("m")));
    for (int i = 0; i < 2; ++i)
        hetero.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::npuMem(), workloads::gpt2("m")));
    serve::TraceOptions ropts;
    ropts.seed = 31;
    ropts.requests = opts.fast ? 48 : 120;
    ropts.arrivalsPerSec = 60.0;
    ropts.inputTokenChoices = {64, 128, 256};
    ropts.outputTokenChoices = {4, 8, 64, 128};
    serve::ArrivalTrace rtrace = serve::generatePoissonTrace(ropts);
    auto drainRouter = [&](const std::string &router) {
        serve::ServingOptions sopts;
        sopts.batching = serve::BatchingMode::Continuous;
        sopts.maxBatch = 4;
        sopts.tokenStride = 4;
        sopts.sloMsPerToken = 12.0;
        serve::ServingEngine engine(
            hetero, sopts, serve::makePolicy("fcfs"),
            serve::makeRouter(router, sopts.sloMsPerToken));
        serve::submitAll(rtrace, engine);
        return engine.drain();
    };
    serve::ServingReport pf = drainRouter("predicted-finish");
    serve::ServingReport slo = drainRouter("slo-budget");
    bench::Table rtable({"router", "reqs", "slo_goodput",
                         "deadline_miss", "p95_total_ms"});
    auto addRouterRow = [&](const char *name,
                            const serve::ServingReport &r) {
        rtable.addRow({name, bench::Table::num(r.requests(), 0),
                       bench::Table::num(r.sloGoodputTokensPerSec(), 1),
                       bench::Table::num(r.deadlineMissRate(), 3),
                       bench::Table::num(r.latencyPercentile(95.0), 1)});
    };
    addRouterRow("predicted-finish", pf);
    addRouterRow("slo-budget", slo);
    if (pf.requests() != rtrace.size() ||
        slo.requests() != rtrace.size()) {
        std::printf("FAIL: a router cell lost requests\n");
        ok = false;
    }
    if (!(slo.sloGoodputTokensPerSec() > pf.sloGoodputTokensPerSec())) {
        std::printf("FAIL: slo-budget did not beat predicted-finish on "
                    "SLO-goodput (%.1f vs %.1f tok/s)\n",
                    slo.sloGoodputTokensPerSec(),
                    pf.sloGoodputTokensPerSec());
        ok = false;
    }

    table.print(opts);
    std::printf("\n");
    rtable.print(opts);

    // --- Replay determinism --------------------------------------------
    serve::ServingReport d_again =
        drainCell(pool, disagg, trace, 0.0, "round-robin");
    if (!bench::identicalResults(d_win, d_again)) {
        std::printf("FAIL: the disaggregated drain is not "
                    "deterministic across replays\n");
        ok = false;
    }

    std::printf("\ndisaggregation sanity: %s\n",
                ok ? "role-typed pools win TTFT and goodput on mixed "
                     "traffic, lose honestly when transfer-bound, and "
                     "slo-budget routing beats predicted-finish — with "
                     "zero KV leaks on either role"
                   : "VIOLATED — BUG");
    return ok ? 0 : 1;
}
