/**
 * @file
 * Session prefix-cache microbenchmark: multi-turn conversations on a
 * small replica fleet, with and without prefix reuse.
 *
 * One seeded session trace (growing shared prefixes, think times well
 * past the service time) drains through three cells:
 *
 *  - `cold` — prefix cache disabled: every turn re-prefills its full
 *    context, the pre-session baseline;
 *  - `cache+rr` — cache enabled under round-robin routing: turns
 *    scatter across replicas, so most prefixes are cached on the wrong
 *    replica and miss — stickiness, not the cache, carries the win;
 *  - `sticky+cache` — cache enabled under session-sticky kv-affinity
 *    routing: turns return to the replica holding their prefix and
 *    prefill only the delta.
 *
 * Gates (exit 1 on violation):
 *  - sticky+cache executes at most HALF the cold cell's aggregate
 *    prefill tokens (the >= 2x reuse the growing-prefix workload is
 *    constructed to expose);
 *  - sticky+cache beats cold on SLO-goodput and never loses a turn;
 *  - sticky routing out-hits round-robin scatter;
 *  - with the paged KV manager on, pinned session prefixes leak zero
 *    blocks and every replica drains back to zero resident tokens;
 *  - the sticky cell replays bit-identically (determinism).
 *
 *   ./micro_session_prefix [--fast] [--csv]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;

serve::ArrivalTrace
sessionTrace(const bench::Options &opts)
{
    serve::SessionOptions sopts;
    sopts.seed = 19;
    sopts.sessions = opts.fast ? 10 : 24;
    sopts.meanTurns = 6.0;
    sopts.maxTurns = 12;
    // Think times sit well past the per-turn service time, so a turn's
    // predecessor has completed (and parked its KV) by the time the
    // turn arrives — the regime where reuse is physically possible.
    sopts.meanThinkMs = 2500.0;
    sopts.sessionsPerSec = opts.fast ? 4.0 : 6.0;
    sopts.deltaTokenChoices = {32, 48, 64};
    sopts.outputTokenChoices = {8, 12, 16};
    return serve::generateSessionTrace(sopts);
}

struct CellResult
{
    serve::ServingReport report;
    std::uint64_t prefillTokens = 0; ///< sum of executed prefill tokens
};

CellResult
drainCell(const serve::DevicePool &pool,
          const serve::ArrivalTrace &trace, bool prefix_cache,
          const std::string &router, const serve::KvOptions &kv = {})
{
    serve::ServingOptions opts;
    opts.batching = serve::BatchingMode::Continuous;
    opts.maxBatch = 4;
    opts.tokenStride = 4;
    // Tight enough that a late-session turn's deadline hinges on its
    // TTFT: on GPT-2 XL, re-prefilling the whole grown context blows
    // the budget a delta-only resume meets, so the reuse shows up in
    // SLO-goodput, not just in prefill-token counts.
    opts.sloMsPerToken = 7.0;
    opts.prefixCache = prefix_cache;
    opts.kv = kv;
    serve::ServingEngine engine(pool, opts, serve::makePolicy("fcfs"),
                                serve::makeRouter(router));
    serve::submitAll(trace, engine);
    CellResult cell;
    cell.report = engine.drain();
    for (const serve::RequestResult &r : cell.report.results)
        cell.prefillTokens += r.prefilledTokens;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("micro: session prefix cache + sticky routing",
                  "multi-turn sessions: sticky kv-affinity + prefix "
                  "reuse vs cold re-prefill every turn (gated)");

    serve::ArrivalTrace trace = sessionTrace(opts);
    bool ok = true;

    // One shared pool across every cell: the compile caches are pure
    // (warmth changes speed, never numbers), and GPT-2 XL makes
    // full-context re-prefill expensive enough to move deadlines.
    serve::PoolOptions popts;
    popts.replicas = 2;
    serve::DevicePool pool(SystemConfig::ianusDefault(),
                           workloads::gpt2("xl"), popts);

    struct Cell
    {
        const char *name;
        bool cache;
        const char *router;
    };
    const std::vector<Cell> cells = {
        {"cold", false, "kv-affinity"},
        {"cache+rr", true, "round-robin"},
        {"sticky+cache", true, "kv-affinity"},
    };

    bench::Table table({"cell", "turns", "hit_rate", "prefill_tok",
                        "saved_tok", "slo_goodput", "deadline_miss",
                        "session_p95_ms"});
    std::uint64_t prefill_cold = 0, prefill_sticky = 0;
    std::uint64_t hits_rr = 0, hits_sticky = 0;
    double goodput_cold = 0.0, goodput_sticky = 0.0;
    for (const Cell &cell : cells) {
        CellResult res = drainCell(pool, trace, cell.cache, cell.router);
        const serve::ServingReport &rep = res.report;
        table.addRow(
            {cell.name, bench::Table::num(rep.requests(), 0),
             bench::Table::num(rep.prefixHitRate(), 3),
             bench::Table::num(res.prefillTokens, 0),
             bench::Table::num(rep.prefillTokensSaved, 0),
             bench::Table::num(rep.sloGoodputTokensPerSec(), 1),
             bench::Table::num(rep.deadlineMissRate(), 3),
             bench::Table::num(rep.sessionLatencyPercentile(95.0), 1)});

        if (rep.requests() != trace.size()) {
            std::printf("FAIL: %s completed %zu of %zu turns\n",
                        cell.name, rep.requests(), trace.size());
            ok = false;
        }
        const std::string name = cell.name;
        if (name == "cold") {
            prefill_cold = res.prefillTokens;
            goodput_cold = rep.sloGoodputTokensPerSec();
            if (rep.prefixHits + rep.prefixMisses != 0) {
                std::printf("FAIL: cold cell counted prefix traffic "
                            "with the cache disabled\n");
                ok = false;
            }
        } else if (name == "cache+rr") {
            hits_rr = rep.prefixHits;
        } else {
            prefill_sticky = res.prefillTokens;
            goodput_sticky = rep.sloGoodputTokensPerSec();
            hits_sticky = rep.prefixHits;
            serve::ServingReport rep2 =
                drainCell(pool, trace, cell.cache, cell.router).report;
            if (!bench::identicalResults(rep, rep2)) {
                std::printf("FAIL: sticky+cache drain is not "
                            "deterministic across replays\n");
                ok = false;
            }
        }
    }
    table.print(opts);

    // --- Gates ----------------------------------------------------------
    const double reuse =
        prefill_sticky > 0 ? static_cast<double>(prefill_cold) /
                                 static_cast<double>(prefill_sticky)
                           : 0.0;
    std::printf("\nprefill-token reuse: %llu cold / %llu sticky = "
                "%.2fx (gate: >= 2x)\n",
                (unsigned long long)prefill_cold,
                (unsigned long long)prefill_sticky, reuse);
    if (!(reuse >= 2.0)) {
        std::printf("FAIL: prefix reuse saved less than half the "
                    "aggregate prefill tokens\n");
        ok = false;
    }
    if (!(goodput_sticky > goodput_cold)) {
        std::printf("FAIL: sticky+cache did not beat cold re-prefill "
                    "on SLO-goodput (%.1f vs %.1f tok/s)\n",
                    goodput_sticky, goodput_cold);
        ok = false;
    }
    if (!(hits_sticky > hits_rr)) {
        std::printf("FAIL: session-sticky routing did not out-hit "
                    "round-robin scatter (%llu vs %llu hits)\n",
                    (unsigned long long)hits_sticky,
                    (unsigned long long)hits_rr);
        ok = false;
    }

    // --- Paged KV on: pins must never leak ------------------------------
    serve::KvOptions kv;
    kv.capacityTokens = 4096;
    kv.blockTokens = 16;
    kv.admission = serve::KvAdmission::Queue;
    CellResult kvres = drainCell(pool, trace, true, "kv-affinity", kv);
    std::printf("kv cell: hit rate %.3f, peak pressure %.2f, shed "
                "%llu\n",
                kvres.report.prefixHitRate(),
                kvres.report.kvPeakPressure,
                (unsigned long long)kvres.report.kvShed);
    if (kvres.report.requests() != trace.size() ||
        kvres.report.kvShed != 0) {
        std::printf("FAIL: kv cell lost turns (served %zu of %zu, "
                    "shed %llu)\n",
                    kvres.report.requests(), trace.size(),
                    (unsigned long long)kvres.report.kvShed);
        ok = false;
    }
    if (kvres.report.prefixHits == 0) {
        std::printf("FAIL: kv cell never hit the prefix cache\n");
        ok = false;
    }
    for (const serve::ReplicaUtilization &u : kvres.report.replicas) {
        if (u.kvBlocksLeaked != 0 || u.kvTokensEnd != 0) {
            std::printf("FAIL: pinned session KV leaked (%llu blocks, "
                        "%llu tokens resident at drain end)\n",
                        (unsigned long long)u.kvBlocksLeaked,
                        (unsigned long long)u.kvTokensEnd);
            ok = false;
        }
    }

    std::printf("\nsession prefix sanity: %s\n",
                ok ? "sticky routing + prefix reuse at least halves "
                     "prefill work and lifts SLO-goodput with zero "
                     "pinned-KV leaks"
                   : "VIOLATED — BUG");
    return ok ? 0 : 1;
}
