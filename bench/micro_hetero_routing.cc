/**
 * @file
 * Heterogeneous-routing microbenchmark: goodput of mixed replica pools
 * under every shipped router.
 *
 * Three two-replica pools — homogeneous (2x IANUS), mixed-system
 * (IANUS + NPU-MEM, ~3.4x service-time skew), and mixed tensor
 * parallelism (IANUS TP-2 + TP-1, ~1.3x skew) — each serve the same
 * deterministic, moderately-loaded Poisson trace under all five
 * routers (round-robin, least-loaded, queue-depth, predicted-finish,
 * kv-affinity). Moderate load matters: the router only has a choice
 * when more than one replica accepts, and the routing question is
 * precisely what to do with that choice on a skewed pool.
 *
 * Goodput here is the serving-literature sense: tokens per second from
 * requests that finished inside their completion budget
 * (arrival + SLO x output tokens, the deadlineMiss criterion). Raw
 * tokens/s cannot separate routers at moderate open-loop load — every
 * request completes eventually, so throughput equals the arrival rate
 * however badly the slow replica is fed; goodput charges the routers
 * for every budget the slow replica blows. The SLO sits between the
 * fast and slow replicas' per-token service times, so a request parked
 * on the slow replica cannot meet it — the "slow replica silently
 * absorbs as much traffic as a fast one" failure made measurable.
 *
 * Sanity gates (exit 1 on violation):
 *
 *  - on the mixed-system pool, predicted-finish must strictly beat
 *    least-loaded on goodput: busy-time balancing keeps feeding the
 *    slow replica to equalize utilization, while predicted finish
 *    prices the service itself;
 *  - on the mixed-TP pool, whose 1.3x skew never crosses the SLO
 *    (goodput equals throughput there), predicted-finish must instead
 *    strictly cut the mean latency versus least-loaded — requests stop
 *    drawing the slower replica while the faster one accepts;
 *  - every (pool, router) cell must complete the whole trace.
 *
 *   ./micro_hetero_routing [--fast] [--csv]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

struct PoolSpec
{
    const char *name;
    /** Gate predicted-finish > least-loaded on SLO-goodput: meaningful
     *  where the skew crosses the SLO (a slow-replica request cannot
     *  meet its budget). */
    bool gateGoodput;
    /** Gate predicted-finish < least-loaded on mean latency: meaningful
     *  on any skewed pool (requests stop drawing the slower replica
     *  while the faster one accepts; the mean, unlike a percentile,
     *  sees every improved request). */
    bool gateMean;
};

/** Mean end-to-end latency over all requests. */
double
meanLatencyMs(const ianus::serve::ServingReport &rep)
{
    double sum = 0.0;
    for (const auto &r : rep.results)
        sum += r.totalMs();
    return rep.results.empty()
               ? 0.0
               : sum / static_cast<double>(rep.results.size());
}

/** Build one of the three pools by name. */
ianus::serve::DevicePool
makePool(const std::string &name, const ianus::workloads::ModelConfig &m)
{
    using namespace ianus;
    serve::DevicePool pool;
    compiler::BuildOptions tp2;
    tp2.devices = 2;
    if (name == "homogeneous") {
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), m));
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), m));
    } else if (name == "mixed-system") {
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), m));
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::npuMem(), m));
    } else { // mixed-tp
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), m, tp2));
        pool.addReplica(std::make_unique<serve::CompiledModel>(
            SystemConfig::ianusDefault(), m));
    }
    return pool;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("micro: heterogeneity-aware routing",
                  "mixed replica pools x all five routers under one "
                  "moderately-loaded trace (predicted-finish must beat "
                  "least-loaded on SLO-goodput wherever service times "
                  "are skewed)");

    workloads::ModelConfig model = workloads::gpt2("m");
    const unsigned stride = 8;
    const std::vector<PoolSpec> pools = {{"homogeneous", false, false},
                                         {"mixed-system", true, false},
                                         {"mixed-tp", false, true}};
    const std::vector<std::string> routers = {
        "round-robin", "least-loaded", "queue-depth", "predicted-finish",
        "kv-affinity"};

    // Rate the trace at ~55% of the mixed-system pool's combined
    // capacity over the actual shape mix: moderate load is the regime
    // the routing question lives in. Oversubscribed, every completion
    // is immediately forced onto the only accepting replica and all
    // routers coincide; at moderate load the router regularly faces a
    // real choice between a fast and a slow accepting replica.
    serve::TraceOptions trace_opts;
    trace_opts.seed = 42;
    trace_opts.requests = opts.fast ? 48 : 96;
    auto mean_service_ms = [&](const SystemConfig &cfg) {
        serve::CompiledModel probe(cfg, model);
        double sum = 0.0;
        for (std::uint64_t out : trace_opts.outputTokenChoices)
            sum += probe.run({256, out}, stride).totalMs();
        return sum / static_cast<double>(
                         trace_opts.outputTokenChoices.size());
    };
    double capacity =
        1000.0 / mean_service_ms(SystemConfig::ianusDefault()) +
        1000.0 / mean_service_ms(SystemConfig::npuMem());
    trace_opts.arrivalsPerSec = 1.1 * capacity;
    serve::ArrivalTrace trace = serve::generatePoissonTrace(trace_opts);

    std::printf("trace: %zu requests, %.1f req/s, horizon %.1f ms, "
                "offered %.0f tok/s\n\n",
                trace.size(), trace_opts.arrivalsPerSec,
                trace.horizonMs(), trace.offeredTokensPerSec());

    bench::Table table({"pool", "router", "goodput", "vs_ll", "tok_per_s",
                        "mean_ms", "p99_ms", "miss", "fast_share"});
    bool ok = true;
    for (const PoolSpec &spec : pools) {
        double ll_good = 0.0;
        double ll_mean = 0.0;
        double pf_good = 0.0;
        double pf_mean = 0.0;
        for (const std::string &router : routers) {
            // A fresh pool per cell: each replica owns a program cache,
            // and cells must not inherit a predecessor's warmup.
            serve::DevicePool pool = makePool(spec.name, model);
            serve::ServingOptions serve_opts;
            serve_opts.tokenStride = stride;
            serve_opts.batching = serve::BatchingMode::Continuous;
            serve_opts.maxBatch = 6;
            // An SLO between the fast (~0.9 ms/token) and slow
            // (~3.9 ms/token) replicas: the budget a slow-replica
            // request cannot meet.
            serve_opts.sloMsPerToken = 3.0;
            serve::ServingEngine engine(pool, serve_opts, nullptr,
                                        serve::makeRouter(router));
            serve::submitAll(trace, engine);
            serve::ServingReport rep = engine.drain();

            if (rep.requests() != trace.size()) {
                std::printf("FAIL: %s/%s completed %zu of %zu requests\n",
                            spec.name, router.c_str(), rep.requests(),
                            trace.size());
                ok = false;
            }

            double good = rep.sloGoodputTokensPerSec();
            double mean = meanLatencyMs(rep);
            std::vector<double> lat = rep.latencyPercentiles({50, 99});
            if (router == "least-loaded") {
                ll_good = good;
                ll_mean = mean;
            }
            if (router == "predicted-finish") {
                pf_good = good;
                pf_mean = mean;
            }

            std::uint64_t total = 0;
            for (const auto &u : rep.replicas)
                total += u.dispatched;
            double fast_share =
                total ? static_cast<double>(rep.replicas[0].dispatched) /
                            static_cast<double>(total)
                      : 0.0;
            table.addRow({spec.name, router, bench::Table::num(good, 1),
                          ll_good > 0.0
                              ? bench::Table::ratio(good / ll_good)
                              : std::string("-"),
                          bench::Table::num(rep.tokensPerSecond(), 1),
                          bench::Table::num(mean, 1),
                          bench::Table::num(lat[1], 1),
                          bench::Table::num(rep.deadlineMissRate(), 2),
                          bench::Table::num(fast_share, 2)});
        }
        if (spec.gateGoodput && !(pf_good > ll_good)) {
            std::printf("FAIL: %s predicted-finish did not beat "
                        "least-loaded on goodput (%.1f vs %.1f tok/s)\n",
                        spec.name, pf_good, ll_good);
            ok = false;
        }
        if (spec.gateMean && !(pf_mean < ll_mean)) {
            std::printf("FAIL: %s predicted-finish did not cut mean "
                        "latency vs least-loaded (%.1f vs %.1f ms)\n",
                        spec.name, pf_mean, ll_mean);
            ok = false;
        }
    }
    table.print(opts);

    std::printf("\nhetero routing sanity: %s\n",
                ok ? "predicted-finish beats least-loaded on goodput "
                     "and mean latency on every skewed pool"
                   : "VIOLATED — BUG");
    return ok ? 0 : 1;
}
