/**
 * @file
 * One benchmark process: generate a workload's trace file, or serve it
 * once from a cold start and print one JSON line of measurements.
 *
 *   perfbench gen <workload> <seed> <trace-file>
 *   perfbench run <workload> <trace-file> [--spans <spans-file>]
 *
 * `run` is what a user does: parse the trace from disk, build the pool,
 * serve, build the report and print it. wall_s ends when the report is
 * printed; the correctness audit and the digest run after it. setup_s
 * is the median of this process's setup and up to four repeats of it
 * made after the report (each parses the trace and builds a fresh pool
 * again). With
 * --spans the run is traced: the calls above are wrapped in spans, the
 * policy and router are wrapped in timing decorators, and after the
 * report the process measures the per-layer figures (warm drain, sharded
 * vs serial drain, per-program compile and execute time). Spans are
 * written to the spans file at exit.
 *
 * perfbench/run.py drives this binary; see perfbench/NOTES.md.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "probes.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/** Prints `"key": value` pairs as one JSON object. */
class JsonLine
{
  public:
    void
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        add(key, buf);
    }

    void
    str(const char *key, const std::string &v)
    {
        add(key, "\"" + v + "\"");
    }

    void
    raw(const char *key, const std::string &v)
    {
        add(key, v);
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    void
    add(const char *key, const std::string &v)
    {
        body_ += (body_.empty() ? "\"" : ", \"") + std::string(key) +
                 "\": " + v;
    }

    std::string body_;
};

int
generate(const std::string &workload, const std::string &seed,
         const std::string &path)
{
    const Workload &w = findWorkload(workload);
    serve::ArrivalTrace trace =
        generateTrace(w, std::strtoull(seed.c_str(), nullptr, 10));
    serve::saveTrace(trace, path);
    std::printf("{\"requests\": %zu}\n", trace.size());
    return 0;
}

/** Setups per process: setup_s is their median. */
constexpr std::size_t kSetups = 5;
/** Repeats stop early past this many seconds (large traces). */
constexpr double kSetupRepeatBudgetS = 0.5;

/** Parse the trace and build a fresh pool again, appending each setup's
 *  seconds to @p setups, until kSetups or the time budget is reached. */
void
repeatSetup(const Workload &w, const std::string &trace_path,
            std::vector<double> &setups)
{
    const double start = secondsSinceStart();
    while (setups.size() < kSetups &&
           secondsSinceStart() - start < kSetupRepeatBudgetS) {
        const double t0 = secondsSinceStart();
        serve::ArrivalTrace trace = serve::loadTrace(trace_path);
        serve::DevicePool pool = buildPool(w);
        setups.push_back(secondsSinceStart() - t0);
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The per-layer figures a traced run adds after its report. */
std::string
layerFigures(const Workload &w, const serve::DevicePool &pool,
             const serve::ArrivalTrace &trace, serve::ServingReport &report,
             const CallProbes &probes, SpanRecorder &spans,
             double rss_after_setup_mb, double rss_after_drain_mb)
{
    JsonLine j;

    // Program caches, as the cold drain left them.
    std::uint64_t builds = 0, hits = 0, evictions = 0, entries = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const serve::CacheStats &c = pool.replica(i).cacheStats();
        builds += c.builds();
        hits += c.hits();
        evictions += c.batchEvictions;
        entries += pool.replica(i).cachedPrograms();
    }
    const double lookups = double(builds + hits);
    j.num("compiled_model.builds", double(builds));
    j.num("compiled_model.hits", double(hits));
    j.num("compiled_model.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
    j.num("compiled_model.entries", double(entries));
    j.num("compiled_model.batch_evictions", double(evictions));
    j.num("compiled_model.lookups_per_req",
          trace.size() ? lookups / double(trace.size()) : 0.0);

    // Simulated-side counters of the cold drain.
    std::uint64_t leaked = 0;
    for (const serve::ReplicaUtilization &u : report.replicas)
        leaked += u.kvBlocksLeaked;
    j.num("kv_manager.peak_pressure", report.kvPeakPressure);
    j.num("kv_manager.shed", double(report.kvShed));
    j.num("kv_manager.transfers", double(report.kvTransfers));
    j.num("kv_manager.transfer_gb", report.kvTransferGB);
    j.num("kv_manager.leaked_blocks", double(leaked));
    j.num("prefix.hit_rate", report.prefixHitRate());
    j.num("prefix.tokens_saved", double(report.prefillTokensSaved));
    j.num("report.result_bytes",
          double(sizeof(serve::RequestResult) * report.results.size()));
    const double events = double(report.simEvents);

    // Host time of the cold run, from its spans.
    const bool sharded = w.shards > 0;
    const double cold = spans.total(sharded ? "sharded_drain.drain"
                                            : "serving_engine.drain");
    j.num("trace_gen.load_s", spans.total("trace_gen.load"));
    j.num("device_pool.build_s", spans.total("device_pool.build"));
    j.num("serving_engine.drain_cold_s", cold);
    j.num("serving_engine.events", events);
    j.num("serving_engine.events_per_s", cold > 0 ? events / cold : 0.0);
    j.num("report.s", spans.total("report"));
    const CallLedger policy = probes.policyTotal();
    const CallLedger router = probes.routerTotal();
    j.num("policy.calls", double(policy.calls));
    j.num("policy.s", policy.seconds);
    j.num("router.calls", double(router.calls));
    j.num("router.s", router.seconds);
    j.num("process.rss_after_setup_mb", rss_after_setup_mb);
    j.num("process.rss_after_drain_mb", rss_after_drain_mb);

    // Release the cold results before the warm drains allocate theirs.
    std::vector<serve::RequestResult>().swap(report.results);

    // Submit alone: a sharded drain submits inside drainSharded, so time
    // a plain engine's submits separately.
    if (sharded) {
        serve::ServingEngine engine(pool, w.options);
        SpanRecorder::Scope span(spans, "serving_engine.submit");
        serve::submitAll(trace, engine);
    }
    j.num("serving_engine.submit_s", spans.total("serving_engine.submit"));

    // Warm drains on the primed pool: the workload's own way, then two
    // shards on two threads against the same two shards run serially.
    auto timed = [&](const char *name, std::size_t shards,
                     std::size_t threads) {
        SpanRecorder::Scope span(spans, name);
        const double t0 = secondsSinceStart();
        serveTrace(w, pool, trace, nullptr, nullptr, shards, threads);
        return secondsSinceStart() - t0;
    };
    const std::size_t shards = sharded ? w.shards : 2;
    double warm = 0.0;
    if (!sharded) {
        // Shards see other batch and routing states than one engine,
        // so prime the caches with the sharded layout before timing it.
        warm = timed("warm.drain", 0, 0);
        timed("warm.sharded_prime", shards, 2);
    }
    const double two = timed("warm.sharded", shards, 2);
    const double serial = timed("warm.sharded_serial", shards, 1);
    j.num("serving_engine.drain_warm_s", sharded ? two : warm);
    j.num("sharded_drain.s", two);
    j.num("sharded_drain.serial_s", serial);
    j.num("sharded_drain.speedup", two > 0 ? serial / two : 0.0);

    ProgramTiming programs;
    {
        SpanRecorder::Scope span(spans, "programs");
        programs = timePrograms(w, pool, trace);
    }
    const double n = programs.programs ? double(programs.programs) : 1.0;
    j.num("compiler.build_ms", programs.buildMs / n);
    j.num("execution_engine.run_ms", programs.runMs / n);
    return j.text();
}

int
run(const std::string &workload, const std::string &trace_path,
    const std::string &spans_path)
{
    const Workload &w = findWorkload(workload);
    SpanRecorder spans(!spans_path.empty());

    serve::ArrivalTrace trace;
    serve::DevicePool pool;
    {
        SpanRecorder::Scope span(spans, "setup");
        {
            SpanRecorder::Scope load(spans, "trace_gen.load");
            trace = serve::loadTrace(trace_path);
        }
        SpanRecorder::Scope build(spans, "device_pool.build");
        pool = buildPool(w);
    }
    std::vector<double> setups = {secondsSinceStart()};
    const double rss_after_setup = spans.enabled() ? currentRssMb() : 0.0;

    CallProbes probes;
    serve::ServingReport report;
    {
        SpanRecorder::Scope span(spans, "serve");
        report = serveTrace(w, pool, trace,
                            spans.enabled() ? &probes : nullptr, &spans);
    }

    const double tail = tailPercentile(report);
    double ttft_p50 = 0.0, ttft_tail = 0.0, goodput = 0.0;
    {
        SpanRecorder::Scope span(spans, "report");
        const std::vector<double> p = report.ttftPercentiles({50.0, tail});
        ttft_p50 = p[0];
        ttft_tail = p[1];
        goodput = report.sloGoodputTokensPerSec();
        std::printf("%s: %s\n", w.name.c_str(), report.summary().c_str());
        std::fflush(stdout);
    }
    const double wall_s = secondsSinceStart();
    const double peak_rss = peakRssMb();
    const double rss_after_drain = spans.enabled() ? currentRssMb() : 0.0;

    // Not timed: the audit, the digest and the setup repeats.
    const Audit audit = auditReport(report, trace);
    const std::string dig = digest(report);
    repeatSetup(w, trace_path, setups);

    JsonLine j;
    j.str("workload", w.name);
    j.num("offered", double(audit.offered));
    j.num("completed", double(report.results.size()));
    j.num("failed", double(audit.failed()));
    j.str("violations", audit.violations());
    j.str("digest", dig);
    j.num("wall_s", wall_s);
    j.num("setup_s", median(setups));
    j.num("peak_rss_mb", peak_rss);
    j.num("sim_ttft_p50_ms", ttft_p50);
    j.num("sim_ttft_tail_ms", ttft_tail);
    j.num("tail_percentile", tail);
    j.num("sim_goodput_tok_s", goodput);
    if (spans.enabled()) {
        j.raw("layers", layerFigures(w, pool, trace, report, probes, spans,
                                     rss_after_setup, rss_after_drain));
        if (!spans.write(spans_path)) {
            std::fprintf(stderr, "cannot write spans to %s\n",
                         spans_path.c_str());
            return 1;
        }
    }
    std::printf("%s\n", j.text().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench gen <workload> <seed> <trace-file>\n"
                 "       perfbench run <workload> <trace-file> "
                 "[--spans <spans-file>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 4 && args[0] == "gen")
            return generate(args[1], args[2], args[3]);
        if (args.size() == 3 && args[0] == "run")
            return run(args[1], args[2], "");
        if (args.size() == 5 && args[0] == "run" && args[3] == "--spans")
            return run(args[1], args[2], args[4]);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
