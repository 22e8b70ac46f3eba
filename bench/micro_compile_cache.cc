/**
 * @file
 * Program-cache microbenchmark: host-side cost of the serving front end.
 *
 * Replays a 100-request synthetic serving mix (the llm_serving shapes)
 * two ways:
 *
 *  - uncached: a fresh CompiledModel per request, i.e. a one-shot
 *    CompiledModel::run — every request recompiles and re-simulates
 *    its summarization program and every sampled generation step;
 *  - cached: one CompiledModel serving the whole mix, so each distinct
 *    program (input length / KV length) is compiled and simulated once.
 *
 * The two paths must produce identical latency numbers — the cache only
 * skips redundant work. Reports wall-clock speedup and cache counters.
 *
 * A second table times single calls, in µs. "unique shapes" replays
 * more distinct shapes than the request memo holds, twice in the same
 * order, and reports the second pass: every run() call misses the
 * memo and sums its cached samples on warm programs. "repeated shapes"
 * replays the mix above, whose shapes the memo holds. The two "miss"
 * rows time one program-cache miss as CompiledModel runs it, for one
 * generation step and for a batch of 8: the step's 2-block prefix is
 * built into the storage of the previous miss's program and executed
 * once with its block-end snapshots, and build and execution are
 * timed apart.
 *
 *   ./micro_compile_cache [--fast] [--csv] [--floor PROGRAMS_PER_S]
 *
 * --floor exits 1 if the uncached path, where every request compiles
 * and executes its programs, costs fewer programs per second than the
 * floor — the Release CI gate on device execution. A floor that is
 * missing, not a number or not positive exits 2 before any work.
 */

#include <chrono>
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "common/bench_common.hh"
#include "ianus/execution_engine.hh"
#include "serve/compiled_model.hh"
#include "serve/trace_gen.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Mean host µs of one program-cache miss, split into its parts. */
struct MissCost
{
    double buildUs = 0.0;
    double executeUs = 0.0;
};

/**
 * @p misses program-cache misses of generation steps over @p batch
 * requests each, run the way CompiledModel runs a miss: the 2-block
 * prefix is built into the previous miss's program storage and
 * executed once, with its block-end snapshots. The KV lengths advance
 * from miss to miss, as a drain's do.
 */
MissCost
timeMisses(const ianus::SystemConfig &cfg,
           const ianus::workloads::ModelConfig &model, std::size_t batch,
           unsigned misses)
{
    const ianus::compiler::WorkloadBuilder builder(cfg, model);
    ianus::ExecutionEngine engine(cfg);
    ianus::isa::Program prog;
    std::vector<ianus::RunStats> ends;
    std::vector<std::uint64_t> kv(batch);
    MissCost cost;
    for (unsigned i = 0; i < misses; ++i) {
        for (std::size_t j = 0; j < batch; ++j)
            kv[j] = 257 + 8 * i + 32 * j;
        Clock::time_point t0 = Clock::now();
        prog = builder.buildGenerationBatch(kv, 2, std::move(prog));
        cost.buildUs += secondsSince(t0) * 1e6;
        t0 = Clock::now();
        ends.clear();
        (void)engine.run(prog, &ends);
        cost.executeUs += secondsSince(t0) * 1e6;
    }
    cost.buildUs /= misses;
    cost.executeUs /= misses;
    return cost;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    const bench::Options opts =
        bench::parseArgs(argc, argv, "PROGRAMS_PER_S");
    bench::banner("micro: program cache",
                  "compile-once/serve-many vs per-request recompilation "
                  "(host cost; simulated latencies must be identical)");

    workloads::ModelConfig model = workloads::gpt2(opts.fast ? "m" : "xl");
    SystemConfig cfg = SystemConfig::ianusDefault();
    const unsigned stride = 8;
    const unsigned n_requests = 100;

    // The llm_serving request mix (same rng seed, shapes from the
    // shared TraceOptions defaults).
    std::mt19937 rng(7);
    const serve::TraceOptions shapes;
    const auto &ins = shapes.inputTokenChoices;
    const auto &outs = shapes.outputTokenChoices;
    std::vector<workloads::InferenceRequest> mix;
    for (unsigned i = 0; i < n_requests; ++i)
        mix.push_back({ins[rng() % ins.size()],
                       outs[rng() % outs.size()]});

    // Uncached: fresh CompiledModel (one-shot run()) per request.
    Clock::time_point t0 = Clock::now();
    std::vector<InferenceReport> uncached;
    std::uint64_t uncached_builds = 0;
    for (const auto &req : mix) {
        serve::CompiledModel fresh(cfg, model);
        uncached.push_back(fresh.run(req, stride));
        uncached_builds += fresh.cacheStats().builds();
    }
    double uncached_s = secondsSince(t0);

    // Cached: one CompiledModel for the whole replay.
    serve::CompiledModel compiled(cfg, model);
    t0 = Clock::now();
    std::vector<InferenceReport> cached;
    for (const auto &req : mix)
        cached.push_back(compiled.run(req, stride));
    double cached_s = secondsSince(t0);

    bool identical = true;
    for (unsigned i = 0; i < n_requests; ++i) {
        if (uncached[i].totalTicks() != cached[i].totalTicks() ||
            uncached[i].summarization.wallTicks !=
                cached[i].summarization.wallTicks ||
            uncached[i].generation.commands !=
                cached[i].generation.commands)
            identical = false;
    }

    const serve::CacheStats &cs = compiled.cacheStats();
    bench::Table table({"path", "requests", "programs_built", "wall_s",
                        "req_per_s"});
    table.addRow({"uncached", bench::Table::num(n_requests, 0),
                  bench::Table::num(static_cast<double>(uncached_builds),
                                    0),
                  bench::Table::num(uncached_s, 2),
                  bench::Table::num(n_requests / uncached_s, 1)});
    table.addRow({"cached", bench::Table::num(n_requests, 0),
                  bench::Table::num(static_cast<double>(cs.builds()), 0),
                  bench::Table::num(cached_s, 2),
                  bench::Table::num(n_requests / cached_s, 1)});
    table.print(opts);

    std::printf("\ncache: %llu builds, %llu hits | speedup %.2fx | "
                "latency numbers identical: %s\n\n",
                (unsigned long long)cs.builds(),
                (unsigned long long)cs.hits(), uncached_s / cached_s,
                identical ? "yes" : "NO — BUG");
    if (!identical || uncached_s / cached_s < 2.0)
        return 1;

    // Per-call cost on warm programs. There are more shapes than the
    // memo holds, so a replay in the same order evicts each shape
    // before it comes round again.
    std::vector<workloads::InferenceRequest> unique;
    for (std::uint64_t out = 2;
         unique.size() <= serve::CompiledModel::maxRequestEntries; ++out)
        for (std::uint64_t in : ins)
            unique.push_back({in, out});
    serve::CompiledModel warm(cfg, model);
    for (const auto &req : unique)
        warm.run(req, stride);
    t0 = Clock::now();
    for (const auto &req : unique)
        warm.run(req, stride);
    const double unique_ns = secondsSince(t0) * 1e9 / unique.size();

    const unsigned rounds = 100;
    t0 = Clock::now();
    for (unsigned r = 0; r < rounds; ++r)
        for (const auto &req : mix)
            compiled.run(req, stride);
    const double repeated_ns =
        secondsSince(t0) * 1e9 / (rounds * mix.size());

    const unsigned misses = 40;
    const MissCost step = timeMisses(cfg, model, 1, misses);
    const MissCost batch8 = timeMisses(cfg, model, 8, misses);

    bench::Table calls(
        {"call", "calls", "us_per_call", "build_us", "execute_us"});
    calls.addRow({"unique shapes (2nd pass)",
                  bench::Table::num(static_cast<double>(unique.size()), 0),
                  bench::Table::num(unique_ns / 1e3, 3), "-", "-"});
    calls.addRow({"repeated shapes",
                  bench::Table::num(static_cast<double>(rounds * mix.size()),
                                    0),
                  bench::Table::num(repeated_ns / 1e3, 3), "-", "-"});
    for (const auto &[name, cost] :
         {std::pair{"miss: generation step", step},
          std::pair{"miss: batch of 8", batch8}})
        calls.addRow({name, bench::Table::num(misses, 0),
                      bench::Table::num(cost.buildUs + cost.executeUs, 1),
                      bench::Table::num(cost.buildUs, 1),
                      bench::Table::num(cost.executeUs, 1)});
    calls.print(opts);

    if (opts.floor > 0.0) {
        const double pps = static_cast<double>(uncached_builds) / uncached_s;
        std::printf("\nfloor: uncached path at %.0f programs/s (floor %.0f)\n",
                    pps, opts.floor);
        if (pps < opts.floor) {
            std::printf("FAIL: below the programs/s floor\n");
            return 1;
        }
        std::printf("PASS\n");
    }
    return 0;
}
