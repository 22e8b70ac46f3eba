/**
 * @file
 * Serving-simulator speed microbenchmark: wall-clock throughput of
 * ServingEngine::drain (simulated requests per second and discrete
 * events per second) at 10k / 100k / 1M request traces, serial and
 * sharded (serve/sharded_drain.hh).
 *
 * One cell runs the pre-optimization scheduler for scale: a policy
 * forced onto the generic Dynamic path re-sorts the whole ready queue
 * at every boundary, which is quadratic in queue depth — the hot-path
 * refactor this harness guards replaced it with an incremental ordered
 * index. The Dynamic reference runs at the smallest size only (at 1M
 * it would take hours; that is the point).
 *
 * The model-compile warmup is excluded from every timing: a small
 * priming drain populates the per-replica program caches first, so the
 * numbers measure the event loop and scheduler, not the compiler.
 *
 *   ./micro_serving_throughput [--fast] [--csv] [--floor REQ_PER_S]
 *
 * --fast caps the sweep at 50k requests. --floor exits 1 if the
 * largest serial drain simulates fewer requests per second than the
 * floor — the Release CI regression gate. A floor that is missing,
 * not a number or not positive exits 2 before any work.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "serve/serving_engine.hh"
#include "serve/sharded_drain.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;

// The pre-refactor scheduler: same SJF decisions via full selectBatch
// (stable_sort of the whole ready queue) at every admission round.
struct SjfDynamic : serve::SjfPolicy
{
    serve::QueueOrder
    queueOrder() const override
    {
        return serve::QueueOrder::Dynamic;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opts =
        bench::parseArgs(argc, argv, "REQ_PER_S");

    bench::banner(
        "micro: serving throughput",
        "simulator speed — requests/s and events/s of one drain at "
        "10k/100k/1M requests, serial vs sharded, plus the quadratic "
        "pre-refactor reference at the smallest size");

    workloads::ModelConfig model = workloads::gpt2("m");
    SystemConfig cfg = SystemConfig::ianusDefault();
    const std::size_t replicas = 8;
    serve::PoolOptions pool_opts;
    pool_opts.replicas = replicas;
    serve::DevicePool pool(cfg, model, pool_opts);

    serve::ServingOptions sopts;
    sopts.sloMsPerToken = 10.0;
    sopts.tokenStride = 8;

    // Saturate the pool ~2x so the ready queue stays deep — deep
    // queues are what separated the quadratic scheduler from the
    // incremental one.
    double svc_ms = pool.replica(0).run({256, 16}, 8).totalMs();
    const double rate =
        2.0 * static_cast<double>(replicas) * 1000.0 / svc_ms;

    // Prime every replica's program cache with the trace's request
    // shapes so the timed runs never touch the compiler.
    {
        serve::TraceOptions warm;
        warm.seed = 3;
        warm.requests = 64 * replicas;
        warm.arrivalsPerSec = rate;
        serve::ServingEngine engine(pool, sopts,
                                    serve::makePolicy("sjf"),
                                    serve::makeRouter("queue-depth"));
        serve::submitAll(serve::generatePoissonTrace(warm), engine);
        engine.drain();
    }

    std::vector<std::size_t> sizes = {10'000, 100'000, 1'000'000};
    if (opts.fast)
        sizes = {10'000, 50'000};

    bench::Table table({"requests", "mode", "wall_s", "req_per_s",
                        "events_per_s", "vs_serial"});
    double largest_serial_rps = 0.0;

    for (std::size_t n : sizes) {
        serve::TraceOptions topts;
        topts.seed = 42;
        topts.requests = n;
        topts.arrivalsPerSec = rate;
        serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);

        // Pre-refactor reference, smallest size only.
        if (n == sizes.front()) {
            serve::ServingEngine engine(
                pool, sopts, std::make_unique<SjfDynamic>(),
                serve::makeRouter("queue-depth"));
            serve::submitAll(trace, engine);
            auto t0 = std::chrono::steady_clock::now();
            serve::ServingReport rep = engine.drain();
            double wall = secondsSince(t0);
            table.addRow({std::to_string(n), "dynamic-ref",
                          bench::Table::num(wall, 2),
                          bench::Table::num(n / wall, 0),
                          bench::Table::num(rep.simEvents / wall, 0),
                          "-"});
        }

        double serial_wall;
        {
            serve::ServingEngine engine(pool, sopts,
                                        serve::makePolicy("sjf"),
                                        serve::makeRouter("queue-depth"));
            serve::submitAll(trace, engine);
            auto t0 = std::chrono::steady_clock::now();
            serve::ServingReport rep = engine.drain();
            serial_wall = secondsSince(t0);
            double rps = n / serial_wall;
            largest_serial_rps = rps;
            table.addRow({std::to_string(n), "serial",
                          bench::Table::num(serial_wall, 2),
                          bench::Table::num(rps, 0),
                          bench::Table::num(rep.simEvents / serial_wall,
                                            0),
                          bench::Table::ratio(1.0)});
        }

        {
            serve::ShardOptions sh;
            sh.shards = replicas;
            auto t0 = std::chrono::steady_clock::now();
            serve::ServingReport rep = serve::drainSharded(
                pool, sopts, trace, sh, "sjf", "queue-depth");
            double wall = secondsSince(t0);
            table.addRow({std::to_string(n), "sharded-8",
                          bench::Table::num(wall, 2),
                          bench::Table::num(n / wall, 0),
                          bench::Table::num(rep.simEvents / wall, 0),
                          bench::Table::ratio(serial_wall / wall)});
        }
    }

    table.print(opts);

    if (opts.floor > 0.0) {
        std::printf("\nfloor: serial %zu-request drain at %.0f req/s "
                    "(floor %.0f)\n",
                    sizes.back(), largest_serial_rps, opts.floor);
        if (largest_serial_rps < opts.floor) {
            std::printf("FAIL: below the simulated-requests/s floor\n");
            return 1;
        }
        std::printf("PASS\n");
    }
    return 0;
}
