/**
 * @file
 * The benchmark's workloads and the checks run on every drain.
 *
 * A workload fixes a trace shape, a device pool and the serving options;
 * only the trace seed varies between runs. Each workload loads most of
 * its host time onto a different layer of the simulator (see NOTES.md):
 *
 *  - fleet_cold      — program compilation on a cold 8-replica pool;
 *  - batched_decode  — batched-step compilation and device execution;
 *  - million_sharded — event loop, report building and the sharded merge;
 *  - sessions_disagg — every optional part of the drain (prefix cache,
 *                      paged KV, handoff, chunking, preemption).
 *
 * Everything here goes through the simulator's public API only.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hh"
#include "serve/device_pool.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace perfbench
{

namespace serve = ianus::serve;

/** One benchmark workload. */
struct Workload
{
    std::string name;

    /** Trace: a Poisson stream of `requests` single-turn requests at
     *  `rate` req/s, or (sessions) `requests` sessions starting at
     *  `rate` sessions/s. */
    bool sessions = false;
    std::size_t requests = 0;
    double rate = 0.0;
    /** Single-turn output-length choices; empty keeps TraceOptions'
     *  defaults (the paper's evaluation ranges). */
    std::vector<std::uint64_t> outputChoices;

    /** Pool: `replicas` IANUS replicas, or (disaggregated) NPU-MEM
     *  prefill replicas interleaved with IANUS decode replicas. */
    std::size_t replicas = 0;
    bool disaggregated = false;

    serve::ServingOptions options;
    std::string policy;
    std::string router;

    /** drainSharded partition; shards == 0 serves with one plain
     *  ServingEngine::drain. */
    std::size_t shards = 0;
    std::size_t threads = 0;
};

/** TTFT tail percentile of a drain: p99, or p90 when fewer than 1,000
 *  requests completed, so that at least 10 requests lie beyond it. */
double tailPercentile(const serve::ServingReport &report);

/** All workloads, in the benchmark's order. */
const std::vector<Workload> &workloads();

/** Workload by name; throws std::invalid_argument on an unknown name. */
const Workload &findWorkload(const std::string &name);

/** A smaller variant of @p w with the same features (self-test scale). */
Workload smallVariant(const Workload &w);

/** The workload's trace for @p seed (deterministic). */
serve::ArrivalTrace generateTrace(const Workload &w, std::uint64_t seed);

/** A fresh, cold device pool for @p w. */
serve::DevicePool buildPool(const Workload &w);

/** Per-call counts and host seconds of one decorated interface. */
struct CallLedger
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/**
 * Forwarding decorators that time every call into the policy and the
 * router. When non-null, serveTrace wraps the workload's policy and
 * router with them; each decorated instance adds into its own ledger
 * entry, so sharded drains never share one across threads.
 */
struct CallProbes
{
    std::vector<CallLedger> policy;
    std::vector<CallLedger> router;

    CallLedger policyTotal() const;
    CallLedger routerTotal() const;
};

/**
 * Serve @p trace on @p pool the workload's way: one engine, or
 * drainSharded when the workload shards. @p shards_override replaces
 * the workload's shard count and @p threads_override its thread count
 * when non-zero (the traced run's sharded-vs-serial comparison). With a
 * recorder, the submit and drain calls get spans
 * ("serving_engine.submit", "serving_engine.drain" or
 * "sharded_drain.drain").
 */
serve::ServingReport serveTrace(const Workload &w,
                                const serve::DevicePool &pool,
                                const serve::ArrivalTrace &trace,
                                CallProbes *probes = nullptr,
                                SpanRecorder *spans = nullptr,
                                std::size_t shards_override = 0,
                                std::size_t threads_override = 0);

/** Host time to build and execute a sample of a workload's programs. */
struct ProgramTiming
{
    std::size_t programs = 0;
    double buildMs = 0.0; ///< summed over the programs
    double runMs = 0.0;   ///< summed over the programs
};

/** Build and execute a fixed sample of the program shapes @p w's drain
 *  compiles, drawn from @p trace, with the pool's own builders and
 *  device configurations. */
ProgramTiming timePrograms(const Workload &w, const serve::DevicePool &pool,
                           const serve::ArrivalTrace &trace);

/** What the correctness audit found. */
struct Audit
{
    std::size_t offered = 0;
    /** Offered requests that did not complete exactly once (missing,
     *  duplicated, or shed). */
    std::size_t notExactlyOnce = 0;
    /** Results whose id is out of range or whose request shape differs
     *  from the trace row it claims to serve. */
    std::size_t foreignResults = 0;
    bool tokensMatch = true;    ///< report.generatedTokens == sum of outputs
    bool kvReleased = true;     ///< kvTokensEnd and kvBlocksLeaked all 0
    bool dispatchBalance = true; ///< sum dispatched == requests +
                                 ///< preemptions + kvTransfers

    /** True iff no check failed. */
    bool clean() const;

    /** Requests counted as failed: every offered request when a
     *  fleet-wide check fails, else notExactlyOnce + foreignResults. */
    std::size_t failed() const;

    /** Comma-separated names of the failed checks ("" when clean). */
    std::string violations() const;
};

/** Audit @p report against the @p trace it served. */
Audit auditReport(const serve::ServingReport &report,
                  const serve::ArrivalTrace &trace);

/** FNV-1a digest over every per-request simulated result (completion
 *  order) and the report's simulated scalars, as 16 hex digits. */
std::string digest(const serve::ServingReport &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
