/**
 * @file
 * Sharded parallel simulation: split one serving drain into S
 * independent sub-cluster drains and merge their reports
 * deterministically.
 *
 * A drain over R replicas partitions into S shards: shard s owns the
 * contiguous replica range [s*R/S, (s+1)*R/S) and every request whose
 * position in the (arrival-sorted) trace is congruent to s mod S — a
 * deterministic routing pre-pass that replaces the global router's
 * replica choice *across* shards while the shard-local router still
 * places each request *within* its shard. Session-tagged traces
 * assign *whole sessions* instead: a session's shard is fixed by the
 * same round-robin counter at its first row (a cross-shard turn could
 * never hit its prefix cache), and a tagless trace reduces exactly to
 * the per-request assignment. The options get a plain engine's one
 * check, once, on the calling thread; then every row passes
 * ServingEngine::submit's checks against the trace's previous row, with
 * its messages, before any shard runs. Each shard then runs an
 * ordinary drain on its own event loop over its own replicas'
 * CompiledModels, so shards execute concurrently. Besides the merge
 * below, they share only the pool's program stores (equal replicas in
 * different shards use one): a store is mutex-guarded, and its entries
 * are pure functions of their keys, so sharing changes no result.
 * A shard that fails does not take the process down: after every
 * worker has joined, the lowest-indexed shard's exception is rethrown
 * to the caller, for any thread count.
 *
 * Determinism contract (tested by test_sharded_drain.cc, specified in
 * docs/PERFORMANCE.md):
 *  - The merged ServingReport is a pure function of the per-shard
 *    reports: running the S shards on 1 thread or N threads produces
 *    bit-identical results, field for field.
 *  - With shards == 1 the merged report is bit-identical to a plain
 *    ServingEngine::drain of the same trace on the same pool.
 *  - With shards > 1 the partition itself (not the execution) changes
 *    which replica serves which request, exactly as documented above —
 *    the simulation of the chosen partition is still exact and
 *    reproducible.
 *
 * Merged results keep completion order *within* each shard and
 * interleave shards by completion tick (ties: lowest shard first), so
 * a single-shard merge is the identity. Each request is held once on
 * the way in and once on the way out. A shard's drain reads its rows
 * of the caller's trace in place, through the shard's slice index,
 * instead of copying them into a submit queue. It keeps no results
 * either: it maps each one back to its trace position and pool index
 * and publishes them in fixed-size chunks. After a publish, a worker
 * takes the merge lock if it is free (the shard furthest behind leaves
 * it to the others) and moves every result whose place is known into
 * the merged results, reserved once for the trace and filled front to
 * back: result (t, s) is placed once every other unfinished shard has
 * published a result ordered after it. No worker waits for another;
 * the caller places what is left after the join. Emptied chunks are
 * recycled.
 *
 * Closed-loop clients (completion hooks / inject) are inherently
 * cross-shard feedback and are not supported here — use
 * ServingEngine directly for those drains.
 */

#ifndef IANUS_SERVE_SHARDED_DRAIN_HH
#define IANUS_SERVE_SHARDED_DRAIN_HH

#include <functional>
#include <memory>
#include <string>

#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace ianus::serve
{

/** How a sharded drain partitions and executes. */
struct ShardOptions
{
    /** Sub-clusters to split the pool into; must be in
     *  [1, pool.size()]. 1 reproduces ServingEngine::drain bit for
     *  bit. */
    std::size_t shards = 1;

    /** Worker threads running the shards: 0 = one per shard, 1 = run
     *  the shards serially on the calling thread (the reference
     *  execution the parallel one must match bit for bit), k = at
     *  most k concurrent shards. Thread count never affects results.
     *  It does affect memory: with fewer threads than shards, the
     *  shards that run first hold all their results in the merge
     *  stream until the later shards publish, since nothing is placed
     *  before every unfinished shard has published past it. So 1 is
     *  the reference for tests and traced comparisons, not a way to
     *  save memory. */
    std::size_t threads = 0;
};

/** Fresh per-shard policy / router instances (each shard owns its own
 *  — router state like the round-robin cursor is shard-local by
 *  design). A null factory means the engine default (FCFS /
 *  round-robin). */
using PolicyFactory =
    std::function<std::unique_ptr<SchedulingPolicy>()>;
using RouterFactory = std::function<std::unique_ptr<Router>()>;

/**
 * Drain @p trace over @p pool, split @p shard.shards ways, and merge.
 * The trace must be arrival-sorted (ArrivalTrace's invariant).
 */
ServingReport drainSharded(const DevicePool &pool,
                           const ServingOptions &opts,
                           const ArrivalTrace &trace,
                           const ShardOptions &shard,
                           const PolicyFactory &policy = {},
                           const RouterFactory &router = {});

/** Name-based convenience: policies/routers by makePolicy/makeRouter
 *  names, one fresh instance per shard. A "slo-budget" router budgets
 *  with @p opts.sloMsPerToken, the SLO the report's deadline misses
 *  use. */
ServingReport drainSharded(const DevicePool &pool,
                           const ServingOptions &opts,
                           const ArrivalTrace &trace,
                           const ShardOptions &shard,
                           const std::string &policy,
                           const std::string &router);

} // namespace ianus::serve

#endif // IANUS_SERVE_SHARDED_DRAIN_HH
