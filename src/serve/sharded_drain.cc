#include "serve/sharded_drain.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"

namespace ianus::serve
{

namespace
{

struct ShardRun
{
    std::vector<const CompiledModel *> replicas;
    std::size_t replicaBase = 0;
    /** Global trace position of the shard's j-th submitted request
     *  (== the shard-local request id j the engine assigns). */
    std::vector<std::size_t> globalIndex;
    std::vector<ReplicaRole> roles; ///< this shard's slice (may be empty)
    ServingReport report;
};

} // namespace

ServingReport
drainSharded(const DevicePool &pool, const ServingOptions &opts,
             const ArrivalTrace &trace, const ShardOptions &shard,
             const PolicyFactory &policy, const RouterFactory &router)
{
    const std::size_t R = pool.size();
    if (R == 0)
        IANUS_FATAL("sharded drain needs a non-empty device pool");
    const std::size_t S = shard.shards;
    if (S == 0 || S > R)
        IANUS_FATAL("shard count must be in [1, ", R,
                    " replicas], got ", S);

    // Role-typed pools shard by the same contiguous partition: shard s
    // takes its replicas' roles with it, and every shard must stay
    // independently viable — a slice of nothing but prefill (or
    // decode) replicas has no peer to hand its KV to. Explicit roles
    // on the options win; a typed pool with no explicit roles
    // contributes its own, exactly as ServingEngine's pool ctor does.
    std::vector<ReplicaRole> roles = opts.roles;
    if (roles.empty() && pool.disaggregated())
        roles = pool.roles();
    if (!roles.empty() && roles.size() != R)
        IANUS_FATAL("roles list has ", roles.size(), " entries for ", R,
                    " replicas");

    // Partition: contiguous replica ranges, round-robin trace pre-pass.
    std::vector<ShardRun> runs(S);
    for (std::size_t s = 0; s < S; ++s) {
        const std::size_t lo = s * R / S;
        const std::size_t hi = (s + 1) * R / S;
        runs[s].replicaBase = lo;
        runs[s].replicas.reserve(hi - lo);
        for (std::size_t d = lo; d < hi; ++d)
            runs[s].replicas.push_back(&pool.replica(d));
        runs[s].globalIndex.reserve(trace.requests.size() / S + 1);
        if (!roles.empty()) {
            runs[s].roles.assign(roles.begin() + lo, roles.begin() + hi);
            bool typed = false, prefill_capable = false,
                 decode_capable = false;
            for (ReplicaRole role : runs[s].roles) {
                typed |= role != ReplicaRole::Unified;
                prefill_capable |= role != ReplicaRole::Decode;
                decode_capable |= role != ReplicaRole::Prefill;
            }
            if (typed && (!prefill_capable || !decode_capable))
                IANUS_FATAL(
                    "shard ", s, " owns replicas [", lo, ", ", hi,
                    ") with no ",
                    prefill_capable ? "decode" : "prefill",
                    "-capable member: roles must partition cleanly "
                    "across shards (a handoff never crosses a shard)");
        }
    }
    // Whole sessions stay on one shard (a cross-shard turn could never
    // hit its prefix cache): a session's shard is fixed by the
    // round-robin counter at its first trace row, and single-turn rows
    // spend counter positions the same way — so a tagless trace
    // reduces exactly to the original `i % S` assignment.
    std::map<std::uint64_t, std::size_t> sessionShard;
    std::size_t rr = 0;
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        const std::uint64_t sid = trace.requests[i].sessionId;
        std::size_t s;
        if (sid == 0) {
            s = rr++ % S;
        } else {
            auto [it, fresh] = sessionShard.emplace(sid, rr % S);
            if (fresh)
                ++rr;
            s = it->second;
        }
        runs[s].globalIndex.push_back(i);
    }

    // Run every shard: an ordinary single-threaded drain over its own
    // replicas and trace slice. The only state shards share is the
    // pool's program stores, which lock and hold pure functions of
    // their keys, so the thread count is pure wall-clock policy —
    // results cannot depend on it.
    auto runShard = [&](std::size_t s) {
        ShardRun &r = runs[s];
        ServingOptions sopts = opts;
        sopts.roles = r.roles;
        ServingEngine engine(r.replicas, sopts,
                             policy ? policy() : nullptr,
                             router ? router() : nullptr);
        for (std::size_t g : r.globalIndex)
            engine.submit(trace.requests[g].request,
                          trace.requests[g].arrivalMs,
                          trace.requests[g].sessionId,
                          trace.requests[g].turnIndex,
                          trace.requests[g].prefixTokens,
                          trace.requests[g].source);
        r.report = engine.drain();
    };

    // A failing shard must not escape a worker thread (that would call
    // std::terminate): each shard's exception is kept, and after every
    // worker has joined the lowest-indexed one is rethrown, whatever
    // the thread count.
    std::vector<std::exception_ptr> failures(S);
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t s = next.fetch_add(1); s < S;
             s = next.fetch_add(1)) {
            try {
                runShard(s);
            } catch (...) {
                failures[s] = std::current_exception();
            }
        }
    };
    std::size_t threads = shard.threads == 0 ? S : shard.threads;
    threads = std::min(threads, S);
    {
        // The calling thread works too. A jthread joins when the scope
        // ends, so a thread that fails to start cannot leave another
        // running.
        std::vector<std::jthread> workers;
        for (std::size_t t = 1; t < threads; ++t)
            workers.emplace_back(work);
        work();
    }
    for (const std::exception_ptr &failure : failures)
        if (failure)
            std::rethrow_exception(failure);

    // --- Deterministic merge ------------------------------------------
    // Results: k-way merge by (completion tick, shard index), keeping
    // each shard's internal completion order. Per-shard completion
    // ticks are non-decreasing, so with S == 1 the merge is the
    // identity and the whole report matches a plain drain bit for bit.
    // (A global re-sort by the double finishMs would not: within one
    // tick the engine's completion order is authoritative.)
    ServingReport out;
    const ServingReport &echo = runs[0].report;
    out.policy = echo.policy;
    out.router = echo.router;
    out.batching = echo.batching;
    out.maxBatch = echo.maxBatch;
    out.prefillChunk = echo.prefillChunk;
    out.preempt = echo.preempt;
    out.kv = echo.kv;
    out.sloMsPerToken = echo.sloMsPerToken;
    out.roles = roles;
    out.shards = S;
    out.replicas.assign(R, ReplicaUtilization{});

    std::size_t total = 0;
    for (const ShardRun &r : runs)
        total += r.report.results.size();
    out.results.reserve(total);

    std::vector<std::size_t> head(S, 0);
    for (;;) {
        std::size_t pick = S;
        Tick pick_tick = 0;
        for (std::size_t s = 0; s < S; ++s) {
            if (head[s] >= runs[s].report.results.size())
                continue;
            const Tick tick = msToTicks(
                runs[s].report.results[head[s]].finishMs);
            if (pick == S || tick < pick_tick) {
                pick = s;
                pick_tick = tick;
            }
        }
        if (pick == S)
            break;
        ShardRun &r = runs[pick];
        RequestResult res =
            std::move(r.report.results[head[pick]++]);
        // Shard-local id j is the j-th submit — map it back to the
        // request's global trace position and pool-wide replica index.
        if (res.id >= r.globalIndex.size())
            IANUS_FATAL("shard ", pick, " produced request id ", res.id,
                        " beyond its ", r.globalIndex.size(),
                        "-request slice");
        res.id = r.globalIndex[static_cast<std::size_t>(res.id)];
        res.deviceIndex += r.replicaBase;
        res.prefillIndex += r.replicaBase;
        out.results.push_back(std::move(res));
    }

    // Scalars merge additively (sums of exact counters, maxima of
    // peaks); the makespan re-anchors every shard's last completion to
    // the *global* first arrival.
    const double first_arrival =
        trace.requests.empty() ? 0.0 : trace.requests.front().arrivalMs;
    double last_finish = first_arrival;
    for (const ShardRun &r : runs) {
        const ServingReport &rep = r.report;
        for (std::size_t d = 0; d < rep.replicas.size(); ++d)
            out.replicas[r.replicaBase + d] = rep.replicas[d];
        out.generatedTokens += rep.generatedTokens;
        out.simEvents += rep.simEvents;
        out.kvShed += rep.kvShed;
        out.kvSpilledSegments += rep.kvSpilledSegments;
        out.prefixHits += rep.prefixHits;
        out.prefixMisses += rep.prefixMisses;
        out.prefillTokensSaved += rep.prefillTokensSaved;
        out.kvTransfers += rep.kvTransfers;
        out.kvTransferMs += rep.kvTransferMs;
        out.kvTransferGB += rep.kvTransferGB;
        out.kvPeakPressure =
            std::max(out.kvPeakPressure, rep.kvPeakPressure);
        out.kvMaxDilation = std::max(out.kvMaxDilation, rep.kvMaxDilation);
        out.kvFragWasteTokens += rep.kvFragWasteTokens;
        out.kvFragGrossTokens += rep.kvFragGrossTokens;
        out.aggregate.merge(rep.aggregate);
    }
    for (const RequestResult &res : out.results)
        last_finish = std::max(last_finish, res.finishMs);
    out.makespanMs = last_finish - first_arrival;
    out.kvMeanFragmentation =
        out.kvFragGrossTokens > 0
            ? static_cast<double>(out.kvFragWasteTokens) /
                  static_cast<double>(out.kvFragGrossTokens)
            : 0.0;
    for (ReplicaUtilization &u : out.replicas) {
        u.idleMs = std::max(0.0, out.makespanMs - u.busyMs);
        u.utilization =
            out.makespanMs > 0.0 ? u.busyMs / out.makespanMs : 0.0;
    }
    return out;
}

ServingReport
drainSharded(const DevicePool &pool, const ServingOptions &opts,
             const ArrivalTrace &trace, const ShardOptions &shard,
             const std::string &policy, const std::string &router)
{
    return drainSharded(
        pool, opts, trace, shard,
        [&policy] { return makePolicy(policy); },
        [&router] { return makeRouter(router); });
}

} // namespace ianus::serve
