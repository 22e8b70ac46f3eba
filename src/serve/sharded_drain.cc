#include "serve/sharded_drain.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "serve/drain.hh"

namespace ianus::serve
{

namespace
{

struct ShardRun
{
    std::vector<const CompiledModel *> replicas;
    std::size_t replicaBase = 0;
    /** Global trace position of the shard's j-th row (== the
     *  shard-local request id j); freed once the shard has handed over
     *  its last result. */
    std::vector<std::size_t> globalIndex;
    ServingOptions opts;            ///< the drain's, with this shard's roles
    ServingReport report;           ///< everything but the results
    double lastFinish = 0.0;        ///< latest finish among its results
};

using Chunk = std::vector<RequestResult>;

/**
 * The shards' results on their way into the merged storage. Each shard
 * publishes its results, already mapped back to the trace and the
 * pool, in fixed-size chunks, in its completion order. Whichever
 * worker wins the merge lock after publishing moves every result
 * whose place is known into the merged storage, front to back, and
 * recycles the chunks it empties; a worker that loses the lock goes
 * back to its drain, so no worker ever waits on another.
 *
 * The merged order is (completion tick, shard, position). Each shard's
 * ticks never decrease, so the earliest unplaced result (t, s) has its
 * place once every other shard with nothing unplaced has finished or
 * has published a result ordered after (t, s): nothing that shard
 * publishes later can come before it.
 *
 * The shard furthest behind leaves the merging to the others: the
 * backlog waits on its results, and merging there would slow the very
 * shard it waits for. (When every publisher merges, the one behind
 * wins the lock nearly every time, places ~all the results, and falls
 * further behind: on million_sharded the backlog reached 90k-218k
 * results, 16-38 MiB.)
 */
class MergeStream
{
  public:
    /** Results per chunk: a 1024th of the trace, at least 1 and at most
     *  1024 (188 KB). A small drain streams result by result; a
     *  million-request one publishes about a thousand chunks. */
    const std::size_t chunkResults;

    MergeStream(std::size_t shards, std::size_t requests)
        : chunkResults(std::clamp<std::size_t>(requests / 1024, 1, 1024)),
          shared_(shards), lanes_(shards)
    {
        merged_.reserve(requests);
    }

    /** Shard @p s hands over @p chunk, its last results when @p last,
     *  and gets an empty one back; then merges what it can, unless it
     *  trails or another worker is merging. That worker looks again
     *  once it is done, so a publish is merged by the next one or, at
     *  the latest, by finish(). */
    void
    publish(std::size_t s, Chunk &chunk, bool last)
    {
        Chunk next;
        bool behind;
        {
            std::lock_guard<std::mutex> lock(mu_);
            Shared &sh = shared_[s];
            if (!chunk.empty()) {
                sh.progress.mark = msToTicks(chunk.back().finishMs);
                sh.progress.any = true;
                sh.published.push_back(std::move(chunk));
            }
            sh.progress.done = last;
            behind = trails(s);
            if (!free_.empty()) {
                next = std::move(free_.back());
                free_.pop_back();
            }
        }
        if (next.capacity() < chunkResults)
            next.reserve(chunkResults);
        chunk = std::move(next);

        pending_.store(true);
        if (behind)
            return;
        while (pending_.load()) {
            std::unique_lock<std::mutex> merging(mergeMu_, std::try_to_lock);
            if (!merging.owns_lock())
                return;
            pending_.store(false);
            mergeReady();
        }
    }

    /** After every shard has published its last chunk: place the rest
     *  and hand over the merged results. */
    std::vector<RequestResult>
    finish()
    {
        mergeReady();
        return std::move(merged_);
    }

  private:
    /** How far a shard has published. */
    struct Progress
    {
        Tick mark = 0;     ///< tick of the last result published
        bool any = false;  ///< published a result yet
        bool done = false; ///< published its last chunk
    };

    /** Has shard @p o, at @p p, finished or published a result ordered
     *  after (@p t, @p s)? Then nothing it publishes later comes
     *  before (t, s). */
    static bool
    past(const Progress &p, std::size_t o, Tick t, std::size_t s)
    {
        return p.done || (p.any && (p.mark > t || (p.mark == t && o > s)));
    }

    /** What a shard has published; guarded by mu_. */
    struct Shared
    {
        std::deque<Chunk> published;
        Progress progress;
    };

    /** A shard's unplaced results, and its progress when they were
     *  taken; guarded by mergeMu_. */
    struct Lane
    {
        std::deque<Chunk> chunks; ///< unplaced from chunks.front()[head]
        std::size_t head = 0;
        Tick tick = 0; ///< of the head result, while chunks is non-empty
        Progress progress;
    };

    /** Is shard @p s unfinished, with another shard unfinished and
     *  every such shard past its last result? Needs mu_. */
    bool
    trails(std::size_t s) const
    {
        const Progress &me = shared_[s].progress;
        bool others = false;
        for (std::size_t o = 0; o < shared_.size(); ++o) {
            const Progress &p = shared_[o].progress;
            if (o == s || p.done)
                continue;
            if (!past(p, o, me.mark, s))
                return false;
            others = true;
        }
        return others && !me.done;
    }

    /** Take what the shards published, then place results while the
     *  earliest unplaced one has its place. Needs mergeMu_, or every
     *  worker joined. */
    void
    mergeReady()
    {
        const std::size_t S = lanes_.size();
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (Chunk &c : spent_)
                free_.push_back(std::move(c));
            spent_.clear();
            for (std::size_t s = 0; s < S; ++s) {
                Shared &sh = shared_[s];
                Lane &l = lanes_[s];
                if (l.chunks.empty() && !sh.published.empty())
                    l.tick = msToTicks(sh.published.front().front().finishMs);
                for (Chunk &c : sh.published)
                    l.chunks.push_back(std::move(c));
                sh.published.clear();
                l.progress = sh.progress;
            }
        }
        for (;;) {
            std::size_t pick = S;
            for (std::size_t s = 0; s < S; ++s)
                if (!lanes_[s].chunks.empty() &&
                    (pick == S || lanes_[s].tick < lanes_[pick].tick))
                    pick = s;
            if (pick == S)
                return;
            const Tick t = lanes_[pick].tick;
            for (std::size_t s = 0; s < S; ++s)
                if (s != pick && lanes_[s].chunks.empty() &&
                    !past(lanes_[s].progress, s, t, pick))
                    return;
            place(lanes_[pick]);
        }
    }

    void
    place(Lane &l)
    {
        Chunk &from = l.chunks.front();
        merged_.push_back(from[l.head]);
        if (++l.head == from.size()) {
            from.clear();
            spent_.push_back(std::move(from));
            l.chunks.pop_front();
            l.head = 0;
        }
        if (!l.chunks.empty())
            l.tick = msToTicks(l.chunks.front()[l.head].finishMs);
    }

    std::mutex mu_;
    std::vector<Shared> shared_;
    std::vector<Chunk> free_; ///< emptied chunks, to publish again

    std::atomic<bool> pending_{false}; ///< a publish not yet merged
    std::mutex mergeMu_;
    std::vector<Lane> lanes_;
    std::vector<Chunk> spent_; ///< emptied since the last take
    std::vector<RequestResult> merged_;
};

/** A shard drain's sink: maps each result back to the trace and the
 *  pool and publishes them a chunk at a time. */
class ShardWriter final : public ResultSink
{
  public:
    ShardWriter(MergeStream &stream, std::size_t shard, ShardRun &run)
        : stream_(stream), shard_(shard), run_(run)
    {
        chunk_.reserve(stream.chunkResults);
    }
    // The drain holds this writer's address.
    ShardWriter(const ShardWriter &) = delete;
    ShardWriter &operator=(const ShardWriter &) = delete;

    void
    put(RequestResult &&res) override
    {
        if (res.id >= run_.globalIndex.size())
            IANUS_FATAL("shard ", shard_, " produced request id ", res.id,
                        " beyond its ", run_.globalIndex.size(),
                        "-request slice");
        res.id = run_.globalIndex[static_cast<std::size_t>(res.id)];
        res.deviceIndex += run_.replicaBase;
        res.prefillIndex += run_.replicaBase;
        lastFinish_ = std::max(lastFinish_, res.finishMs);
        chunk_.push_back(std::move(res));
        if (chunk_.size() == stream_.chunkResults)
            stream_.publish(shard_, chunk_, false);
    }

    /** Publish the last results: the shard is done. */
    void
    close()
    {
        run_.lastFinish = lastFinish_;
        stream_.publish(shard_, chunk_, true);
    }

  private:
    MergeStream &stream_;
    const std::size_t shard_;
    ShardRun &run_;
    Chunk chunk_;
    /** Kept here, on the worker's stack, until close(): the shards'
     *  runs lie side by side, and a write per result there would
     *  share a cache line with the next shard's drain inputs. */
    double lastFinish_ = 0.0;
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
    // The options a plain engine over the pool runs, roles included,
    // checked once on this thread before any row is read.
    const ServingOptions all = withPoolRoles(pool, opts);
    checkOptions(all, R);

    // Partition: contiguous replica ranges, round-robin trace pre-pass.
    // Role-typed pools shard by the same contiguous partition: shard s
    // takes its replicas' roles with it, and every shard must stay
    // independently viable — a slice of nothing but prefill (or
    // decode) replicas has no peer to hand its KV to.
    std::vector<ShardRun> runs(S);
    for (std::size_t s = 0; s < S; ++s) {
        const std::size_t lo = s * R / S;
        const std::size_t hi = (s + 1) * R / S;
        runs[s].replicaBase = lo;
        runs[s].replicas.reserve(hi - lo);
        for (std::size_t d = lo; d < hi; ++d)
            runs[s].replicas.push_back(&pool.replica(d));
        runs[s].globalIndex.reserve(trace.requests.size() / S + 1);
        runs[s].opts = all;
        if (!all.roles.empty()) {
            runs[s].opts.roles.assign(all.roles.begin() + lo,
                                      all.roles.begin() + hi);
            if (const char *lack = missingRoleCapability(runs[s].opts.roles))
                IANUS_FATAL(
                    "shard ", s, " owns replicas [", lo, ", ", hi,
                    ") with no ", lack,
                    "-capable member: roles must partition cleanly "
                    "across shards (a handoff never crosses a shard)");
        }
    }
    // Whole sessions stay on one shard (a cross-shard turn could never
    // hit its prefix cache): a session's shard is fixed by the
    // round-robin counter at its first trace row, and single-turn rows
    // spend counter positions the same way — so a tagless trace
    // reduces exactly to the original `i % S` assignment. No shard
    // submits, so every row meets the row contract here, against the
    // trace's previous row, before any shard runs: a plain drain's
    // checks, with its messages.
    std::map<std::uint64_t, std::size_t> sessionShard;
    double last_arrival = 0.0;
    std::size_t rr = 0;
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        const TimedRequest &row = trace.requests[i];
        checkRow(row, last_arrival, [] { return ""; });
        last_arrival = row.arrivalMs;
        std::size_t s;
        if (row.sessionId == 0) {
            s = rr++ % S;
        } else {
            auto [it, fresh] = sessionShard.emplace(row.sessionId, rr % S);
            if (fresh)
                ++rr;
            s = it->second;
        }
        runs[s].globalIndex.push_back(i);
    }

    // Run every shard: an ordinary single-threaded drain over its own
    // replicas, reading its trace rows in place through its slice
    // index. Shards share the pool's program stores, which lock and
    // hold pure functions of their keys, and the merge stream, whose
    // order is fixed by the results alone; so the thread count is pure
    // wall-clock policy — results cannot depend on it.
    MergeStream stream(S, trace.requests.size());
    auto runShard = [&](std::size_t s) {
        ShardRun &r = runs[s];
        const std::unique_ptr<SchedulingPolicy> p =
            orDefault(policy ? policy() : nullptr);
        const std::unique_ptr<Router> rt =
            orDefault(router ? router() : nullptr);
        ShardWriter out(stream, s, r);
        r.report = drainRows(r.replicas, r.opts, *p, *rt,
                             {trace.requests.data(), r.globalIndex.data(),
                              r.globalIndex.size(), 0},
                             out);
        out.close();
        std::vector<std::size_t>().swap(r.globalIndex);
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

    // Results interleave by (completion tick, shard index), keeping each
    // shard's own completion order; the workers have placed all but the
    // last few. With S == 1 the order is the drain's own, and the whole
    // report matches a plain drain bit for bit. (A global re-sort by the
    // double finishMs would not: within one tick the engine's
    // completion order is authoritative.)
    ServingReport out;
    echoOptions(out, runs[0].report.policy, runs[0].report.router, opts);
    out.roles = all.roles;
    out.shards = S;
    out.replicas.assign(R, ReplicaUtilization{});
    out.results = stream.finish();

    // Scalars merge additively (sums of exact counters, maxima of
    // peaks); the makespan re-anchors the last completion of any shard
    // to the *global* first arrival.
    const double first_arrival =
        trace.requests.empty() ? 0.0 : trace.requests.front().arrivalMs;
    double last_finish = first_arrival;
    for (const ShardRun &r : runs) {
        last_finish = std::max(last_finish, r.lastFinish);
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
    out.makespanMs = last_finish - first_arrival;
    closeReport(out);
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
        [&router, &opts] { return makeRouter(router, opts.sloMsPerToken); });
}

} // namespace ianus::serve
