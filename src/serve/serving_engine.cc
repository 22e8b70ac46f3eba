#include "serve/serving_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/logging.hh"
#include "serve/drain.hh"

namespace ianus::serve
{

// --- Scheduling policies ----------------------------------------------------

std::vector<std::size_t>
FcfsPolicy::selectBatch(const std::vector<QueuedRequest> &queue,
                        const SchedulerContext &ctx)
{
    (void)queue;
    (void)ctx;
    return {0};
}

std::vector<std::size_t>
SchedulingPolicy::selectBatch(const std::vector<QueuedRequest> &queue,
                              const SchedulerContext &ctx)
{
    // Dispatch order and preemption urgency share one key, so an
    // eviction always makes room for the request the next admission
    // round would pick anyway. Queue indices ascend by urgency, stable:
    // ties keep arrival order.
    std::vector<std::size_t> order(queue.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return urgency(queue[a], ctx) <
                                urgency(queue[b], ctx);
                     });
    return order;
}

double
SchedulingPolicy::urgency(const QueuedRequest &q,
                          const SchedulerContext &ctx) const
{
    (void)ctx;
    return q.arrivalMs;
}

double
SjfPolicy::urgency(const QueuedRequest &q,
                   const SchedulerContext &ctx) const
{
    (void)ctx;
    return static_cast<double>(q.request.inputTokens) +
           8.0 * static_cast<double>(q.request.outputTokens);
}

double
EdfPolicy::urgency(const QueuedRequest &q,
                   const SchedulerContext &ctx) const
{
    return deadlineMs(q.arrivalMs, q.request, ctx.sloMsPerToken);
}

std::unique_ptr<SchedulingPolicy>
makePolicy(const std::string &name)
{
    if (name == "fcfs")
        return std::make_unique<FcfsPolicy>();
    if (name == "sjf")
        return std::make_unique<SjfPolicy>();
    if (name == "edf")
        return std::make_unique<EdfPolicy>();
    IANUS_FATAL("unknown scheduling policy '", name,
                "' (expected fcfs, sjf, or edf)");
}

// --- Batching modes ---------------------------------------------------------

const char *
toString(BatchingMode mode)
{
    switch (mode) {
      case BatchingMode::None: return "none";
      case BatchingMode::Static: return "static";
      case BatchingMode::Continuous: return "continuous";
    }
    return "?";
}

BatchingMode
makeBatchingMode(const std::string &name)
{
    if (name == "none")
        return BatchingMode::None;
    if (name == "static")
        return BatchingMode::Static;
    if (name == "continuous")
        return BatchingMode::Continuous;
    IANUS_FATAL("unknown batching mode '", name,
                "' (expected none, static, or continuous)");
}

// --- Routers ----------------------------------------------------------------

std::size_t
RoundRobinRouter::route(const QueuedRequest &request,
                        const std::vector<ReplicaStatus> &replicas,
                        double now_ms)
{
    (void)request;
    (void)now_ms;
    if (replicas.empty())
        IANUS_FATAL("round-robin router called with no accepting replica");
    // Rows come in index order: the first offered replica at or after
    // the cursor, else the first one.
    auto it = std::find_if(
        replicas.begin(), replicas.end(),
        [this](const ReplicaStatus &r) { return r.index >= cursor_; });
    const ReplicaStatus &pick = it != replicas.end() ? *it : replicas.front();
    cursor_ = pick.index + 1;
    return pick.index;
}

std::size_t
LeastLoadedRouter::route(const QueuedRequest &request,
                         const std::vector<ReplicaStatus> &replicas,
                         double now_ms)
{
    (void)request;
    (void)now_ms;
    const ReplicaStatus *best = nullptr;
    for (const ReplicaStatus &r : replicas) {
        if (!best || r.busyMs < best->busyMs ||
            (r.busyMs == best->busyMs && r.dispatched < best->dispatched))
            best = &r;
    }
    if (!best)
        IANUS_FATAL("least-loaded router called with no accepting replica");
    return best->index;
}

std::size_t
QueueDepthRouter::route(const QueuedRequest &request,
                        const std::vector<ReplicaStatus> &replicas,
                        double now_ms)
{
    (void)request;
    (void)now_ms;
    const ReplicaStatus *best = nullptr;
    for (const ReplicaStatus &r : replicas) {
        auto key = [](const ReplicaStatus &s) {
            // kvPressure right after resident: a replica whose blocks
            // are spoken for is "deeper" than its batch slots show.
            // 0.0 everywhere when the KV manager is off, so the
            // ordering is then bit-identical to the pre-KV tuple.
            return std::make_tuple(s.resident, s.kvPressure,
                                   s.backlogTokens, s.busyMs,
                                   s.dispatched, s.index);
        };
        if (!best || key(r) < key(*best))
            best = &r;
    }
    if (!best)
        IANUS_FATAL("queue-depth router called with no accepting replica");
    return best->index;
}

namespace
{

/** The offered row of replica d, or null when d was not offered. */
const ReplicaStatus *
offeredRow(const std::vector<ReplicaStatus> &replicas, std::size_t d)
{
    auto it = std::find_if(
        replicas.begin(), replicas.end(),
        [d](const ReplicaStatus &r) { return r.index == d; });
    return it == replicas.end() ? nullptr : &*it;
}

/**
 * The predicted-finish score (see PredictedFinishRouter): the replica's
 * in-flight segment, then every pending prefill (exclusive, charged at
 * the candidate's prefill estimate), then the candidate's generation
 * dilated by the batch occupancy it joins.
 */
double
predictedFinishMs(const ReplicaStatus &r, double now_ms)
{
    double start = std::max(now_ms, r.freeAtMs);
    std::size_t generating = r.resident - r.pendingPrefill;
    double service =
        r.estPrefillMs * (1.0 + static_cast<double>(r.pendingPrefill)) +
        r.estGenMs * (1.0 + static_cast<double>(generating));
    // KV pressure dilates the service estimate: an overcommitted
    // replica serves every segment at spill-degraded cadence, and a
    // nearly-full one is one long admission away from it. x 1.0
    // exactly when the KV manager is off.
    return start + service * (1.0 + r.kvPressure);
}

/** Earliest predicted finish among accepting replicas, optionally
 *  restricted to those without parked suspended KV. */
const ReplicaStatus *
earliestFinish(const std::vector<ReplicaStatus> &replicas, double now_ms,
               bool skip_parked_kv)
{
    const ReplicaStatus *best = nullptr;
    double best_finish = 0.0;
    for (const ReplicaStatus &r : replicas) {
        if (skip_parked_kv && r.suspendedKv > 0)
            continue;
        double finish = predictedFinishMs(r, now_ms);
        if (!best || finish < best_finish ||
            (finish == best_finish && r.index < best->index))
            best = &r;
        if (best == &r)
            best_finish = finish;
    }
    return best;
}

} // namespace

std::size_t
PredictedFinishRouter::route(const QueuedRequest &request,
                             const std::vector<ReplicaStatus> &replicas,
                             double now_ms)
{
    (void)request;
    const ReplicaStatus *best = earliestFinish(replicas, now_ms, false);
    if (!best)
        IANUS_FATAL(
            "predicted-finish router called with no accepting replica");
    return best->index;
}

std::size_t
KvAffinityRouter::route(const QueuedRequest &request,
                        const std::vector<ReplicaStatus> &replicas,
                        double now_ms)
{
    // Affinity first: a resumed request's KV cache lives on exactly one
    // replica — go back to it whenever it accepts. (A live drain pins
    // resumes there before routing; this branch keeps the choice
    // function total.)
    if (request.resumed && offeredRow(replicas, request.boundReplica))
        return request.boundReplica;
    // Session stickiness second: a later turn whose prefix KV is still
    // pinned on one replica goes back to it — the delta-only re-prefill
    // there beats a full re-prefill anywhere else — unless that replica
    // is drowning in KV pressure, where re-prefilling elsewhere is
    // cheaper than queueing behind spill-degraded segments.
    const ReplicaStatus *hit = offeredRow(replicas, request.sessionHitReplica);
    if (hit && hit->kvPressure <= stickyPressureLimit)
        return hit->index;
    // Fresh work avoids replicas whose open slot is spoken for by a
    // parked evictee; among the rest, earliest predicted finish.
    const ReplicaStatus *best = earliestFinish(replicas, now_ms, true);
    if (!best)
        best = earliestFinish(replicas, now_ms, false);
    if (!best)
        IANUS_FATAL(
            "kv-affinity router called with no accepting replica");
    return best->index;
}

SloBudgetRouter::SloBudgetRouter(double slo_ms_per_token)
    : sloMsPerToken_(slo_ms_per_token)
{
    if (!(slo_ms_per_token > 0.0))
        IANUS_FATAL("slo-budget router needs a positive per-token SLO "
                    "in ms, got ",
                    slo_ms_per_token);
}

std::size_t
SloBudgetRouter::route(const QueuedRequest &request,
                       const std::vector<ReplicaStatus> &replicas,
                       double now_ms)
{
    // Feasible set: accepting replicas predicted to finish within the
    // candidate's completion budget. Among them, the *latest* predicted
    // finish wins (ties: lowest index) — spend the least replica that
    // still meets the deadline, and keep the fast ones free for
    // requests whose budgets actually need them.
    const double deadline =
        deadlineMs(request.arrivalMs, request.request, sloMsPerToken_);
    const ReplicaStatus *best = nullptr;
    double best_finish = 0.0;
    for (const ReplicaStatus &r : replicas) {
        const double finish = predictedFinishMs(r, now_ms);
        if (finish > deadline)
            continue;
        if (!best || finish > best_finish) {
            best = &r;
            best_finish = finish;
        }
    }
    if (best)
        return best->index;
    // Nobody meets the budget: degrade to predicted-finish (the
    // least-bad lateness) rather than wasting a slow replica's time on
    // a request that is already lost.
    const ReplicaStatus *fallback = earliestFinish(replicas, now_ms, false);
    if (!fallback)
        IANUS_FATAL("slo-budget router called with no accepting replica");
    return fallback->index;
}

std::unique_ptr<Router>
makeRouter(const std::string &name, double slo_ms_per_token)
{
    if (name == "round-robin" || name == "rr")
        return std::make_unique<RoundRobinRouter>();
    if (name == "least-loaded" || name == "ll")
        return std::make_unique<LeastLoadedRouter>();
    if (name == "queue-depth" || name == "qd")
        return std::make_unique<QueueDepthRouter>();
    if (name == "predicted-finish" || name == "pf")
        return std::make_unique<PredictedFinishRouter>();
    if (name == "kv-affinity" || name == "kv")
        return std::make_unique<KvAffinityRouter>();
    if (name == "slo-budget" || name == "slo")
        return std::make_unique<SloBudgetRouter>(slo_ms_per_token);
    IANUS_FATAL("unknown router '", name,
                "' (expected round-robin, least-loaded, queue-depth, "
                "predicted-finish, kv-affinity, or slo-budget)");
}

// --- ServingReport ----------------------------------------------------------

namespace
{

/** Where percentile @p p reads in @p n sorted samples: rank lo, and
 *  rank hi = lo + 1 weighted by frac — or lo alone (hi == lo) at a
 *  bound, where the value is read as is. */
struct PercentileRead
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;
};

PercentileRead
percentileRead(std::size_t n, double p)
{
    if (p <= 0.0)
        return {0, 0, 0.0};
    if (p >= 100.0)
        return {n - 1, n - 1, 0.0};
    double rank = p / 100.0 * static_cast<double>(n - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= n)
        return {n - 1, n - 1, 0.0};
    return {lo, lo + 1, rank - static_cast<double>(lo)};
}

/** Read all of @p ps off @p values, reordering it in place. Only the
 *  ranks the ps read are selected: std::nth_element per distinct rank,
 *  ascending, each over the tail past the previous one (everything
 *  there is >= it, so the tail holds exactly the higher order
 *  statistics, and a rank adjacent to the previous one is the tail's
 *  minimum). An order statistic is one value whatever the algorithm,
 *  so this equals reading a full sort. The percentile contract (see
 *  ServingReport::percentile): empty values yield 0.0, p clamps to
 *  [0, 100], NaN p is fatal. */
std::vector<double>
percentilesInPlace(std::vector<double> &values,
                   const std::vector<double> &ps)
{
    // NaN names no rank: reject it even on an empty sample, so the
    // caller's bug surfaces whatever the data happens to hold.
    for (double p : ps)
        if (std::isnan(p))
            IANUS_FATAL("percentile p must be a number (NaN names no "
                        "rank); p outside [0, 100] clamps");
    std::vector<double> out(ps.size(), 0.0);
    if (values.empty())
        return out;
    std::vector<std::size_t> ranks;
    ranks.reserve(2 * ps.size());
    for (double p : ps) {
        PercentileRead r = percentileRead(values.size(), p);
        ranks.push_back(r.lo);
        ranks.push_back(r.hi);
    }
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    auto from = values.begin();
    for (std::size_t rank : ranks) {
        auto at = values.begin() + static_cast<std::ptrdiff_t>(rank);
        if (at == from) // the next rank (or rank 0): one scan
            std::iter_swap(at, std::min_element(at, values.end()));
        else
            std::nth_element(from, at, values.end());
        from = at + 1;
    }
    for (std::size_t i = 0; i < ps.size(); ++i) {
        PercentileRead r = percentileRead(values.size(), ps[i]);
        out[i] = r.lo == r.hi ? values[r.lo]
                              : values[r.lo] + r.frac * (values[r.hi] -
                                                        values[r.lo]);
    }
    return out;
}

/** The sum of count(r) over @p results: the partial sums of @p slices
 *  slices, each taken on its own task, added in slice order. */
template <typename Count>
std::uint64_t
sumSlices(const std::vector<RequestResult> &results, std::size_t slices,
          Count count)
{
    std::vector<std::uint64_t> partial(slices, 0);
    forEachSlice(results.size(), slices,
                 [&](std::size_t s, std::size_t lo, std::size_t hi) {
                     std::uint64_t sum = 0;
                     for (std::size_t i = lo; i < hi; ++i)
                         sum += count(results[i]);
                     partial[s] = sum;
                 });
    std::uint64_t total = 0;
    for (std::uint64_t p : partial)
        total += p;
    return total;
}

/** One sample per result, gathered into a reused per-thread buffer
 *  that the slices fill in place: repeated summary()/percentile calls
 *  over a large report select in the same allocation instead of
 *  growing a fresh vector each time (thread_local keeps concurrent
 *  shard workers independent). */
template <typename Sample>
std::vector<double> &
gather(const std::vector<RequestResult> &results, std::size_t slices,
       Sample sample)
{
    thread_local std::vector<double> buf;
    // Named inside a task, buf would be the task thread's own buffer.
    std::vector<double> &out = buf;
    out.resize(results.size());
    forEachSlice(results.size(), slices,
                 [&](std::size_t, std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                         out[i] = sample(results[i]);
                 });
    return out;
}

/** The slices a pass over @p results takes. */
std::size_t
slicesOf(const std::vector<RequestResult> &results)
{
    return sliceCount(results.size(), resultSliceRows);
}

/** @p count over @p results as a fraction of the results (0 for none). */
double
rateOf(const std::vector<RequestResult> &results, ResultCount count)
{
    if (results.empty())
        return 0.0;
    return static_cast<double>(
               countResults(results, count, slicesOf(results))) /
           static_cast<double>(results.size());
}

} // namespace

std::vector<double>
ServingReport::percentiles(std::vector<double> values,
                           const std::vector<double> &ps)
{
    return percentilesInPlace(values, ps);
}

double
ServingReport::percentile(std::vector<double> values, double p)
{
    return percentiles(std::move(values), {p}).front();
}

std::uint64_t
countResults(const std::vector<RequestResult> &results, ResultCount what,
             std::size_t slices)
{
    switch (what) {
    case ResultCount::SloMisses:
        return sumSlices(results, slices, [](const RequestResult &r) {
            return std::uint64_t{r.sloMiss};
        });
    case ResultCount::DeadlineMisses:
        return sumSlices(results, slices, [](const RequestResult &r) {
            return std::uint64_t{r.deadlineMiss};
        });
    case ResultCount::Preemptions:
        return sumSlices(results, slices, [](const RequestResult &r) {
            return r.preemptions;
        });
    case ResultCount::GoodputTokens:
        return sumSlices(results, slices, [](const RequestResult &r) {
            return r.deadlineMiss ? 0 : r.request.outputTokens;
        });
    }
    IANUS_PANIC("unknown result count");
}

std::vector<double>
resultPercentiles(const std::vector<RequestResult> &results,
                  ResultSample what, const std::vector<double> &ps,
                  std::size_t slices)
{
    switch (what) {
    case ResultSample::Latency:
        return percentilesInPlace(
            gather(results, slices,
                   [](const RequestResult &r) { return r.totalMs(); }),
            ps);
    case ResultSample::Ttft:
        return percentilesInPlace(
            gather(results, slices,
                   [](const RequestResult &r) { return r.firstTokenMs; }),
            ps);
    case ResultSample::Service:
        return percentilesInPlace(
            gather(results, slices,
                   [](const RequestResult &r) { return r.serviceMs; }),
            ps);
    }
    IANUS_PANIC("unknown result sample");
}

std::vector<double>
ServingReport::latencyPercentiles(const std::vector<double> &ps) const
{
    return resultPercentiles(results, ResultSample::Latency, ps,
                             slicesOf(results));
}

double
ServingReport::latencyPercentile(double p) const
{
    return latencyPercentiles({p}).front();
}

std::vector<double>
ServingReport::ttftPercentiles(const std::vector<double> &ps) const
{
    return resultPercentiles(results, ResultSample::Ttft, ps,
                             slicesOf(results));
}

double
ServingReport::ttftPercentile(double p) const
{
    return ttftPercentiles({p}).front();
}

double
ServingReport::serviceTimePercentile(double p) const
{
    return resultPercentiles(results, ResultSample::Service, {p},
                             slicesOf(results))
        .front();
}

double
ServingReport::tokensPerSecond() const
{
    return makespanMs > 0.0
               ? static_cast<double>(generatedTokens) /
                     (makespanMs / 1000.0)
               : 0.0;
}

double
ServingReport::sloMissRate() const
{
    return rateOf(results, ResultCount::SloMisses);
}

double
ServingReport::deadlineMissRate() const
{
    return rateOf(results, ResultCount::DeadlineMisses);
}

double
ServingReport::meanUtilization() const
{
    if (replicas.empty())
        return 0.0;
    double sum = 0.0;
    for (const ReplicaUtilization &r : replicas)
        sum += r.utilization;
    return sum / static_cast<double>(replicas.size());
}

std::uint64_t
ServingReport::preemptions() const
{
    return countResults(results, ResultCount::Preemptions, slicesOf(results));
}

double
ServingReport::preemptionRate() const
{
    if (results.empty())
        return 0.0;
    std::size_t evicted = 0;
    for (const RequestResult &r : results)
        evicted += r.preemptions > 0 ? 1 : 0;
    return static_cast<double>(evicted) /
           static_cast<double>(results.size());
}

double
ServingReport::kvShedRate() const
{
    const std::uint64_t offered =
        static_cast<std::uint64_t>(results.size()) + kvShed;
    return offered > 0
               ? static_cast<double>(kvShed) /
                     static_cast<double>(offered)
               : 0.0;
}

double
ServingReport::sloGoodputTokensPerSec() const
{
    if (makespanMs <= 0.0)
        return 0.0;
    const std::uint64_t good = countResults(
        results, ResultCount::GoodputTokens, slicesOf(results));
    return static_cast<double>(good) / (makespanMs / 1000.0);
}

double
ServingReport::prefixHitRate() const
{
    const std::uint64_t turns = prefixHits + prefixMisses;
    return turns > 0
               ? static_cast<double>(prefixHits) /
                     static_cast<double>(turns)
               : 0.0;
}

std::size_t
ServingReport::sessions() const
{
    std::set<std::uint64_t> ids;
    for (const RequestResult &r : results)
        if (r.sessionId != 0)
            ids.insert(r.sessionId);
    return ids.size();
}

std::vector<double>
ServingReport::sessionLatenciesMs() const
{
    // First arrival to last finish per session, ascending session id —
    // a map keeps the order deterministic regardless of result order.
    std::map<std::uint64_t, std::pair<double, double>> span;
    for (const RequestResult &r : results) {
        if (r.sessionId == 0)
            continue;
        auto [it, fresh] = span.emplace(
            r.sessionId, std::make_pair(r.arrivalMs, r.finishMs));
        if (!fresh) {
            it->second.first = std::min(it->second.first, r.arrivalMs);
            it->second.second = std::max(it->second.second, r.finishMs);
        }
    }
    std::vector<double> out;
    out.reserve(span.size());
    for (const auto &[id, s] : span)
        out.push_back(s.second - s.first);
    return out;
}

double
ServingReport::sessionLatencyPercentile(double p) const
{
    std::vector<double> lat = sessionLatenciesMs();
    return percentilesInPlace(lat, {p}).front();
}

std::vector<SourceSlice>
ServingReport::sourceSlices() const
{
    // Bucket by source id; a map keeps ascending-source order whatever
    // order the results completed in. The slices partition results
    // exactly (every result lands in exactly one bucket), which is the
    // conservation identity the mixed-drain invariant sweep checks.
    std::map<std::uint32_t, std::vector<const RequestResult *>> buckets;
    for (const RequestResult &r : results)
        buckets[r.source].push_back(&r);

    std::vector<SourceSlice> out;
    out.reserve(buckets.size());
    for (const auto &[source, rs] : buckets) {
        SourceSlice s;
        s.source = source;
        s.requests = rs.size();
        std::vector<double> ttft, lat;
        ttft.reserve(rs.size());
        lat.reserve(rs.size());
        std::size_t slo_misses = 0, deadline_misses = 0;
        std::uint64_t met_tokens = 0;
        for (const RequestResult *r : rs) {
            s.generatedTokens += r->request.outputTokens;
            ttft.push_back(r->firstTokenMs);
            lat.push_back(r->totalMs());
            slo_misses += r->sloMiss ? 1 : 0;
            deadline_misses += r->deadlineMiss ? 1 : 0;
            if (!r->deadlineMiss)
                met_tokens += r->request.outputTokens;
        }
        std::vector<double> tp = percentilesInPlace(ttft, {50.0, 95.0});
        s.ttftP50Ms = tp[0];
        s.ttftP95Ms = tp[1];
        std::vector<double> lp = percentilesInPlace(lat, {50.0, 95.0});
        s.latencyP50Ms = lp[0];
        s.latencyP95Ms = lp[1];
        const double n = static_cast<double>(rs.size());
        s.sloMissRate = n > 0.0 ? static_cast<double>(slo_misses) / n : 0.0;
        s.deadlineMissRate =
            n > 0.0 ? static_cast<double>(deadline_misses) / n : 0.0;
        // The fleet makespan, not a per-slice span: per-source goodputs
        // must add up to the fleet's sloGoodputTokensPerSec().
        s.goodputTokensPerSec =
            makespanMs > 0.0
                ? static_cast<double>(met_tokens) / (makespanMs / 1000.0)
                : 0.0;
        out.push_back(s);
    }
    return out;
}

double
ServingReport::meanBatchOccupancy() const
{
    double steps = 0.0;
    double weighted = 0.0;
    for (const RequestResult &r : results) {
        double s = static_cast<double>(r.generationSteps);
        steps += s;
        weighted += s * r.meanBatchSize;
    }
    return steps > 0.0 ? weighted / steps : 0.0;
}

std::string
ServingReport::summary() const
{
    std::vector<double> lat = latencyPercentiles({50.0, 95.0, 99.0});
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "%zu requests | %llu tokens | %.1f ms makespan | "
        "%.1f tok/s | latency p50/p95/p99 %.1f/%.1f/%.1f ms | "
        "SLO(<%.0f ms/token) miss rate %.1f%%",
        requests(), (unsigned long long)generatedTokens, makespanMs,
        tokensPerSecond(), lat[0], lat[1], lat[2], sloMsPerToken,
        100.0 * sloMissRate());
    std::string out = buf;
    if (replicas.size() > 1) {
        std::snprintf(buf, sizeof(buf),
                      " | %zu replicas (%s, mean util %.0f%%)",
                      replicas.size(), router.c_str(),
                      100.0 * meanUtilization());
        out += buf;
    }
    if (!batching.empty() && batching != "none") {
        std::snprintf(buf, sizeof(buf),
                      " | batching %s (max %zu, occupancy %.2f)",
                      batching.c_str(), maxBatch, meanBatchOccupancy());
        out += buf;
    }
    if (prefillChunk > 0) {
        std::snprintf(buf, sizeof(buf), " | prefill chunk %llu",
                      (unsigned long long)prefillChunk);
        out += buf;
    }
    if (preempt) {
        std::snprintf(buf, sizeof(buf),
                      " | preempt: %llu evictions (%.0f%% of requests)",
                      (unsigned long long)preemptions(),
                      100.0 * preemptionRate());
        out += buf;
    }
    if (kv.enabled()) {
        std::snprintf(
            buf, sizeof(buf),
            " | kv %llu tok (block %llu, %s, %s): peak pressure %.2f, "
            "frag %.1f%%, shed %llu (%.1f%%), spilled segs %llu",
            (unsigned long long)kv.capacityTokens,
            (unsigned long long)kv.blockTokens, toString(kv.admission),
            toString(kv.layout), kvPeakPressure,
            100.0 * kvMeanFragmentation, (unsigned long long)kvShed,
            100.0 * kvShedRate(), (unsigned long long)kvSpilledSegments);
        out += buf;
    }
    if (typedRoles(roles)) {
        std::size_t pre = 0, dec = 0, uni = 0;
        for (ReplicaRole r : roles) {
            if (r == ReplicaRole::Prefill)
                ++pre;
            else if (r == ReplicaRole::Decode)
                ++dec;
            else
                ++uni;
        }
        std::snprintf(buf, sizeof(buf),
                      " | roles %zuP/%zuD/%zuU: %llu handoffs, %.3f GB "
                      "over the KV link in %.1f ms",
                      pre, dec, uni, (unsigned long long)kvTransfers,
                      kvTransferGB, kvTransferMs);
        out += buf;
    }
    if (prefixHits + prefixMisses > 0) {
        std::snprintf(
            buf, sizeof(buf),
            " | sessions %zu: prefix hit %.0f%%, %llu prefill tok saved, "
            "session p95 %.1f ms",
            sessions(), 100.0 * prefixHitRate(),
            (unsigned long long)prefillTokensSaved,
            sessionLatencyPercentile(95.0));
        out += buf;
    }
    return out;
}

// --- ServingEngine ----------------------------------------------------------

ServingEngine::ServingEngine(const CompiledModel &model,
                             ServingOptions opts,
                             std::unique_ptr<SchedulingPolicy> policy)
    : ServingEngine(std::vector<const CompiledModel *>{&model},
                    std::move(opts), std::move(policy), nullptr)
{
}

ServingEngine::ServingEngine(const DevicePool &pool, ServingOptions opts,
                             std::unique_ptr<SchedulingPolicy> policy,
                             std::unique_ptr<Router> router)
    : opts_(withPoolRoles(pool, std::move(opts))),
      policy_(orDefault(std::move(policy))),
      router_(orDefault(std::move(router)))
{
    if (pool.empty())
        IANUS_FATAL("serving engine needs a non-empty device pool");
    replicas_.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
        replicas_.push_back(&pool.replica(i));
    checkOptions(opts_, replicas_.size());
}

ServingEngine::ServingEngine(std::vector<const CompiledModel *> replicas,
                             ServingOptions opts,
                             std::unique_ptr<SchedulingPolicy> policy,
                             std::unique_ptr<Router> router)
    : replicas_(std::move(replicas)), opts_(std::move(opts)),
      policy_(orDefault(std::move(policy))),
      router_(orDefault(std::move(router)))
{
    if (replicas_.empty())
        IANUS_FATAL("serving engine needs a non-empty replica view");
    for (const CompiledModel *m : replicas_)
        if (!m)
            IANUS_FATAL("serving engine replica view holds a null model");
    checkOptions(opts_, replicas_.size());
}

void
checkOptions(const ServingOptions &opts, std::size_t replicas)
{
    if (opts.tokenStride == 0)
        IANUS_FATAL("token stride must be positive (1 = exact)");
    if (opts.sloMsPerToken <= 0.0)
        IANUS_FATAL("SLO must be a positive per-token latency in ms");
    if (opts.maxBatch == 0)
        IANUS_FATAL("max batch must be at least 1");
    if (opts.maxBatch > 1 && opts.batching == BatchingMode::None)
        IANUS_FATAL("max batch ", opts.maxBatch,
                    " needs a batching mode (static or continuous)");
    if (opts.preempt && opts.batching == BatchingMode::Static)
        IANUS_FATAL("preemption cannot evict from a sealed static "
                    "batch; use batching none or continuous");
    opts.kv.check();
    if (std::isnan(opts.kvLinkGBs) || opts.kvLinkGBs < 0.0)
        IANUS_FATAL("KV link bandwidth must be a non-negative GB/s "
                    "value (0 derives it from the source replica's PCIe "
                    "parameters), got ",
                    opts.kvLinkGBs);
    if (!opts.roles.empty()) {
        if (opts.roles.size() != replicas)
            IANUS_FATAL("roles list has ", opts.roles.size(),
                        " entries for ", replicas, " replicas");
        if (const char *lack = missingRoleCapability(opts.roles))
            IANUS_FATAL("a disaggregated pool needs at least one ", lack,
                        "-capable (", lack, " or unified) replica");
        if (typedRoles(opts.roles) && opts.batching == BatchingMode::Static)
            IANUS_FATAL("disaggregated pools cannot use static "
                        "batching: a KV handoff joins a running decode "
                        "batch at a token boundary, and a sealed batch "
                        "admits no one");
    }
}

void
ServingEngine::setCompletionHook(CompletionHook hook)
{
    onComplete_ = std::move(hook);
}

std::uint64_t
ServingEngine::inject(const workloads::InferenceRequest &request,
                      double arrival_ms, std::uint32_t source)
{
    if (!injector_)
        IANUS_FATAL("inject() is only legal from inside a completion "
                    "hook during drain(); use submit() otherwise");
    checkRow({request, arrival_ms}, 0.0, [] { return ""; });
    return injector_(request, arrival_ms, source);
}

void
ServingEngine::reserve(std::size_t requests)
{
    queue_.reserve(requests);
}

std::uint64_t
ServingEngine::submit(const workloads::InferenceRequest &request,
                      double arrival_ms, std::uint64_t session_id,
                      std::uint64_t turn_index, std::uint64_t prefix_tokens,
                      std::uint32_t source)
{
    const TimedRequest row{request, arrival_ms, session_id, turn_index,
                           prefix_tokens, source};
    checkRow(row, lastArrivalMs_, [] { return ""; });
    lastArrivalMs_ = arrival_ms;
    if (queue_.empty())
        firstQueuedId_ = nextId_;
    queue_.push_back(row);
    return nextId_++;
}

} // namespace ianus::serve
