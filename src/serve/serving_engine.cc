#include "serve/serving_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/logging.hh"
#include "sim/event_queue.hh"

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

namespace
{

/** The EDF completion budget: one definition for the scheduler's
 *  urgency key and both deadlineMiss accounting sites. */
double
deadlineMs(double arrival_ms, const workloads::InferenceRequest &req,
           double slo_ms_per_token)
{
    return arrival_ms +
           slo_ms_per_token * static_cast<double>(req.outputTokens);
}

/** The checks every request entering a drain passes, submitted before
 *  it or injected during it. */
void
validateRequest(const workloads::InferenceRequest &req, double arrival_ms)
{
    if (req.inputTokens == 0)
        IANUS_FATAL("inference request needs at least one input token");
    if (req.outputTokens == 0)
        IANUS_FATAL("inference request needs at least one output token");
    if (!std::isfinite(arrival_ms) || arrival_ms < 0.0)
        IANUS_FATAL("request arrival must be a finite non-negative time "
                    "in ms, got ",
                    arrival_ms);
}

/** Queue indices ordered by ascending @p key (stable: arrival order). */
template <typename KeyFn>
std::vector<std::size_t>
orderBy(const std::vector<QueuedRequest> &queue, KeyFn key)
{
    std::vector<std::size_t> order(queue.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return key(queue[a]) < key(queue[b]);
                     });
    return order;
}

} // namespace

double
SchedulingPolicy::urgency(const QueuedRequest &q,
                          const SchedulerContext &ctx) const
{
    (void)ctx;
    return q.arrivalMs;
}

SjfPolicy::SjfPolicy(double output_weight) : outputWeight_(output_weight)
{
    if (output_weight < 0.0)
        IANUS_FATAL("SJF output weight must be non-negative, got ",
                    output_weight);
}

double
SjfPolicy::urgency(const QueuedRequest &q,
                   const SchedulerContext &ctx) const
{
    (void)ctx;
    return static_cast<double>(q.request.inputTokens) +
           outputWeight_ * static_cast<double>(q.request.outputTokens);
}

std::vector<std::size_t>
SjfPolicy::selectBatch(const std::vector<QueuedRequest> &queue,
                       const SchedulerContext &ctx)
{
    // Dispatch order and preemption urgency share one key, so an
    // eviction always makes room for the request the next admission
    // round would pick anyway.
    return orderBy(queue, [&](const QueuedRequest &q) {
        return urgency(q, ctx);
    });
}

double
EdfPolicy::urgency(const QueuedRequest &q,
                   const SchedulerContext &ctx) const
{
    return deadlineMs(q.arrivalMs, q.request, ctx.sloMsPerToken);
}

std::vector<std::size_t>
EdfPolicy::selectBatch(const std::vector<QueuedRequest> &queue,
                       const SchedulerContext &ctx)
{
    return orderBy(queue, [&](const QueuedRequest &q) {
        return urgency(q, ctx);
    });
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
    const std::size_t n = replicas.size();
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t d = (cursor_ + k) % n;
        if (replicas[d].idle) {
            cursor_ = (d + 1) % n;
            return d;
        }
    }
    IANUS_FATAL("round-robin router called with no idle replica");
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
        if (!r.idle)
            continue;
        if (!best || r.busyMs < best->busyMs ||
            (r.busyMs == best->busyMs && r.dispatched < best->dispatched))
            best = &r;
    }
    if (!best)
        IANUS_FATAL("least-loaded router called with no idle replica");
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
        if (!r.idle)
            continue;
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
        if (!r.idle)
            continue;
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
    if (request.resumed && request.boundReplica < replicas.size() &&
        replicas[request.boundReplica].idle)
        return request.boundReplica;
    // Session stickiness second: a later turn whose prefix KV is still
    // pinned on one replica goes back to it — the delta-only re-prefill
    // there beats a full re-prefill anywhere else — unless that replica
    // is drowning in KV pressure, where re-prefilling elsewhere is
    // cheaper than queueing behind spill-degraded segments.
    if (request.sessionHitReplica != QueuedRequest::noReplica &&
        request.sessionHitReplica < replicas.size()) {
        const ReplicaStatus &bound = replicas[request.sessionHitReplica];
        if (bound.idle && bound.kvPressure <= stickyPressureLimit)
            return bound.index;
    }
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
        if (!r.idle)
            continue;
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
 *  statistics). An order statistic is one value whatever the
 *  algorithm, so this equals reading a full sort. The percentile
 *  contract (see ServingReport::percentile): empty values yield 0.0,
 *  p clamps to [0, 100], NaN p is fatal. */
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

/** Gather one sample per result into a reused per-thread buffer:
 *  repeated summary()/percentile calls over a large report sort the
 *  same allocation instead of growing a fresh vector each time
 *  (thread_local keeps concurrent shard workers independent). */
template <typename Sample>
std::vector<double> &
gather(const std::vector<RequestResult> &results, Sample sample)
{
    thread_local std::vector<double> buf;
    buf.clear();
    buf.reserve(results.size());
    for (const RequestResult &r : results)
        buf.push_back(sample(r));
    return buf;
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

std::vector<double>
ServingReport::latencyPercentiles(const std::vector<double> &ps) const
{
    return percentilesInPlace(
        gather(results, [](const RequestResult &r) { return r.totalMs(); }),
        ps);
}

double
ServingReport::latencyPercentile(double p) const
{
    return latencyPercentiles({p}).front();
}

std::vector<double>
ServingReport::ttftPercentiles(const std::vector<double> &ps) const
{
    return percentilesInPlace(gather(results,
                                     [](const RequestResult &r) {
                                         return r.firstTokenMs;
                                     }),
                              ps);
}

double
ServingReport::ttftPercentile(double p) const
{
    return ttftPercentiles({p}).front();
}

std::vector<double>
ServingReport::serviceTimePercentiles(const std::vector<double> &ps) const
{
    return percentilesInPlace(gather(results,
                                     [](const RequestResult &r) {
                                         return r.serviceMs;
                                     }),
                              ps);
}

double
ServingReport::serviceTimePercentile(double p) const
{
    return serviceTimePercentiles({p}).front();
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
    if (results.empty())
        return 0.0;
    std::size_t misses = 0;
    for (const RequestResult &r : results)
        misses += r.sloMiss ? 1 : 0;
    return static_cast<double>(misses) /
           static_cast<double>(results.size());
}

double
ServingReport::deadlineMissRate() const
{
    if (results.empty())
        return 0.0;
    std::size_t misses = 0;
    for (const RequestResult &r : results)
        misses += r.deadlineMiss ? 1 : 0;
    return static_cast<double>(misses) /
           static_cast<double>(results.size());
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
    std::uint64_t total = 0;
    for (const RequestResult &r : results)
        total += r.preemptions;
    return total;
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
    std::uint64_t good = 0;
    for (const RequestResult &r : results)
        if (!r.deadlineMiss)
            good += r.request.outputTokens;
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
    bool typed = false;
    for (ReplicaRole r : roles)
        typed |= r != ReplicaRole::Unified;
    if (typed) {
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
    : opts_(opts), policy_(std::move(policy))
{
    replicas_.push_back(&model);
    if (!policy_)
        policy_ = std::make_unique<FcfsPolicy>();
    router_ = std::make_unique<RoundRobinRouter>();
    validateOptions();
}

ServingEngine::ServingEngine(const DevicePool &pool, ServingOptions opts,
                             std::unique_ptr<SchedulingPolicy> policy,
                             std::unique_ptr<Router> router)
    : opts_(opts), policy_(std::move(policy)), router_(std::move(router))
{
    if (pool.empty())
        IANUS_FATAL("serving engine needs a non-empty device pool");
    replicas_.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
        replicas_.push_back(&pool.replica(i));
    // The pool's own role typing carries over unless the options
    // already chose one; an all-unified pool stays the (bit-identical)
    // empty default.
    if (opts_.roles.empty() && pool.disaggregated())
        opts_.roles = pool.roles();
    if (!policy_)
        policy_ = std::make_unique<FcfsPolicy>();
    if (!router_)
        router_ = std::make_unique<RoundRobinRouter>();
    validateOptions();
}

ServingEngine::ServingEngine(std::vector<const CompiledModel *> replicas,
                             ServingOptions opts,
                             std::unique_ptr<SchedulingPolicy> policy,
                             std::unique_ptr<Router> router)
    : replicas_(std::move(replicas)), opts_(opts),
      policy_(std::move(policy)), router_(std::move(router))
{
    if (replicas_.empty())
        IANUS_FATAL("serving engine needs a non-empty replica view");
    for (const CompiledModel *m : replicas_)
        if (!m)
            IANUS_FATAL("serving engine replica view holds a null model");
    if (!policy_)
        policy_ = std::make_unique<FcfsPolicy>();
    if (!router_)
        router_ = std::make_unique<RoundRobinRouter>();
    validateOptions();
}

void
ServingEngine::validateOptions() const
{
    if (opts_.tokenStride == 0)
        IANUS_FATAL("token stride must be positive (1 = exact)");
    if (opts_.sloMsPerToken <= 0.0)
        IANUS_FATAL("SLO must be a positive per-token latency in ms");
    if (opts_.maxBatch == 0)
        IANUS_FATAL("max batch must be at least 1");
    if (opts_.maxBatch > 1 && opts_.batching == BatchingMode::None)
        IANUS_FATAL("max batch ", opts_.maxBatch,
                    " needs a batching mode (static or continuous)");
    if (opts_.preempt && opts_.batching == BatchingMode::Static)
        IANUS_FATAL("preemption cannot evict from a sealed static "
                    "batch; use batching none or continuous");
    if (opts_.kv.blockTokens == 0)
        IANUS_FATAL("KV block size must be a positive token count");
    if (!opts_.kv.enabled() && opts_.kv.admission != KvAdmission::None)
        IANUS_FATAL("KV admission '", toString(opts_.kv.admission),
                    "' needs a positive KV capacity (capacityTokens is "
                    "0, so nothing bounds admission)");
    if (opts_.kv.enabled() &&
        opts_.kv.capacityTokens < opts_.kv.blockTokens)
        IANUS_FATAL("KV capacity ", opts_.kv.capacityTokens,
                    " tokens is smaller than one ", opts_.kv.blockTokens,
                    "-token block");
    if (std::isnan(opts_.kvLinkGBs) || opts_.kvLinkGBs < 0.0)
        IANUS_FATAL("KV link bandwidth must be a non-negative GB/s "
                    "value (0 derives it from the source replica's PCIe "
                    "parameters), got ",
                    opts_.kvLinkGBs);
    if (!opts_.roles.empty()) {
        if (opts_.roles.size() != replicas_.size())
            IANUS_FATAL("roles list has ", opts_.roles.size(),
                        " entries for ", replicas_.size(), " replicas");
        if (const char *lack = missingRoleCapability(opts_.roles))
            IANUS_FATAL("a disaggregated pool needs at least one ", lack,
                        "-capable (", lack, " or unified) replica");
        const bool typed =
            std::any_of(opts_.roles.begin(), opts_.roles.end(),
                        [](ReplicaRole r) {
                            return r != ReplicaRole::Unified;
                        });
        if (typed && opts_.batching == BatchingMode::Static)
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
    return injector_(request, arrival_ms, source);
}

void
ServingEngine::reserve(std::size_t requests)
{
    queue_.reserve(requests);
    resultCapacity_ = requests;
}

std::uint64_t
ServingEngine::submit(const workloads::InferenceRequest &request,
                      double arrival_ms, std::uint64_t session_id,
                      std::uint64_t turn_index, std::uint64_t prefix_tokens,
                      std::uint32_t source)
{
    validateRequest(request, arrival_ms);
    if (arrival_ms < lastArrivalMs_)
        IANUS_FATAL("request arrivals must be non-decreasing (got ",
                    arrival_ms, " ms after ", lastArrivalMs_, " ms)");
    if (session_id == 0 && (turn_index != 0 || prefix_tokens != 0))
        IANUS_FATAL("a single-turn submit (session 0) cannot carry turn ",
                    turn_index, " / prefix ", prefix_tokens);
    if (turn_index == 0 && prefix_tokens != 0)
        IANUS_FATAL("session ", session_id,
                    " turn 0 cannot carry a prefix of ", prefix_tokens,
                    " tokens (nothing precedes it)");
    if (prefix_tokens >= request.inputTokens)
        IANUS_FATAL("session ", session_id, " turn ", turn_index,
                    " has prefix ", prefix_tokens, " >= input ",
                    request.inputTokens,
                    " (each turn must add new prompt tokens)");
    lastArrivalMs_ = arrival_ms;
    QueuedRequest q;
    q.id = nextId_++;
    q.request = request;
    q.arrivalMs = arrival_ms;
    q.sessionId = session_id;
    q.turnIndex = turn_index;
    q.prefixTokens = prefix_tokens;
    q.source = source;
    queue_.push_back(q);
    return q.id;
}

ServingReport
ServingEngine::drain()
{
    ServingReport report;
    report.policy = policy_->name();
    report.router = router_->name();
    report.batching = toString(opts_.batching);
    report.maxBatch = opts_.maxBatch;
    report.prefillChunk = opts_.prefillChunk;
    report.preempt = opts_.preempt;
    report.kv = opts_.kv;
    report.sloMsPerToken = opts_.sloMsPerToken;

    const std::size_t n = replicas_.size();
    report.replicas.assign(n, ReplicaUtilization{});

    const double first_arrival =
        queue_.empty() ? 0.0 : queue_.front().arrivalMs;

    // The discrete-event loop. Ticks only sequence events (arrivals,
    // completions, and batch-segment boundaries, on the shared
    // picosecond time base); all report math carries exact doubles.
    // With maxBatch == 1 and no chunking/preemption every admitted
    // request takes the legacy whole-request service path, so a
    // single-replica FCFS drain reproduces the synchronous PR-1 loop
    // bit for bit. Chunked prefill or preemption routes even batch-1
    // service through the segment loop — token boundaries are what
    // both features schedule at, and so does the KV capacity model
    // (admission and spill are charged at segment granularity).
    // Multi-turn sessions: with the prefix cache on and session-tagged
    // work queued, a completed non-final turn parks its KV on its
    // replica (a pin) so the next turn prefills only its delta there.
    // A tagless drain — or prefixCache off — leaves prefixOn false and
    // every session structure below empty and untouched, keeping the
    // cold path structurally bit-identical.
    bool any_sessions = false;
    std::map<std::uint64_t, std::uint64_t> lastTurn; // session -> max turn
    for (const QueuedRequest &q : queue_) {
        if (q.sessionId == 0)
            continue;
        any_sessions = true;
        auto [it, fresh] = lastTurn.emplace(q.sessionId, q.turnIndex);
        if (!fresh)
            it->second = std::max(it->second, q.turnIndex);
    }
    const bool prefixOn = opts_.prefixCache && any_sessions;
    // Role-typed pools: empty roles (the default) leaves every replica
    // unified and every disaggregation branch below unentered, keeping
    // the drain bit-identical to the role-less engine. Any typed role
    // flips disaggOn and runs the two-stage prefill → KV-transfer →
    // decode lifecycle.
    std::vector<ReplicaRole> roles = opts_.roles;
    if (roles.empty())
        roles.assign(n, ReplicaRole::Unified);
    bool disaggOn = false;
    for (ReplicaRole r : roles)
        disaggOn = disaggOn || r != ReplicaRole::Unified;
    report.roles = opts_.roles;
    const bool segmented = opts_.maxBatch > 1 || opts_.prefillChunk > 0 ||
                           opts_.preempt || opts_.kv.enabled() ||
                           prefixOn || disaggOn;
    sim::EventQueue events;
    report.results.reserve(std::max(queue_.size(), resultCapacity_));
    resultCapacity_ = 0;

    // The waiting queue is one index ordered by (key, insertion
    // sequence), walked as the policy's declared QueueOrder says (see
    // serving_engine.hh). StaticUrgency (SJF/EDF) keys it by urgency —
    // the incremental replacement for the per-boundary full
    // stable_sort. Every other order keys it 0, leaving arrival order:
    // FCFS walks it from the head (Arrival), and Dynamic — the
    // always-correct legacy path — hands selectBatch a view of it at
    // every admission round. All three dispatch identical batches in
    // identical order; the fast paths just skip recomputing an order
    // that cannot change.
    const QueueOrder order = policy_->queueOrder();
    std::map<std::pair<double, std::uint64_t>, QueuedRequest> ready;
    std::uint64_t readySeq = 0;
    // A StaticUrgency key is static per request (the urgency contract),
    // so it is computed once at enqueue, against a context carrying
    // only the engine SLO — the same value every live-context call
    // would produce for the shipped policies.
    SchedulerContext staticCtx;
    staticCtx.sloMsPerToken = opts_.sloMsPerToken;
    // Parked evictees per replica — evictees still waiting to resume.
    // Maintained incrementally: counted in on requeue (the only path
    // that enqueues a resumed request) and out as resumes dispatch, so
    // a later candidate never sees a slot as spoken for by an evictee
    // that already took it back, and no admission pass pays a scan of
    // the waiting queue for it.
    std::vector<std::size_t> parked(n, 0);
    auto readyPush = [&](const QueuedRequest &q) {
        if (q.resumed)
            parked[q.boundReplica] += 1;
        const double key = order == QueueOrder::StaticUrgency
                               ? policy_->urgency(q, staticCtx)
                               : 0.0;
        ready.emplace(std::make_pair(key, readySeq++), q);
    };
    std::vector<double> freeAt(n, 0.0);
    std::vector<bool> busy(n, false);

    // Legacy whole-request service (the !segmented path) has at most
    // one request in flight per replica: its result and cost wait in
    // the replica's slot until the completion event, which then
    // captures only the replica index.
    struct InFlight
    {
        RequestResult res;
        InferenceReport stats;
    };
    std::vector<InFlight> inFlight(n);

    // Per-replica batch runtime (populated only on the segment path).
    // A resident request is either awaiting (the rest of) its prefill
    // or generating.
    struct Member
    {
        RequestResult res;
        /** The request's cost attribution while it is in flight: the
         *  whole prefill plus a 1/B share of each batched generation
         *  step (fleet aggregates stay additive — energy-model input).
         *  finalize merges it into report.aggregate and hands it to the
         *  completion hook; results keep no RunStats. */
        InferenceReport stats;
        std::uint64_t prefillDone = 0; ///< prompt tokens summarized
        std::uint64_t chunksDone = 0; ///< prefill segments run so far
        std::uint64_t kvLen = 0;     ///< KV length the next step sees
        std::uint64_t remaining = 0; ///< generation steps left
        double weightedBatch = 0.0;  ///< sum of batch size over steps
        std::uint64_t doneSteps = 0;
        double evictedAtMs = 0.0;    ///< valid while suspended
        /** KV tokens living elsewhere (a disaggregated prefix hit):
         *  the prefill replica writes only [kvBase, kvLen). */
        std::uint64_t kvBase = 0;
        bool handoff = false;        ///< prefill here, decode elsewhere
    };
    struct ReplicaRun
    {
        std::vector<Member> prefill; ///< admission order
        std::vector<Member> gen;     ///< admission order
        /** Members whose prefill finished here but whose decode runs
         *  elsewhere: the KV transfer starts when the segment that
         *  wrote the last prompt chunk completes. */
        std::deque<Member> outbox;
        /** Static mode: membership is frozen once generation starts,
         *  until the replica drains completely. */
        bool sealed = false;
        /** Prompt tokens summarized since the last generation segment:
         *  chunked prefill owes the residents a generation segment
         *  whenever this reaches prefillChunk, so a resident never
         *  stalls for more than ~one chunk of prefill between tokens
         *  (strict alternation through a long prefill, back-to-back
         *  packing of brief ones). */
        std::uint64_t prefillSinceGen = 0;
    };
    std::vector<ReplicaRun> rt(n);

    // Hot-path scratch, reused across events instead of reallocated
    // per segment / per candidate (see docs/PERFORMANCE.md).
    std::vector<std::uint64_t> kvLens; // startSegment KV samples
    std::vector<ReplicaStatus> statuses; // router input

    // Evicted requests, keyed by id: the Member keeps its partial
    // accounting (and, conceptually, its on-replica KV cache) until
    // the matching resumed QueuedRequest is re-dispatched.
    std::map<std::uint64_t, Member> suspended;

    // Disaggregated handoff state (disaggOn drains only, all empty
    // otherwise). A prefilled member rides the KV link to a
    // decode-capable replica: pendingHandoff holds transfers whose
    // decode-side KV reservation did not fit yet (retried at every
    // pump), inbound holds arrived members awaiting a batch slot at
    // their target, and claimedPins marks sessions whose pinned prefix
    // is spoken for by an in-flight disaggregated hit — the pin funds
    // the handoff target's admission and must not be reclaimed or
    // replaced meanwhile.
    struct Handoff
    {
        Member m;
        std::size_t from;
    };
    std::deque<Handoff> pendingHandoff;
    std::vector<std::deque<Member>> inbound(n);
    std::set<std::uint64_t> claimedPins;

    // Per-replica KV block pools (capacity model on only). Each replica
    // derives its spill bandwidth ratio from its own SystemConfig, so a
    // heterogeneous pool prices overcommit honestly.
    const bool kvOn = opts_.kv.enabled();
    std::vector<KvBlockManager> kvm;
    if (kvOn) {
        kvm.reserve(n);
        for (std::size_t d = 0; d < n; ++d)
            kvm.emplace_back(opts_.kv, replicas_[d]->config());
    }

    // Prefix-cache state (prefixOn drains only). At most one pin per
    // session: the replica, token count, and request id of the newest
    // completed non-final turn, whose KV is parked (blocks charged, no
    // batch slot held) awaiting the next turn. pins[d] orders replica
    // d's pinned sessions oldest-first for deterministic reclamation.
    struct SessionState
    {
        bool cached = false;
        std::size_t replica = 0;
        std::uint64_t cachedTokens = 0;
        std::uint64_t reqId = 0;
    };
    std::map<std::uint64_t, SessionState> sessions;
    std::vector<std::deque<std::uint64_t>> pins(n);
    // Drop session sid's pin: consumed by a hit, stale after a miss,
    // or reclaimed for space. The blocks return to sid's replica pool.
    auto unpin = [&](std::uint64_t sid) {
        SessionState &st = sessions[sid];
        std::deque<std::uint64_t> &p = pins[st.replica];
        p.erase(std::find(p.begin(), p.end(), sid));
        if (kvOn)
            kvm[st.replica].release(st.reqId);
        st.cached = false;
    };
    // Pinned prefixes are a cache, not a promise: the one reclaim rule,
    // shared by a resuming evictee, fresh admission and a KV handoff.
    // Drop replica d's pins oldest-first while blocked() holds,
    // skipping pins an in-flight handoff has claimed (they fund its
    // target's admission) and session keep's own (dropping it would
    // forfeit the caller's hit). Returns whether any pin was dropped.
    auto reclaimPins = [&](std::size_t d, std::uint64_t keep,
                           const auto &blocked) {
        bool freed = false;
        std::size_t pi = 0;
        while (pi < pins[d].size() && blocked()) {
            const std::uint64_t sid = pins[d][pi];
            if (sid == keep || claimedPins.count(sid)) {
                ++pi;
                continue;
            }
            unpin(sid);
            freed = true;
        }
        return freed;
    };

    // Worst-case KV a request can reach on replica d: a decoder's
    // cache grows to prompt + every generated token; an encoder stops
    // at the prompt. Reserving this at admission is what lets every
    // admitted request run to completion under the keep-KV-on-replica
    // eviction contract (parking can shrink a charge, never another
    // resident's).
    auto maxKvTokens = [&](std::size_t d, const QueuedRequest &q) {
        return q.request.inputTokens +
               (replicas_[d]->model().decoder() ? q.request.outputTokens
                                                : 0);
    };

    // The replica where queued turn q would hit the prefix cache, or
    // noReplica. The session's pinned prefix must still cover q's
    // declared prefix — an older, shorter pin (the prior turn was shed
    // or completed out of order) cannot serve it and reads as a miss.
    auto sessionHitDev = [&](const QueuedRequest &q) -> std::size_t {
        if (!prefixOn || q.resumed || q.sessionId == 0 ||
            q.turnIndex == 0)
            return QueuedRequest::noReplica;
        auto it = sessions.find(q.sessionId);
        if (it == sessions.end() || !it->second.cached ||
            it->second.cachedTokens < q.prefixTokens)
            return QueuedRequest::noReplica;
        return it->second.replica;
    };

    // Does a candidate admitted to replica d prefill here and decode
    // elsewhere? Only Prefill-role replicas hand off, and only work
    // with a decode phase to ship: encoders and single-token decoders
    // finish at the prefill's LM head and finalize locally.
    auto willHandoff = [&](std::size_t d, const QueuedRequest &q) {
        return disaggOn && roles[d] == ReplicaRole::Prefill &&
               replicas_[d]->model().decoder() &&
               q.request.outputTokens > 1;
    };

    // Prompt tokens a disaggregated prefix hit skips on prefill
    // replica d. The session's pinned KV lives on a decode-capable
    // replica (finalize never pins on Prefill replicas) and stays
    // there: d prefills only the delta and the handoff later lands on
    // the pin — there is no cross-replica hit otherwise.
    auto disaggHitPrefix = [&](std::size_t d,
                               const QueuedRequest &q) -> std::uint64_t {
        if (!willHandoff(d, q) || q.prefixTokens == 0)
            return 0;
        return sessionHitDev(q) != QueuedRequest::noReplica
                   ? q.prefixTokens
                   : 0;
    };

    // KV tokens replica d must reserve to admit q: a handoff member
    // holds only the prompt KV it writes locally (prompt plus the
    // bootstrap token, minus any prefix parked at the handoff target)
    // — the decode-side worst case is reserved by the handoff itself.
    auto admitKvTokens = [&](std::size_t d, const QueuedRequest &q) {
        if (willHandoff(d, q))
            return q.request.inputTokens + 1 - disaggHitPrefix(d, q);
        return maxKvTokens(d, q);
    };

    // KV link bandwidth out of replica d: the explicit option when
    // set, otherwise derived from d's own PCIe parameters — a
    // heterogeneous pool prices each source link honestly.
    auto linkGBsFrom = [&](std::size_t d) {
        return opts_.kvLinkGBs > 0.0
                   ? opts_.kvLinkGBs
                   : deriveKvLinkGBs(replicas_[d]->config());
    };

    // Would the KV manager turn this candidate away from replica d
    // right now? (Capacity off, or `none` admission: never.)
    auto kvBlocked = [&](const QueuedRequest &q, std::size_t d) {
        if (!kvOn)
            return false;
        if (q.resumed)
            return !kvm[d].canResume(q.id);
        // A prefix-cache hit recycles its own pin's blocks on the
        // bound replica: gate admission on the headroom *after* that
        // release, or a pool full of pins would starve the very hit
        // the pin was kept for.
        if (sessionHitDev(q) == d)
            return !kvm[d].releaseWouldAdmit(
                sessions.find(q.sessionId)->second.reqId,
                maxKvTokens(d, q));
        return !kvm[d].canAdmit(admitKvTokens(d, q));
    };

    // The queue-entry view of a resident, for urgency queries: both
    // preemption decision points (victim choice and chunk-boundary
    // prefill pick) must hand the policy the same key inputs.
    auto asQueued = [](const Member &m) {
        QueuedRequest view;
        view.id = m.res.id;
        view.request = m.res.request;
        view.arrivalMs = m.res.arrivalMs;
        return view;
    };

    // Open batch slots on replica d. A replica accepts only at a token
    // boundary (not mid-segment): continuous batching tops the batch up
    // to maxBatch, static batching forms a batch only until its first
    // generation segment (then seals membership until the replica
    // drains), and maxBatch == 1 reduces to plain idleness.
    auto capacity = [&](std::size_t d) -> std::size_t {
        if (busy[d])
            return 0;
        std::size_t resident = rt[d].prefill.size() + rt[d].gen.size();
        if (opts_.maxBatch == 1)
            return resident == 0 ? 1 : 0;
        if (opts_.batching == BatchingMode::Static && rt[d].sealed)
            return 0;
        return opts_.maxBatch > resident ? opts_.maxBatch - resident : 0;
    };

    // Close out a batched member whose last token was emitted at @p now
    // on replica @p d, returning its KV blocks to d's pool — unless it
    // is a non-final session turn, whose KV stays pinned here for the
    // next turn's delta-only prefill.
    auto finalize = [&](Member &m, double now, std::size_t d) {
        bool pin = false;
        // Disaggregated drains never pin on a Prefill replica (the
        // next turn's decode could not run where its prefix lives),
        // and never replace a pin an in-flight handoff has claimed —
        // unpinning it would strand the transfer's accounting.
        if (prefixOn && m.res.sessionId != 0 &&
            replicas_[d]->model().decoder() &&
            !(disaggOn && (roles[d] == ReplicaRole::Prefill ||
                           claimedPins.count(m.res.sessionId)))) {
            auto lt = lastTurn.find(m.res.sessionId);
            if (lt != lastTurn.end() && m.res.turnIndex < lt->second) {
                SessionState &st = sessions[m.res.sessionId];
                // Out-of-order completion left an older turn's pin
                // behind: newest context wins, one pin per session.
                if (st.cached)
                    unpin(m.res.sessionId);
                st.cached = true;
                st.replica = d;
                st.cachedTokens = m.res.request.inputTokens +
                                  m.res.request.outputTokens;
                st.reqId = m.res.id;
                pins[d].push_back(m.res.sessionId);
                if (kvOn)
                    kvm[d].park(m.res.id);
                pin = true;
            }
        }
        if (kvOn && !pin)
            kvm[d].release(m.res.id);
        RequestResult res = std::move(m.res);
        res.finishMs = now;
        // Residency excludes time spent evicted (x - 0.0 == x exactly,
        // so the never-preempted path is bit-identical).
        res.serviceMs = res.finishMs - res.startMs - res.suspendedMs;
        const std::uint64_t steps = m.stats.generationSteps;
        res.generationSteps = steps;
        res.msPerToken =
            steps ? (res.finishMs - res.arrivalMs - res.firstTokenMs) /
                        static_cast<double>(steps)
                  : 0.0;
        res.sloMiss = steps > 0 && res.msPerToken > opts_.sloMsPerToken;
        res.deadlineMiss =
            res.finishMs > deadlineMs(res.arrivalMs, res.request,
                                      opts_.sloMsPerToken);
        res.meanBatchSize =
            m.doneSteps ? m.weightedBatch /
                              static_cast<double>(m.doneSteps)
                        : 1.0;
        report.generatedTokens += res.request.outputTokens;
        report.aggregate.merge(m.stats.combined());
        report.makespanMs =
            std::max(report.makespanMs, now - first_arrival);
        report.results.push_back(std::move(res));
        if (onComplete_)
            onComplete_(report.results.back(), m.stats);
    };

    std::function<void(double)> pump; // forward: segments re-enter it

    // Ship a prefilled member's KV to a decode-capable replica (the
    // two-stage lifecycle's transfer edge; disaggOn drains only). The
    // ordering contract (docs/SCHEDULING.md): the target reserves its
    // worst-case KV *before* the transfer is scheduled, and the source
    // releases its prefill-side blocks only when the handoff
    // completes — at no instant is the member's KV unaccounted for. A
    // disaggregated prefix hit must land on its pin's replica (the
    // pin's returned blocks fund the admission); anything else ranks
    // decode-capable replicas by (decode role first, load, fewest free
    // blocks kept free, index). A target that cannot reserve reclaims
    // pins first, like any other admission; only a transfer still
    // blocked then parks in pendingHandoff for the next pump.
    auto startHandoff = [&](Member m, std::size_t from, double now) {
        const std::uint64_t sid = m.res.sessionId;
        const bool claimed = sid != 0 && claimedPins.count(sid) != 0;
        const QueuedRequest mq = asQueued(m);
        std::size_t to = QueuedRequest::noReplica;
        if (claimed) {
            SessionState &st = sessions[sid];
            to = st.replica;
            auto blocked = [&] {
                return kvOn && !kvm[to].releaseWouldAdmit(
                                   st.reqId, maxKvTokens(to, mq));
            };
            reclaimPins(to, sid, blocked);
            if (blocked()) {
                pendingHandoff.push_back({std::move(m), from});
                return;
            }
            unpin(sid);
            claimedPins.erase(sid);
            if (kvOn) {
                kvm[to].admit(m.res.id, maxKvTokens(to, mq));
                kvm[to].setUsed(m.res.id, m.kvBase);
            }
        } else {
            auto canReserve = [&](std::size_t d) {
                return !kvOn || kvm[d].canAdmit(maxKvTokens(d, mq));
            };
            auto rank = [&] {
                std::size_t best = QueuedRequest::noReplica;
                std::tuple<int, std::size_t, std::int64_t, std::size_t>
                    best_key{};
                for (std::size_t d = 0; d < n; ++d) {
                    if (roles[d] == ReplicaRole::Prefill || !canReserve(d))
                        continue;
                    std::tuple<int, std::size_t, std::int64_t, std::size_t>
                        key{roles[d] == ReplicaRole::Decode ? 0 : 1,
                            rt[d].prefill.size() + rt[d].gen.size() +
                                inbound[d].size(),
                            kvOn ? -static_cast<std::int64_t>(
                                       kvm[d].freeBlocks())
                                 : 0,
                            d};
                    if (best == QueuedRequest::noReplica || key < best_key) {
                        best = d;
                        best_key = key;
                    }
                }
                return best;
            };
            to = rank();
            if (to == QueuedRequest::noReplica) {
                // Reclaim pins on decode-capable replicas, lowest index
                // first, until one can reserve; then rank again.
                bool freed = false;
                for (std::size_t d = 0; d < n; ++d) {
                    if (roles[d] == ReplicaRole::Prefill)
                        continue;
                    auto blocked = [&] { return !canReserve(d); };
                    freed = reclaimPins(d, sid, blocked) || freed;
                    if (!blocked())
                        break;
                }
                if (freed)
                    to = rank();
            }
            if (to == QueuedRequest::noReplica) {
                // Fatal if no decode-capable replica could hold this
                // member even empty — its handoff would wait forever.
                bool ever = false;
                for (std::size_t d = 0; d < n; ++d)
                    if (roles[d] != ReplicaRole::Prefill)
                        ever = ever || kvm[d].canEverAdmit(
                                           maxKvTokens(d, mq));
                if (!ever)
                    IANUS_FATAL("request ", m.res.id, " needs ",
                                maxKvTokens(from, mq),
                                " KV tokens on a decode-capable "
                                "replica, more than any can ever "
                                "hold; its handoff can never "
                                "complete");
                pendingHandoff.push_back({std::move(m), from});
                return;
            }
            if (kvOn)
                kvm[to].admit(m.res.id, maxKvTokens(to, mq));
        }
        const std::uint64_t xfer = m.kvLen - m.kvBase;
        const std::uint64_t bytes =
            kvTransferBytes(replicas_[from]->model(), xfer);
        const double ms = kvTransferMs(bytes, linkGBsFrom(from));
        m.res.kvTransferMs = ms;
        m.res.kvTransferTokens = xfer;
        report.kvTransfers += 1;
        report.kvTransferMs += ms;
        report.kvTransferGB += static_cast<double>(bytes) / 1e9;
        const double arriveMs = now + ms;
        events.schedule(
            msToTicks(arriveMs),
            [&, from, to, arriveMs, m = std::move(m)]() mutable {
                if (kvOn) {
                    // The contract's second half: the source lets go
                    // only now that the target holds the KV.
                    kvm[from].release(m.res.id);
                    kvm[to].setUsed(m.res.id, m.kvLen);
                }
                m.res.deviceIndex = to;
                report.replicas[to].dispatched += 1;
                inbound[to].push_back(std::move(m));
                pump(arriveMs);
            });
    };
    auto retryHandoffs = [&](double now) {
        if (pendingHandoff.empty())
            return;
        std::deque<Handoff> retry;
        retry.swap(pendingHandoff);
        for (Handoff &h : retry)
            startHandoff(std::move(h.m), h.from, now);
    };

    // Run the next segment on replica d: one admitted request's prefill
    // (whole, or one prefillChunk-sized slice of it), or a
    // stride-bounded run of batched generation steps over the current
    // members. With chunking off a joiner stalls the whole batch for
    // its summarization (as in continuous-batching serving systems);
    // with chunking on, a generation segment is owed whenever
    // ~prefillChunk prompt tokens have been summarized since the last
    // one, so residents keep emitting tokens under a long prefill while
    // brief prefills still pack back to back.
    auto startSegment = [&](std::size_t d, double now) {
        ReplicaRun &r = rt[d];
        double dur = 0.0;
        bool do_prefill;
        if (r.prefill.empty())
            do_prefill = false;
        else if (r.gen.empty() || opts_.prefillChunk == 0)
            do_prefill = true; // monolithic keeps the prefill-first order
        else
            do_prefill = r.prefillSinceGen < opts_.prefillChunk;
        if (do_prefill) {
            // Which pending prefill advances: chunking re-consults the
            // policy's urgency at every chunk boundary, so an urgent
            // late arrival never sits behind the whole of an earlier
            // joiner's summarization (token-boundary scheduling of the
            // prefill queue). Monolithic — and FCFS, whose urgency is
            // arrival order — keep the admission order.
            std::size_t pi = 0;
            if (opts_.prefillChunk > 0 && r.prefill.size() > 1) {
                SchedulerContext pctx;
                pctx.nowMs = now;
                pctx.sloMsPerToken = opts_.sloMsPerToken;
                pctx.replicaFreeAtMs = freeAt;
                double best = 0.0;
                for (std::size_t i = 0; i < r.prefill.size(); ++i) {
                    double key =
                        policy_->urgency(asQueued(r.prefill[i]), pctx);
                    if (i == 0 || key < best) {
                        best = key;
                        pi = i;
                    }
                }
            }
            Member &m = r.prefill[pi];
            const std::uint64_t input = m.res.request.inputTokens;
            // Encoders never chunk: bidirectional attention has no
            // causal resume point.
            const std::uint64_t cap =
                (opts_.prefillChunk > 0 && replicas_[d]->model().decoder())
                    ? opts_.prefillChunk
                    : input;
            const std::uint64_t c = std::min(cap, input - m.prefillDone);
            const bool last = m.prefillDone + c == input;
            const RunStats &s =
                replicas_[d]->prefillChunkStats(m.prefillDone, c, last);
            dur = s.wallMs();
            // The prefill is exclusively this request's work: attribute
            // it whole (assignment on the first chunk keeps the
            // monolithic path bit-identical to the pre-chunking loop).
            // The chunk counter, not prefillDone, detects the first
            // chunk: a prefix-cache hit starts prefillDone at the
            // cached prefix, and its first delta chunk must still
            // *assign* (the two tests coincide on every cold path).
            if (m.chunksDone == 0) {
                m.stats.summarization = s;
                m.res.prefillChunks = 1;
            } else {
                m.stats.summarization.merge(s);
                m.res.prefillChunks += 1;
            }
            m.chunksDone += 1;
            m.prefillDone += c;
            r.prefillSinceGen += c;
            if (kvOn)
                // The chunk writes its slice of prompt KV (the last
                // chunk's LM head adds the bootstrap token; encoders'
                // reservations clamp it away). A disaggregated hit's
                // prefix (kvBase tokens) lives at the handoff target,
                // not here — only the delta counts locally.
                kvm[d].setUsed(m.res.id,
                               (last ? input + 1 : m.prefillDone) -
                                   m.kvBase);
            if (last) {
                // TTFT counts queueing, any batch stall or interleaved
                // generation segments, and the prefill itself — the
                // last chunk's LM head emits the first token.
                m.res.firstTokenMs = (now + dur) - m.res.arrivalMs;
                m.kvLen = input + 1;
                m.remaining = replicas_[d]->model().decoder()
                                  ? m.res.request.outputTokens - 1
                                  : 0;
                if (m.handoff)
                    // Decode runs elsewhere: the member waits in the
                    // outbox until this segment completes (its KV is
                    // fully written only then), then rides the link.
                    r.outbox.push_back(std::move(m));
                else
                    r.gen.push_back(std::move(m));
                r.prefill.erase(r.prefill.begin() +
                                static_cast<std::ptrdiff_t>(pi));
            }
        } else {
            r.prefillSinceGen = 0;
            // Generation segment: every member advances g tokens
            // together, g capped by the stride (the join/leave
            // granularity) and by the member closest to finishing.
            r.sealed = true; // static batches freeze at first token
            std::uint64_t g = opts_.tokenStride;
            std::vector<std::uint64_t> &kv = kvLens;
            kv.clear();
            kv.reserve(r.gen.size());
            for (const Member &m : r.gen) {
                g = std::min<std::uint64_t>(g, m.remaining);
                kv.push_back(m.kvLen);
            }
            const RunStats first = replicas_[d]->generationStepStats(kv);
            RunStats seg;
            if (g == 1) {
                seg = first;
            } else {
                // Trapezoid over the segment: cost g steps from the
                // entry and exit samples (KV lengths all advance
                // together, so only those two entries differ). The
                // exit sample sits at kv + g — the next segment's
                // entry — so back-to-back segments with unchanged
                // membership share cache entries, like the legacy
                // strided run() shares its sample points.
                for (std::uint64_t &v : kv)
                    v += g;
                const RunStats exit_ =
                    replicas_[d]->generationStepStats(kv);
                seg.scaleAdd(first, static_cast<double>(g) / 2.0);
                seg.scaleAdd(exit_, static_cast<double>(g) / 2.0);
            }
            dur = seg.wallMs();
            // Each member owes a 1/B share of the shared step work.
            double share = 1.0 / static_cast<double>(r.gen.size());
            for (Member &m : r.gen) {
                m.stats.generation.scaleAdd(seg, share);
                m.stats.generationSteps += g;
                m.kvLen += g;
                m.remaining -= g;
                m.weightedBatch += static_cast<double>(
                    g * r.gen.size());
                m.doneSteps += g;
                if (kvOn)
                    kvm[d].setUsed(m.res.id, m.kvLen);
            }
        }

        if (kvOn) {
            // KV written beyond capacity lives in host memory: the
            // spilled fraction of this segment's KV traffic moves at
            // PCIe instead of DRAM bandwidth, dilating its wall time.
            // Exactly 1.0 (and no branch taken) while within capacity,
            // so queue/shed admission never pays it.
            const double dil = kvm[d].dilation();
            if (dil > 1.0) {
                dur *= dil;
                report.kvSpilledSegments += 1;
                report.kvMaxDilation =
                    std::max(report.kvMaxDilation, dil);
            }
        }

        double end = now + dur;
        busy[d] = true;
        freeAt[d] = end;
        report.replicas[d].busyMs += dur;
        events.schedule(msToTicks(end), [&, d, end]() {
            busy[d] = false;
            ReplicaRun &rr = rt[d];
            for (auto it = rr.gen.begin(); it != rr.gen.end();) {
                if (it->remaining == 0) {
                    finalize(*it, end, d);
                    it = rr.gen.erase(it);
                } else {
                    ++it;
                }
            }
            if (rr.gen.empty() && rr.prefill.empty())
                rr.sealed = false; // drained: the next batch may form
            if (disaggOn)
                // Handoffs launch before the follow-up pump below is
                // scheduled, so a zero-cost transfer's arrival (same
                // tick, FIFO) lands ahead of it and the target's
                // admission pass sees the member already inbound.
                while (!rr.outbox.empty()) {
                    Member hm = std::move(rr.outbox.front());
                    rr.outbox.pop_front();
                    startHandoff(std::move(hm), d, end);
                }
            // Admissions run in a same-tick follow-up event so every
            // replica whose boundary lands on this tick is free first —
            // otherwise the earliest boundary would greedily claim the
            // whole queue while its peers are still marked busy.
            events.schedule(events.now(), [&, end]() { pump(end); });
        });
    };

    // Legacy service on replica dev completes: fold its slot into the
    // report, then pump — last, because pump may dispatch the replica's
    // next request into the same slot.
    auto completeInFlight = [&](std::size_t dev) {
        busy[dev] = false;
        const InFlight &f = inFlight[dev];
        const double finish = f.res.finishMs;
        report.generatedTokens += f.res.request.outputTokens;
        report.aggregate.merge(f.stats.combined());
        report.makespanMs =
            std::max(report.makespanMs, finish - first_arrival);
        report.results.push_back(f.res);
        if (onComplete_)
            onComplete_(report.results.back(), f.stats);
        pump(finish);
    };

    // One candidate's dispatch attempt — the body shared by the three
    // admission disciplines below. Launched: the request took a batch
    // slot (legacy whole-request service, resume, or batched
    // admission). Consumed: it left the queue without dispatching
    // (shed admission). Blocked: it stays queued (bound replica full,
    // or KV admission holds it).
    enum class Attempt : std::uint8_t { Launched, Consumed, Blocked };
    auto dispatchOne = [&](const QueuedRequest &q,
                           double now) -> Attempt {
        std::size_t dev = 0;
        if (q.resumed) {
            // KV affinity: a preempted request resumes only on
            // the replica holding its cache. A full bound
            // replica skips the candidate without consuming a
            // slot — later candidates may still dispatch.
            dev = q.boundReplica;
            if (capacity(dev) == 0)
                return Attempt::Blocked;
            // Resume only when the parked request's worst-case
            // headroom fits the pool again (queue/shed modes;
            // `none` overcommits and spills instead). An evictee's
            // return outranks cached prefixes: reclaim this replica's
            // pins until it fits.
            if (kvOn) {
                auto blocked = [&] { return !kvm[dev].canResume(q.id); };
                reclaimPins(dev, q.sessionId, blocked);
                if (blocked())
                    return Attempt::Blocked;
            }
        } else {
                    // The router contract, enforced here where drain()
                    // consumes the route (the selectBatch twin above):
                    // the router is called only when some replica
                    // accepts, with a status vector carrying the load
                    // signals (resident / pendingPrefill / kvTokens /
                    // backlogTokens / suspendedKv) for every replica
                    // and — only when the router declares
                    // needsEstimates() — the candidate's service-time
                    // estimates on each replica's own device model. It
                    // must return an in-range, accepting replica;
                    // anything else is fatal. Resumed requests never
                    // reach it (pinned to their KV-holding replica
                    // above).
                    const std::size_t hitDev = sessionHitDev(q);
                    const bool est = router_->needsEstimates();
                    bool any_accepting = false;
                    auto fillStatuses = [&] {
                        statuses.assign(n, ReplicaStatus{});
                        any_accepting = false;
                        for (std::size_t d = 0; d < n; ++d) {
                            statuses[d].index = d;
                            // A kv-blocked replica is not accepting for
                            // this candidate (queue/shed modes; `none`
                            // never blocks), so the router only ever
                            // sees placements the block pool can honor.
                            // Decode-role replicas take work over the
                            // KV link, never fresh admissions.
                            statuses[d].idle =
                                capacity(d) > 0 && !kvBlocked(q, d) &&
                                !(disaggOn &&
                                  roles[d] == ReplicaRole::Decode);
                            any_accepting |= statuses[d].idle;
                            statuses[d].freeAtMs = freeAt[d];
                            statuses[d].busyMs =
                                report.replicas[d].busyMs;
                            statuses[d].dispatched =
                                report.replicas[d].dispatched;
                            statuses[d].resident =
                                rt[d].prefill.size() + rt[d].gen.size();
                            statuses[d].pendingPrefill =
                                rt[d].prefill.size();
                            for (const Member &m : rt[d].gen) {
                                statuses[d].kvTokens += m.kvLen;
                                statuses[d].backlogTokens += m.remaining;
                            }
                            statuses[d].suspendedKv = parked[d];
                            statuses[d].pinnedSessions = pins[d].size();
                            if (kvOn) {
                                statuses[d].kvFreeBlocks =
                                    kvm[d].freeBlocks();
                                statuses[d].kvPressure =
                                    kvm[d].pressure();
                            }
                            if (est) {
                                statuses[d].estStepMs =
                                    replicas_[d]->estimatedStepMs();
                                // The hit replica re-prefills only the
                                // delta; pricing that into its estimate
                                // is the re-prefill penalty every
                                // predicted-finish router weighs. A
                                // disaggregated hit prices the delta on
                                // the prefill replica the same way.
                                statuses[d].estPrefillMs =
                                    (hitDev == d ||
                                     disaggHitPrefix(d, q) > 0)
                                        ? replicas_[d]
                                              ->estimateResumePrefillMs(
                                                  q.prefixTokens,
                                                  q.request.inputTokens -
                                                      q.prefixTokens)
                                        : replicas_[d]->estimatePrefillMs(
                                              q.request.inputTokens);
                                statuses[d].estGenMs =
                                    replicas_[d]->estimateGenerationMs(
                                        q.request);
                            }
                        }
                    };
                    fillStatuses();
                    if (!any_accepting && prefixOn && kvOn) {
                        // Every replica is KV-blocked for this
                        // candidate: reclaim pins, lowest replica index
                        // first, until one replica can take it.
                        bool freed = false;
                        for (std::size_t d = 0; d < n; ++d) {
                            if (capacity(d) == 0 ||
                                (disaggOn &&
                                 roles[d] == ReplicaRole::Decode))
                                continue;
                            auto blocked = [&] { return kvBlocked(q, d); };
                            freed = reclaimPins(d, q.sessionId, blocked) ||
                                    freed;
                            if (!blocked())
                                break; // one accepting replica suffices
                        }
                        if (freed)
                            fillStatuses();
                    }
                    if (!any_accepting) {
                        // A disaggregated pool can land here with only
                        // decode-side slots open (totalSlots counts
                        // them for a parked evictee): a fresh candidate
                        // simply has nowhere to go, and admission
                        // control below must not run — shed would drop
                        // it for want of a slot, not of KV blocks, and
                        // the block pools may be off entirely.
                        bool slot_somewhere = false;
                        for (std::size_t d = 0; d < n; ++d)
                            if (capacity(d) > 0 &&
                                !(disaggOn &&
                                  roles[d] == ReplicaRole::Decode))
                                slot_somewhere = true;
                        if (!slot_somewhere)
                            return Attempt::Blocked;
                        // Some replica has an open slot (the admission
                        // loop's slots check) but every one is
                        // KV-blocked for this candidate: admission
                        // control takes over before the router runs.
                        if (opts_.kv.admission == KvAdmission::Shed) {
                            report.kvShed += 1;
                            return Attempt::Consumed;
                        }
                        // Queue: hold it in the ready queue until
                        // blocks free — fatal if no replica could fit
                        // it even empty (it would wait forever).
                        bool ever = false;
                        for (std::size_t d = 0; d < n; ++d)
                            ever |= kvm[d].canEverAdmit(
                                admitKvTokens(d, q));
                        if (!ever)
                            IANUS_FATAL(
                                "request ", q.id, " needs ",
                                maxKvTokens(0, q),
                                " KV tokens, more than any replica's "
                                "capacity; it can never dispatch under "
                                "queue admission");
                        return Attempt::Blocked;
                    }
                    if (hitDev != QueuedRequest::noReplica) {
                        // Session-sticky routers read the hit replica
                        // off the candidate; a copy keeps the queued
                        // entry itself untouched (the hit may be gone
                        // by the next attempt).
                        QueuedRequest qc = q;
                        qc.sessionHitReplica = hitDev;
                        dev = router_->route(qc, statuses, now);
                    } else {
                        dev = router_->route(q, statuses, now);
                    }
                    if (dev >= n)
                        IANUS_FATAL("router '", router_->name(),
                                    "' returned out-of-range replica ",
                                    dev, " (pool has ", n, ")");
                    if (capacity(dev) == 0)
                        IANUS_FATAL("router '", router_->name(),
                                    "' routed to busy replica ", dev);
                    if (kvBlocked(q, dev))
                        IANUS_FATAL("router '", router_->name(),
                                    "' routed to KV-blocked replica ",
                                    dev);
                }

                if (!segmented) {
                    // Legacy whole-request service: the request holds
                    // its replica to completion, costed by the same
                    // CompiledModel::run the synchronous loop used.
                    InFlight &f = inFlight[dev];
                    RequestResult &res = f.res;
                    res = RequestResult{};
                    res.id = q.id;
                    res.request = q.request;
                    res.arrivalMs = q.arrivalMs;
                    res.sessionId = q.sessionId;
                    res.turnIndex = q.turnIndex;
                    res.prefixTokens = q.prefixTokens;
                    res.source = q.source;
                    res.prefilledTokens = q.request.inputTokens;
                    res.startMs = std::max(now, q.arrivalMs);
                    f.stats =
                        replicas_[dev]->run(q.request, opts_.tokenStride);
                    res.serviceMs = f.stats.totalMs();
                    res.finishMs = res.startMs + res.serviceMs;
                    res.firstTokenMs = (res.startMs - res.arrivalMs) +
                                       f.stats.summarizationMs();
                    res.generationSteps = f.stats.generationSteps;
                    res.msPerToken = f.stats.msPerGeneratedToken();
                    res.sloMiss = res.generationSteps > 0 &&
                                  res.msPerToken > opts_.sloMsPerToken;
                    res.deadlineMiss =
                        res.finishMs > deadlineMs(res.arrivalMs,
                                                  res.request,
                                                  opts_.sloMsPerToken);
                    res.deviceIndex = dev;
                    res.prefillIndex = dev;

                    busy[dev] = true;
                    freeAt[dev] = res.finishMs;
                    report.replicas[dev].dispatched += 1;
                    report.replicas[dev].busyMs += res.serviceMs;
                    events.schedule(msToTicks(res.finishMs),
                                    [&, dev]() { completeInFlight(dev); });
                } else if (q.resumed) {
                    // Resume: the evicted member rejoins generation on
                    // its bound replica at the KV length reached — the
                    // prefill is never re-run (KV retained on-replica).
                    auto sit = suspended.find(q.id);
                    if (sit == suspended.end())
                        IANUS_FATAL("resumed request ", q.id,
                                    " has no suspended state");
                    Member m = std::move(sit->second);
                    suspended.erase(sit);
                    m.res.suspendedMs += now - m.evictedAtMs;
                    if (kvOn)
                        kvm[dev].resume(q.id); // re-reserve headroom
                    rt[dev].gen.push_back(std::move(m));
                    parked[dev] -= 1; // its KV is resident again
                    // A re-dispatch is a dispatch event: a preempted
                    // request counts once per admission.
                    report.replicas[dev].dispatched += 1;
                } else {
                    // Batched admission: the request joins the routed
                    // replica's batch and waits for a prefill segment.
                    Member m;
                    m.res.id = q.id;
                    m.res.request = q.request;
                    m.res.arrivalMs = q.arrivalMs;
                    m.res.sessionId = q.sessionId;
                    m.res.turnIndex = q.turnIndex;
                    m.res.prefixTokens = q.prefixTokens;
                    m.res.source = q.source;
                    m.res.startMs = std::max(now, q.arrivalMs);
                    m.res.deviceIndex = dev;
                    m.stats.inputTokens = q.request.inputTokens;
                    m.stats.outputTokens = q.request.outputTokens;
                    const bool hit =
                        prefixOn && sessionHitDev(q) == dev;
                    const std::uint64_t dhp =
                        hit ? 0 : disaggHitPrefix(dev, q);
                    if (hit) {
                        // Consume the pin before reserving: its
                        // returned blocks fund the admission that
                        // releaseWouldAdmit just priced. The prefix KV
                        // transfers to this turn's charge and only the
                        // delta is prefilled.
                        unpin(q.sessionId);
                        m.prefillDone = q.prefixTokens;
                        m.res.prefixHit = true;
                        report.prefixHits += 1;
                        report.prefillTokensSaved += q.prefixTokens;
                    } else if (dhp > 0) {
                        // Disaggregated hit: the pin lives on a
                        // decode-capable replica and stays put —
                        // claim it for this member's handoff and
                        // prefill only the delta here.
                        claimedPins.insert(q.sessionId);
                        m.prefillDone = q.prefixTokens;
                        m.kvBase = q.prefixTokens;
                        m.res.prefixHit = true;
                        report.prefixHits += 1;
                        report.prefillTokensSaved += q.prefixTokens;
                    } else if (prefixOn && q.sessionId != 0 &&
                               q.turnIndex > 0) {
                        // Honest miss: the full context re-prefills. A
                        // surviving pin (shorter, or on another
                        // replica) is dead weight now — drop it,
                        // unless an in-flight handoff claimed it.
                        auto sit = sessions.find(q.sessionId);
                        if (sit != sessions.end() &&
                            sit->second.cached &&
                            !claimedPins.count(q.sessionId))
                            unpin(q.sessionId);
                        report.prefixMisses += 1;
                    }
                    m.handoff = willHandoff(dev, q);
                    m.res.prefillIndex = dev;
                    m.res.prefilledTokens =
                        q.request.inputTokens - m.prefillDone;
                    if (kvOn) {
                        // Reserve the worst case up front (a handoff
                        // member reserves only its local prompt KV);
                        // `none` admission overcommits here and pays
                        // in spill-dilated segments instead.
                        kvm[dev].admit(q.id, admitKvTokens(dev, q));
                        if (hit)
                            kvm[dev].setUsed(q.id, q.prefixTokens);
                    }
                    rt[dev].prefill.push_back(std::move(m));
                    report.replicas[dev].dispatched += 1;
                }

        return Attempt::Launched;
    };

    // Total open batch slots right now. Every Launched attempt lowers
    // it by exactly one (legacy service marks its replica busy;
    // resume/admission grow the resident count), so the fast paths
    // below can decrement instead of recounting per round.
    auto totalSlots = [&] {
        std::size_t slots = 0;
        for (std::size_t d = 0; d < n; ++d) {
            // A Decode replica's open slots admit nothing from the
            // queue unless one of its own evictees waits to resume —
            // counting them otherwise would spin the admission loops
            // on candidates with nowhere to go.
            if (disaggOn && roles[d] == ReplicaRole::Decode &&
                parked[d] == 0)
                continue;
            slots += capacity(d);
        }
        return slots;
    };

    // Admit as many waiting requests into open batch slots as the
    // policy and router allow, via the discipline the policy declared.
    // A resumed (previously evicted) request bypasses the router — its
    // KV cache lives on one replica — and simply keeps waiting when
    // that replica has no open slot. All three paths reproduce the
    // Dynamic path's dispatch sequence exactly; see
    // docs/PERFORMANCE.md for the equivalence argument.
    auto admit = [&](double now) {
        if (ready.empty())
            return;
        if (order != QueueOrder::Dynamic) {
            // One pass over the index. For SJF/EDF it is exactly the
            // prefix-dispatch the legacy path ran over the freshly
            // stable_sorted queue, without the sort: blocked
            // candidates stay, consumed ones leave the index. FCFS
            // dispatches strictly in arrival order, head-of-line
            // blocking included: a blocked head stops the pass (later
            // arrivals must not overtake it), and a shed head ends it
            // like the Dynamic path's one-batch-per-round exit does.
            const std::size_t slots = totalSlots();
            std::size_t launched = 0;
            for (auto it = ready.begin();
                 it != ready.end() && launched < slots;) {
                const Attempt a = dispatchOne(it->second, now);
                it = a == Attempt::Blocked ? std::next(it)
                                           : ready.erase(it);
                if (a == Attempt::Launched)
                    ++launched;
                else if (order == QueueOrder::Arrival)
                    break;
            }
            return;
        }

        // Dynamic: the always-correct legacy path — re-consult
        // selectBatch over a view of the index every round and
        // dispatch the returned prefix that fits.
        std::vector<QueuedRequest> view;
        std::vector<decltype(ready)::iterator> at;
        while (!ready.empty()) {
            std::size_t slots = totalSlots();
            if (slots == 0)
                break;
            view.clear();
            at.clear();
            for (auto it = ready.begin(); it != ready.end(); ++it) {
                view.push_back(it->second);
                at.push_back(it);
            }

            SchedulerContext ctx;
            ctx.nowMs = now;
            ctx.sloMsPerToken = opts_.sloMsPerToken;
            ctx.replicaFreeAtMs = freeAt;
            std::vector<std::size_t> batch =
                policy_->selectBatch(view, ctx);

            // The selectBatch contract, enforced: a policy must return
            // at least one index for a non-empty queue, every index in
            // range and distinct. The engine dispatches the returned
            // prefix that fits into open slots and re-consults at the
            // next boundary.
            if (batch.empty())
                IANUS_FATAL("scheduling policy '", policy_->name(),
                            "' returned an empty batch for a non-empty "
                            "queue of ",
                            view.size());
            std::vector<char> taken(view.size(), 0);
            for (std::size_t idx : batch) {
                if (idx >= view.size())
                    IANUS_FATAL("scheduling policy '", policy_->name(),
                                "' returned out-of-range queue index ",
                                idx, " (queue has ", view.size(), ")");
                if (taken[idx])
                    IANUS_FATAL("scheduling policy '", policy_->name(),
                                "' returned duplicate queue index ", idx);
                taken[idx] = 1;
            }

            std::size_t launched = 0;
            for (std::size_t idx : batch) {
                if (launched == slots)
                    break; // rest of the batch waits for a boundary
                Attempt a = dispatchOne(view[idx], now);
                if (a == Attempt::Blocked)
                    continue;
                ready.erase(at[idx]);
                if (a == Attempt::Launched)
                    ++launched;
            }
            if (launched < batch.size())
                break; // open slots exhausted mid-batch
        }
    };

    // The eviction contract, enforced here where a member leaves its
    // batch: preemption strikes only at a token boundary (the replica
    // is between segments), only a *generating* resident is evictable
    // (evicting an un-prefilled member would merely un-admit it; a
    // finished one is already finalized), the victim is the
    // least-urgent resident (ties: the earliest member in the
    // replica's generation order), and it is evicted
    // only for a waiting request with *strictly* lower urgency that
    // can actually land on the freed slot (fresh, or bound to this
    // replica). The evicted member keeps its KV cache on the replica
    // and its partial accounting in `suspended`; what re-runs on
    // resume is nothing — generation continues at kvLen. Urgency keys
    // are static per request (see SchedulingPolicy::urgency), so each
    // eviction strictly lowers the resident urgency multiset and the
    // evict-admit loop below terminates.
    auto tryEvict = [&](double now) -> bool {
        SchedulerContext ctx;
        ctx.nowMs = now;
        ctx.sloMsPerToken = opts_.sloMsPerToken;
        ctx.replicaFreeAtMs = freeAt;
        for (std::size_t d = 0; d < n; ++d) {
            if (busy[d])
                continue; // mid-segment: no token boundary to evict at
            // Eviction needs something it could fix: a full batch
            // (the legacy trigger), or — with the capacity model on —
            // a block-starved candidate whose admission an eviction's
            // parked headroom could unblock.
            const bool slot_full = capacity(d) == 0;
            if (!slot_full && !kvOn)
                continue; // admission can fill the open slot
            const QueuedRequest *cand = nullptr;
            double cand_key = 0.0;
            // With an open slot, only a KV-blocked candidate justifies
            // evicting (anyone else admission would have placed
            // already).
            auto eligible = [&](const QueuedRequest &q) {
                if (q.resumed && q.boundReplica != d)
                    return false;
                // Only a returning evictee justifies evicting on a
                // Decode replica — fresh work cannot land there.
                if (!q.resumed && disaggOn &&
                    roles[d] == ReplicaRole::Decode)
                    return false;
                return slot_full || kvBlocked(q, d);
            };
            // StaticUrgency walks ascending (static key, insertion
            // seq): the first eligible entry is the most urgent one,
            // ties resolved to the earliest queued — the same winner
            // the strict-min scan in arrival order finds for the other
            // orders.
            for (const auto &[key, q] : ready) {
                if (!eligible(q))
                    continue;
                if (order == QueueOrder::StaticUrgency) {
                    cand = &q;
                    cand_key = key.first;
                    break;
                }
                const double u = policy_->urgency(q, ctx);
                if (!cand || u < cand_key) {
                    cand = &q;
                    cand_key = u;
                }
            }
            if (!cand)
                continue;
            auto victim = rt[d].gen.end();
            double victim_key = 0.0;
            for (auto it = rt[d].gen.begin(); it != rt[d].gen.end();
                 ++it) {
                if (it->remaining == 0)
                    continue;
                double key = policy_->urgency(asQueued(*it), ctx);
                if (victim == rt[d].gen.end() || key > victim_key) {
                    victim = it;
                    victim_key = key;
                }
            }
            if (victim == rt[d].gen.end() || !(cand_key < victim_key))
                continue;
            // An eviction that cannot unblock its beneficiary is pure
            // churn (the evictee would bounce straight back): parking
            // must free enough headroom for the candidate to take the
            // place. Always passes with the capacity model off or
            // under `none` admission.
            if (kvOn &&
                !(cand->resumed
                      ? kvm[d].parkWouldResume(victim->res.id, cand->id)
                      : kvm[d].parkWouldAdmit(victim->res.id,
                                              maxKvTokens(d, *cand))))
                continue;

            Member m = std::move(*victim);
            rt[d].gen.erase(victim);
            m.res.preemptions += 1;
            m.evictedAtMs = now;
            if (kvOn)
                // Park under the PR-4 contract: the written KV stays
                // charged on this replica, the worst-case headroom
                // returns to the pool.
                kvm[d].park(m.res.id);
            QueuedRequest rq;
            rq.id = m.res.id;
            rq.request = m.res.request;
            rq.arrivalMs = m.res.arrivalMs;
            rq.resumed = true;
            rq.boundReplica = d;
            rq.kvTokens = m.kvLen;
            rq.remainingTokens = m.remaining;
            suspended.emplace(rq.id, std::move(m));
            readyPush(rq);
            return true;
        }
        return false;
    };

    // Admissions, then (with preemption on) alternate evict/admit
    // rounds until no urgency inversion remains, then start segments on
    // every replica at a boundary with work. Re-entered at every
    // arrival, completion, and segment boundary. The eviction budget is
    // a backstop for policies whose selectBatch order contradicts their
    // urgency key; for the shipped policies the two agree and the
    // static-key argument already bounds the loop.
    pump = [&](double now) {
        if (disaggOn) {
            // Transfers first: a retried handoff may land (or a
            // zero-cost one already has), and arrived members join
            // their target's decode batch at this token boundary
            // ahead of fresh admissions.
            retryHandoffs(now);
            for (std::size_t d = 0; d < n; ++d)
                while (!inbound[d].empty() && capacity(d) > 0) {
                    rt[d].gen.push_back(std::move(inbound[d].front()));
                    inbound[d].pop_front();
                }
        }
        admit(now);
        if (opts_.preempt) {
            std::size_t evict_budget = 0;
            for (std::size_t d = 0; d < n; ++d)
                evict_budget += rt[d].gen.size();
            while (evict_budget > 0 && !ready.empty() && tryEvict(now)) {
                --evict_budget;
                admit(now);
            }
        }
        if (segmented)
            for (std::size_t d = 0; d < n; ++d)
                if (!busy[d] &&
                    (!rt[d].prefill.empty() || !rt[d].gen.empty()))
                    startSegment(d, now);
    };

    // Mid-drain arrivals (closed-loop feedback): a completion hook's
    // inject() schedules a fresh arrival event into the running loop.
    // Injected at the completing tick or later, it can never land in
    // the past; run() keeps going until injected arrivals drain too.
    // Tie semantics differ from submit() by design: pre-drain arrivals
    // at one tick are grouped into a single burst (below), but each
    // injection is its own event, delivered in completion order — the
    // order the live clients actually acted in. Replaying a saved
    // realized trace therefore groups same-instant arrivals the live
    // session delivered one by one; both runs are deterministic, but
    // exact-tie scheduling may differ between them.
    // The guard clears the injector on *every* exit — the lambda
    // captures this drain's locals, and a throwing drain (say, a
    // malformed policy batch) must not leave a dangling injector that
    // a later inject() call would invoke.
    struct InjectorGuard
    {
        ServingEngine *engine;
        ~InjectorGuard() { engine->injector_ = nullptr; }
    } injector_guard{this};
    std::uint64_t injected = 0;
    injector_ = [&](const workloads::InferenceRequest &request,
                    double arrival_ms,
                    std::uint32_t source) -> std::uint64_t {
        validateRequest(request, arrival_ms);
        Tick when = msToTicks(arrival_ms);
        if (when < events.now())
            IANUS_FATAL("injected arrival at ", arrival_ms,
                        " ms is in the drain's past");
        QueuedRequest q;
        q.id = nextId_++;
        q.request = request;
        q.arrivalMs = arrival_ms;
        q.source = source;
        ++injected;
        events.schedule(when, [&, q]() {
            readyPush(q);
            pump(q.arrivalMs);
        });
        return q.id;
    };

    // One arrival event per distinct arrival tick: simultaneous
    // arrivals enter the queue together, so a reordering policy sees
    // the whole burst before the first dispatch. Bursts are scheduled
    // lazily — each burst's handler schedules the next — so the event
    // heap holds one pending arrival instead of every future one (a
    // million-request drain used to pay its full heap depth on every
    // push). Early-phase scheduling keeps each burst firing before any
    // completion at the same tick, exactly as the old
    // everything-up-front scheduling order (arrival ids lowest) did;
    // injected arrivals stay normal-phase, preserving their documented
    // completion-order tie semantics.
    std::size_t nextArrival = 0;
    std::function<void()> scheduleNextBurst = [&]() {
        if (nextArrival >= queue_.size())
            return;
        const std::size_t i = nextArrival;
        const Tick when = msToTicks(queue_[i].arrivalMs);
        std::size_t j = i + 1;
        while (j < queue_.size() && msToTicks(queue_[j].arrivalMs) == when)
            ++j;
        nextArrival = j;
        events.scheduleEarly(when, [&, i, j]() {
            for (std::size_t k = i; k < j; ++k)
                readyPush(queue_[k]);
            scheduleNextBurst();
            pump(queue_[i].arrivalMs);
        });
    };
    scheduleNextBurst();
    events.run();
    report.simEvents = events.executed();
    const std::uint64_t submitted = queue_.size();
    queue_.clear();

    // Pins surviving the drain — prefixes whose next turn never
    // dispatched (trace tail, or sheds) — are cache, not leaks:
    // release them before the audit below counts leftovers.
    if (prefixOn)
        for (std::size_t d = 0; d < n; ++d)
            while (!pins[d].empty())
                unpin(pins[d].front());

    for (ReplicaUtilization &r : report.replicas) {
        r.idleMs = std::max(0.0, report.makespanMs - r.busyMs);
        r.utilization =
            report.makespanMs > 0.0 ? r.busyMs / report.makespanMs : 0.0;
    }

    // KV accounting audit: a fully drained engine holds no resident,
    // pending, or parked KV anywhere — anything left is a leaked cache
    // on some completion/eviction path (the invariant sweep asserts
    // both fields are zero). The engine-view count works with the
    // capacity model off too.
    for (std::size_t d = 0; d < n; ++d) {
        for (const Member &m : rt[d].prefill)
            report.replicas[d].kvTokensEnd += m.prefillDone;
        for (const Member &m : rt[d].gen)
            report.replicas[d].kvTokensEnd += m.kvLen;
    }
    for (const auto &entry : suspended)
        report.replicas[entry.second.res.deviceIndex].kvTokensEnd +=
            entry.second.kvLen;
    if (disaggOn) {
        // Handoff limbo is still KV somewhere: an unshipped outbox or
        // pending transfer charges its source, an arrived-but-unjoined
        // member its target.
        for (std::size_t d = 0; d < n; ++d) {
            for (const Member &m : rt[d].outbox)
                report.replicas[d].kvTokensEnd += m.kvLen;
            for (const Member &m : inbound[d])
                report.replicas[d].kvTokensEnd += m.kvLen;
        }
        for (const Handoff &h : pendingHandoff)
            report.replicas[h.from].kvTokensEnd += h.m.kvLen;
    }
    if (kvOn) {
        std::uint64_t waste = 0;
        std::uint64_t gross = 0;
        for (std::size_t d = 0; d < n; ++d) {
            const std::int64_t leaked =
                static_cast<std::int64_t>(kvm[d].totalBlocks()) -
                kvm[d].freeBlocks();
            report.replicas[d].kvBlocksLeaked =
                leaked > 0 ? static_cast<std::uint64_t>(leaked) : 0;
            report.replicas[d].kvTokensEnd += kvm[d].residentTokens();
            report.kvPeakPressure =
                std::max(report.kvPeakPressure, kvm[d].peakPressure());
            waste += kvm[d].fragWasteTokens();
            gross += kvm[d].fragGrossTokens();
        }
        report.kvFragWasteTokens = waste;
        report.kvFragGrossTokens = gross;
        report.kvMeanFragmentation =
            gross > 0 ? static_cast<double>(waste) /
                            static_cast<double>(gross)
                      : 0.0;
    }

    // The queue is empty: the next submit cycle starts a fresh clock.
    lastArrivalMs_ = 0.0;

    // Conservation: every offered request completed or was shed. A
    // clean drain pays this one comparison; only a loss searches the
    // drain's queues for the first stranded request.
    const std::uint64_t offered = submitted + injected;
    const std::uint64_t completed = report.results.size();
    if (completed + report.kvShed != offered) {
        std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
        std::string where;
        auto note = [&](std::uint64_t id, const std::string &place) {
            if (id < first) {
                first = id;
                where = place;
            }
        };
        for (const auto &entry : ready)
            note(entry.second.id, "the ready queue");
        for (const Handoff &h : pendingHandoff)
            note(h.m.res.id, "pendingHandoff");
        for (std::size_t d = 0; d < n; ++d) {
            const std::string of = " of replica " + std::to_string(d);
            for (const Member &m : rt[d].outbox)
                note(m.res.id, "the outbox" + of);
            for (const Member &m : inbound[d])
                note(m.res.id, "inbound" + of);
            for (const Member &m : rt[d].prefill)
                note(m.res.id, "the prefill batch" + of);
            for (const Member &m : rt[d].gen)
                note(m.res.id, "the generation batch" + of);
        }
        for (const auto &entry : suspended)
            note(entry.first, "suspended");
        IANUS_FATAL("drain lost requests: ", offered, " offered, ",
                    completed, " completed, ", report.kvShed, " shed; ",
                    where.empty()
                        ? std::string("no queue holds a stranded request")
                        : "the first stranded request, id " +
                              std::to_string(first) + ", sits in " +
                              where);
    }
    return report;
}

} // namespace ianus::serve
