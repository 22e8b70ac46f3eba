/**
 * @file
 * Event-driven cluster serving: the paper's motivating datacenter
 * scenario (Section 1/6.1, heavy traffic) scaled from one device to a
 * pool of replicas, with optional request batching on each replica.
 *
 * ServingEngine queues InferenceRequests (submit) and replays them on a
 * DevicePool (drain) under a pluggable SchedulingPolicy and Router. The
 * drain loop is discrete-event simulation on sim::EventQueue: request
 * arrivals and per-replica completions are events; whenever a replica
 * can accept work and requests wait, the policy picks *which* requests
 * dispatch next (FCFS, shortest-job-first, earliest-deadline-first) and
 * the router picks *which accepting replica* serves each one
 * (round-robin, least-loaded, queue-depth, predicted-finish,
 * kv-affinity — the estimate-driven routers price heterogeneous
 * replicas by their own cached-stats service times).
 *
 * ServingOptions::batching selects how many requests a replica serves
 * at once:
 *  - none (default): batch 1, the paper's Section 6.1 regime — each
 *    dispatched request holds its replica to completion (unless
 *    preemption evicts it at a token boundary);
 *  - static: an idle replica seals a batch of up to maxBatch waiting
 *    requests and serves it to completion (the batch shrinks as
 *    requests finish but admits no one new);
 *  - continuous: requests join a replica's running batch at token
 *    boundaries and leave as they finish — per-token batching over
 *    CompiledModel's batched-step cost model (shared FC weight traffic
 *    on the NPU, per-request PIM GEMV/attention).
 *
 * Two token-boundary refinements layer on the segment loop (see
 * docs/SCHEDULING.md):
 *  - chunked prefill (ServingOptions::prefillChunk > 0): a joiner's
 *    summarization runs as chunk-sized segments instead of one
 *    batch-stalling monolith; a generation segment interleaves after
 *    every ~prefillChunk summarized prompt tokens, and the policy
 *    re-picks the most urgent pending prefill at every chunk boundary;
 *  - preemption (ServingOptions::preempt): at a segment boundary a
 *    waiting request the policy deems more urgent (SJF/EDF) may evict
 *    the least-urgent generating resident; the evicted request's KV
 *    cache stays on its replica and it resumes there, at the KV length
 *    reached, on a later dispatch.
 *
 * With maxBatch == 1 and both refinements off the batched machinery
 * degrades to the exact legacy path — the same model.run calls, the
 * same double arithmetic, the same event ordering — so a
 * single-replica FCFS drain still reproduces the synchronous PR-1
 * serving loop bit for bit; likewise prefillChunk == 0 and preempt ==
 * false reproduce the pre-preemption segment loop bit for bit.
 *
 * drain() produces per-request RequestResults (completion order) and an
 * aggregated ServingReport: latency percentiles, generation throughput,
 * SLO miss rate, per-replica utilization / busy-idle split / dispatch
 * counts, batch occupancy, and a merged RunStats suitable for the
 * energy model.
 */

#ifndef IANUS_SERVE_SERVING_ENGINE_HH
#define IANUS_SERVE_SERVING_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ianus/report.hh"
#include "serve/device_pool.hh"
#include "serve/kv_manager.hh"
#include "workloads/model_config.hh"

namespace ianus::serve
{

/** One request with its arrival time: a row of an ArrivalTrace, and of
 *  ServingEngine's submit queue.
 *
 *  Session fields tag the request as one turn of a multi-turn
 *  conversation: sessionId 0 is the single-turn sentinel (generated
 *  session ids start at 1), turnIndex counts turns from 0 within a
 *  session, and prefixTokens is how many of the request's input tokens
 *  are the shared conversation prefix (prior prompt + prior output) a
 *  prefix cache could reuse. Single-turn requests leave all three 0. */
struct TimedRequest
{
    workloads::InferenceRequest request{};
    double arrivalMs = 0.0;
    std::uint64_t sessionId = 0;
    std::uint64_t turnIndex = 0;
    std::uint64_t prefixTokens = 0;

    /** Traffic source tag (0 = untagged), threaded through submit into
     *  the RequestResult so mixed drains can slice the report per
     *  source. An injection-layer concept: the on-disk trace format
     *  does not carry it (saving a tagged trace drops the tags). */
    std::uint32_t source = 0;

    /** Every field compares equal. */
    bool operator==(const TimedRequest &) const = default;
};

/**
 * One request waiting to dispatch in a drain, as the scheduling policy
 * and the router see it: its trace row (request, arrival on the
 * serving clock, session tags, source tag) plus the fields the engine
 * manages.
 *
 * The session tags, the source tag and the resume fields are
 * off-limits to policy urgency keys. A policy MUST NOT fold progress
 * into its urgency key, which the urgency contract requires to be
 * static; progress-dependent keys reopen the evict/resume ping-pong the
 * static-key argument rules out. The engine itself treats the source
 * tag as opaque — scheduling, routing, and batching never read it, so
 * tagging a drain changes no timing bit; mixed drains tag interactive
 * vs batch traffic so the report can slice per source (see
 * ServingReport::sourceSlices).
 */
struct QueuedRequest : TimedRequest
{
    std::uint64_t id = 0;

    // --- Preemption resume state (engine-managed) -----------------------
    /** True for a request re-queued by an eviction: its KV cache is
     *  retained on replica boundReplica, so a re-dispatch skips the
     *  prefill and must land on that replica (affinity overrides the
     *  router). */
    bool resumed = false;
    std::size_t boundReplica = 0;

    /** Filled by the engine right before routing: the replica whose
     *  prefix cache still holds this session's prior-turn KV, or
     *  noReplica when no hit is possible (cold turn, evicted prefix,
     *  or prefix cache off). Session-sticky routers read it; others
     *  are free to ignore it. */
    static constexpr std::size_t noReplica = static_cast<std::size_t>(-1);
    std::size_t sessionHitReplica = noReplica;
};

/**
 * What a SchedulingPolicy sees besides the waiting queue: the engine's
 * per-token SLO, nothing else. Urgency keys are static (the urgency
 * contract below), so one context serves a whole drain.
 */
struct SchedulerContext
{
    /** The engine's per-token SLO (EDF derives deadlines from it). */
    double sloMsPerToken = 0.0;
};

/**
 * How a policy's selectBatch ordering relates to the waiting queue —
 * declared by the policy so the engine can keep the queue in an
 * incremental structure that makes re-running selectBatch at every
 * token boundary unnecessary (see Drain::admit's ready-queue fast
 * paths in drain.cc and docs/PERFORMANCE.md).
 */
enum class QueueOrder : std::uint8_t
{
    /** No declared structure: the engine materializes the queue in
     *  arrival order and calls selectBatch at every admission point
     *  (the always-correct path; custom policies get it by default). */
    Dynamic,
    /** selectBatch always returns {0}: dispatch strictly in arrival
     *  order with head-of-line blocking (FCFS). The engine walks its
     *  ready index from the head and never calls selectBatch. */
    Arrival,
    /** selectBatch returns the whole queue stable-sorted by the
     *  policy's *static* urgency() key (the urgency contract below):
     *  ascending urgency, ties in queue order. The engine keeps an
     *  ordered index keyed (urgency, insertion sequence) and never
     *  calls selectBatch during a drain. */
    StaticUrgency,
};

/**
 * Dispatch-order policy. Whenever at least one replica can accept a
 * request (it is at a token boundary with a free batch slot) and the
 * queue is non-empty, the engine hands the policy the waiting queue
 * (arrival order) and the SLO context; the policy returns the queue
 * indices to dispatch next, in order. FCFS returns {0}; the default,
 * kept by SJF/EDF, returns the queue ordered by urgency(). The engine
 * dispatches the returned prefix that fits into open batch slots (one
 * request per slot, routed individually) and re-consults the policy at
 * the next arrival or boundary.
 *
 * Contract (enforced with IANUS_FATAL where drain() consumes the batch,
 * see Drain::admit in drain.cc): the batch must be non-empty and every
 * index must be in range and distinct.
 */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * The ordering discipline selectBatch follows. A policy that
     * declares Arrival or StaticUrgency promises its selectBatch is
     * exactly the canonical form described on QueueOrder; the engine
     * then serves the queue from an equivalent incremental structure
     * and skips selectBatch on the hot path entirely. The shipped
     * policies declare theirs; the Dynamic default keeps any custom
     * selectBatch bit-identical to the pre-optimization engine.
     */
    virtual QueueOrder queueOrder() const { return QueueOrder::Dynamic; }

    /** Called with a non-empty queue; must return >= 1 valid index.
     *  The default is the StaticUrgency form: the whole queue
     *  stable-sorted by urgency(). */
    virtual std::vector<std::size_t>
    selectBatch(const std::vector<QueuedRequest> &queue,
                const SchedulerContext &ctx);

    /**
     * Preemption key: lower = more urgent. With ServingOptions::preempt
     * on, a waiting request with strictly lower urgency than a
     * generating resident may evict it at a segment boundary.
     *
     * Contract: the key must be *static* per request — a function of
     * the request's shape and arrival only, never of its progress.
     * Static keys make the evict relation a strict order (an evicted
     * request can never evict its evictor back), which is what rules
     * out preemption livelock. The default, arrival time, makes a
     * policy preemption-inert: a waiting request never strictly
     * precedes a resident that was admitted before it arrived (FCFS
     * keeps this default on purpose).
     */
    virtual double urgency(const QueuedRequest &q,
                           const SchedulerContext &ctx) const;
};

/** First come, first served (the paper's serving regime). */
class FcfsPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "fcfs"; }

    QueueOrder queueOrder() const override { return QueueOrder::Arrival; }

    std::vector<std::size_t>
    selectBatch(const std::vector<QueuedRequest> &queue,
                const SchedulerContext &ctx) override;
};

/**
 * Shortest job first, on an estimated service cost: input tokens plus
 * 8 x output tokens (summarization scales roughly linearly with input
 * length while each generated token costs a fixed multiple of one input
 * token's summarization share). Ties fall back to arrival order.
 */
class SjfPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "sjf"; }

    QueueOrder
    queueOrder() const override
    {
        return QueueOrder::StaticUrgency;
    }

    /** The SJF cost estimate of the whole request (static — see the
     *  urgency contract). */
    double urgency(const QueuedRequest &q,
                   const SchedulerContext &ctx) const override;
};

/**
 * SLO-aware earliest deadline first: a request's deadline is
 * arrival + sloMsPerToken x output tokens (its completion budget under
 * the per-token SLO). Ties fall back to arrival order.
 */
class EdfPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "edf"; }

    QueueOrder
    queueOrder() const override
    {
        return QueueOrder::StaticUrgency;
    }

    /** The request's deadline (static — see the urgency contract). */
    double urgency(const QueuedRequest &q,
                   const SchedulerContext &ctx) const override;
};

/** Policy by name: "fcfs", "sjf", "edf". Unknown names are fatal. */
std::unique_ptr<SchedulingPolicy> makePolicy(const std::string &name);

/** Live view of one replica that accepts the candidate, as routers see
 *  it: at a token boundary with a free batch slot (without batching,
 *  plain idleness), able to take fresh work and not KV-blocked. */
struct ReplicaStatus
{
    std::size_t index = 0; ///< the replica's index in the pool
    double freeAtMs = 0.0; ///< busy-until time; <= now_ms when idle
    double busyMs = 0.0;   ///< cumulative service time dispatched so far
    std::uint64_t dispatched = 0;
    /** Requests currently resident in the replica's batch. */
    std::size_t resident = 0;

    // --- Load signals beyond busy time --------------------------------
    /** Residents still awaiting (the rest of) their prefill — the
     *  replica's pending-queue depth. */
    std::size_t pendingPrefill = 0;
    /** Generation steps the residents still owe. */
    std::uint64_t backlogTokens = 0;
    /** Evicted requests whose KV cache is parked on this replica,
     *  waiting to resume (their slot is spoken for). */
    std::size_t suspendedKv = 0;

    // --- KV capacity signal (ServingOptions::kv enabled only) ----------
    /** Reserved / total KV blocks; > 1 means overcommitted. 0.0 when
     *  the KV manager is off — the capacity-blind tuple orderings and
     *  finish estimates are then bit-identical to the pre-KV engine. */
    double kvPressure = 0.0;

    // --- Heterogeneity signals (service-time estimates) ----------------
    //
    // Filled by the engine only when the router declares
    // needsEstimates() — deriving them executes (and caches) probe
    // programs on the replica, which estimate-blind routers should not
    // pay for. Both come from the replica's own CompiledModel cached
    // stats, so heterogeneous replicas report honestly different
    // numbers (see CompiledModel::estimateGenerationMs).
    /** The candidate's prefill, served here: the wall ms of
     *  prefillChunkStats(prior, input - prior, true), with prior the
     *  cached prefix on a prefix-cache hit and 0 otherwise. */
    double estPrefillMs = 0.0;
    double estGenMs = 0.0; ///< the candidate's generation, alone here
};

/**
 * Placement policy: which accepting replica a dispatched request lands
 * on. Only the drain decides which replicas accept: it calls route()
 * with one ReplicaStatus row per accepting replica, in index order, and
 * only when there is one. route() must return an offered row's index
 * (IANUS_FATAL otherwise — enforced where drain() consumes the route,
 * next to the selectBatch enforcement). A resumed (previously evicted)
 * request never reaches the router in a live drain: the dispatch site
 * pins it to the replica holding its KV cache.
 */
class Router
{
  public:
    virtual ~Router() = default;

    virtual const char *name() const = 0;

    /** Routers that read the ReplicaStatus est*Ms fields declare it
     *  here; the engine fills those fields (executing and caching probe
     *  programs on each offered replica as needed) only when this
     *  returns true, so estimate-blind routers keep their replicas'
     *  cache accounting untouched. */
    virtual bool needsEstimates() const { return false; }

    virtual std::size_t route(const QueuedRequest &request,
                              const std::vector<ReplicaStatus> &replicas,
                              double now_ms) = 0;
};

/** Rotates over accepting replicas by pool index, independent of load. */
class RoundRobinRouter : public Router
{
  public:
    const char *name() const override { return "round-robin"; }

    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override;

  private:
    std::size_t cursor_ = 0;
};

/** Accepting replica with the least cumulative busy time (ties: fewest
 *  dispatches, then lowest index). */
class LeastLoadedRouter : public Router
{
  public:
    const char *name() const override { return "least-loaded"; }

    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override;
};

/** Accepting replica with the fewest resident requests (ties: fewest
 *  backlog tokens, then least busy time, then fewest dispatches, then
 *  lowest index). Queue depth reacts to load a replica has *committed
 *  to* rather than load it has already served, so it recovers faster
 *  than least-loaded when one replica falls behind — but it still
 *  treats a slow replica's slot as worth a fast one's. */
class QueueDepthRouter : public Router
{
  public:
    const char *name() const override { return "queue-depth"; }

    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override;
};

/**
 * Accepting replica on which the candidate request is estimated to
 * finish earliest:
 *
 *   finish = max(now, freeAt) + estPrefill x (1 + pendingPrefill)
 *                             + estGen x (1 + generating residents)
 *
 * The est terms are the replica's own cached-stats estimates of *this*
 * candidate (heterogeneous replicas honestly differ), prefill segments
 * are exclusive (each resident prefill still owed is charged at the
 * candidate's prefill estimate), and generation is batched-step aware:
 * joining a batch of B residents dilates the candidate's steps by the
 * occupancy it will share. Ties: lowest index. This is the router that
 * stops a slow replica from absorbing as much traffic as a fast one —
 * cumulative busy time treats every idle replica as equally cheap;
 * predicted finish prices the service itself.
 */
class PredictedFinishRouter : public Router
{
  public:
    const char *name() const override { return "predicted-finish"; }

    bool needsEstimates() const override { return true; }

    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override;
};

/**
 * KV-affinity routing, completing the preemption co-design from both
 * sides. For a resumed candidate it prefers the replica already holding
 * the request's KV cache (in a live drain the dispatch site enforces
 * exactly that before routing; the branch here makes the choice
 * function total and unit-testable). For a fresh candidate it steers
 * work *away* from replicas with parked suspended KV — their open slot
 * is spoken for by an evictee waiting to resume — and scores the rest
 * by predicted finish, falling back to pure predicted-finish when every
 * accepting replica holds parked KV.
 *
 * Session turns are sticky the same way: a candidate whose
 * sessionHitReplica is set (its prior-turn prefix KV is still pinned
 * there) returns to that replica whenever it accepts and its KV
 * pressure is at most stickyPressureLimit. The engine prices the
 * delta-only re-prefill into the bound replica's estPrefillMs, so the
 * predicted-finish fallback also sees the saving when stickiness
 * yields.
 */
class KvAffinityRouter : public Router
{
  public:
    const char *name() const override { return "kv-affinity"; }

    /** Session stickiness yields above this KV pressure on the bound
     *  replica: past it, a full re-prefill elsewhere beats queueing
     *  behind spill-degraded segments for the delta. */
    static constexpr double stickyPressureLimit = 0.9;

    bool needsEstimates() const override { return true; }

    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override;
};

/**
 * SLO-budget routing: route to the *cheapest* accepting replica whose
 * estimated completion still meets the candidate's deadline
 * (arrival + sloMsPerToken x output tokens — the same budget EDF and
 * deadlineMiss judge against). Among the replicas predicted to finish
 * in time it picks the one predicted to finish *latest* (ties: lowest
 * index): a slack-rich request spills to a slow replica and leaves the
 * fast ones free for requests whose budgets need them — the inversion
 * of predicted-finish, which sends everyone to the fastest replica and
 * burns its capacity on requests that never needed it. When no
 * accepting replica can meet the deadline, it degrades to
 * predicted-finish (least-bad lateness).
 */
class SloBudgetRouter : public Router
{
  public:
    /** @p slo_ms_per_token must match the engine's
     *  ServingOptions::sloMsPerToken for the deadlines to agree with
     *  the report's deadlineMiss accounting. */
    explicit SloBudgetRouter(double slo_ms_per_token = 10.0);

    const char *name() const override { return "slo-budget"; }

    bool needsEstimates() const override { return true; }

    std::size_t route(const QueuedRequest &request,
                      const std::vector<ReplicaStatus> &replicas,
                      double now_ms) override;

    double sloMsPerToken() const { return sloMsPerToken_; }

  private:
    double sloMsPerToken_;
};

/** Router by name: "round-robin" (or "rr"), "least-loaded" ("ll"),
 *  "queue-depth" ("qd"), "predicted-finish" ("pf"), "kv-affinity"
 *  ("kv"), "slo-budget" ("slo", deadlines from @p slo_ms_per_token).
 *  Unknown names are fatal. */
std::unique_ptr<Router> makeRouter(const std::string &name,
                                   double slo_ms_per_token = 10.0);

/**
 * Completed request: its trace row, echoed from the submit, then its
 * latency decomposition and accounting scalars. The row's source tag
 * slices mixed drains per source (see ServingReport::sourceSlices),
 * and its session tags are 0/0/0 for a single-turn request. Device
 * cost (RunStats) is not kept per request: each request's attribution
 * merges into ServingReport::aggregate as it completes and reaches the
 * completion hook (ServingEngine::setCompletionHook), so a
 * million-request report holds scalars only.
 */
struct RequestResult : TimedRequest
{
    // Declared first, the three flags fill the row's tail padding.
    bool sloMiss = false;
    /** Finished after its EDF deadline (arrival + SLO x output tokens).
     *  Unlike sloMiss, which judges the generation cadence only, this
     *  charges queueing and suspension too — the completion-budget view
     *  EDF schedules against, and the metric preemption moves. */
    bool deadlineMiss = false;
    /** True iff the prefix cache served this turn's shared prefix: the
     *  request prefilled only its delta on the replica still holding
     *  the prior turn's KV. */
    bool prefixHit = false;

    std::uint64_t id = 0;

    double startMs = 0.0;  ///< when a replica picked it up
    double finishMs = 0.0; ///< when the last token was emitted

    /** Device residency (finish - start - suspended). Served alone and
     *  never evicted this equals the request's InferenceReport
     *  totalMs(); in a batch it is wall time sharing the replica, so
     *  summing it across requests double-counts. */
    double serviceMs = 0.0;
    /** TTFT: queueing, any batch stall or interleaved segments between
     *  prefill chunks, and the prefill itself (the last chunk's LM
     *  head emits the first token). */
    double firstTokenMs = 0.0;
    /** Generation-stage wall ms per token as the client observes it
     *  ((finish - arrival - TTFT) / steps); batching inflates a single
     *  step but deflates nothing — throughput gains show up in
     *  tokensPerSecond(), not here. */
    double msPerToken = 0.0;

    std::size_t deviceIndex = 0; ///< replica that served the request
                                 ///< (decode side after a handoff)

    // --- Disaggregated prefill/decode accounting ------------------------
    /** Replica that ran the prefill. Equal to deviceIndex except for
     *  requests handed off prefill->decode in a role-typed pool. */
    std::size_t prefillIndex = 0;
    /** Wall ms the prefill->decode KV transfer took (0 when the
     *  request never handed off, or over a zero-cost link). */
    double kvTransferMs = 0.0;
    /** KV tokens shipped over the link (the prompt's written cache; on
     *  a prefix hit only the delta past the cached prefix). */
    std::uint64_t kvTransferTokens = 0;

    /** Token-weighted mean batch occupancy over this request's
     *  generation steps; 1.0 when it was served alone. */
    double meanBatchSize = 1.0;

    /** Times this request was evicted at a token boundary (0 = never
     *  preempted). Preemption strikes generation only, so TTFT is
     *  never suspension-inflated; totalMs() and msPerToken are — the
     *  client-observed cost of being deprioritized. */
    std::uint64_t preemptions = 0;

    /** Wall time spent evicted (between an eviction and the matching
     *  re-dispatch). Inside totalMs(), excluded from serviceMs. */
    double suspendedMs = 0.0;

    /** Prefill segments the summarization ran as (1 = monolithic). */
    std::uint64_t prefillChunks = 1;

    /** Prompt tokens this request actually prefilled (= input tokens,
     *  minus prefixTokens on a hit). */
    std::uint64_t prefilledTokens = 0;

    /** Generation steps this request ran (its InferenceReport's
     *  generationSteps; the weight of meanBatchSize in
     *  ServingReport::meanBatchOccupancy). */
    std::uint64_t generationSteps = 0;

    double queueMs() const { return startMs - arrivalMs; }

    /** End-to-end latency as the client sees it (queue + service). */
    double totalMs() const { return finishMs - arrivalMs; }

    /** Every field compares equal (replay checks). */
    bool operator==(const RequestResult &) const = default;
};

/** Per-replica accounting over one drain(). */
struct ReplicaUtilization
{
    std::uint64_t dispatched = 0;
    double busyMs = 0.0;      ///< service time, at most the makespan
    double idleMs = 0.0;      ///< makespan - busy
    double utilization = 0.0; ///< busy / makespan (0 if empty drain)

    /** KV tokens still resident when the drain finished — must be 0
     *  (every completion/eviction path releases its cache; the
     *  invariant sweep asserts it). */
    std::uint64_t kvTokensEnd = 0;
    /** KV block reservations never released by the end of the drain —
     *  must be 0 for the same reason. */
    std::uint64_t kvBlocksLeaked = 0;
};

/**
 * One traffic source's slice of a drain's results (mixed drains tag
 * interactive vs batch traffic; see trace_gen.hh's kInteractiveSource /
 * kBatchSource). Slices partition the fleet's results exactly: summing
 * requests and generatedTokens over a report's sourceSlices() equals
 * the fleet totals, and every percentile is computed over the slice's
 * own requests only. Rates that need a time base (goodput) use the
 * *fleet* makespan, so per-source goodputs are additive too.
 */
struct SourceSlice
{
    std::uint32_t source = 0;
    std::size_t requests = 0;
    std::uint64_t generatedTokens = 0;
    double ttftP50Ms = 0.0;
    double ttftP95Ms = 0.0;
    double latencyP50Ms = 0.0;
    double latencyP95Ms = 0.0;
    double sloMissRate = 0.0;
    double deadlineMissRate = 0.0;
    /** Generated tokens of this source's deadline-meeting requests per
     *  second of the *fleet* makespan (additive across slices). */
    double goodputTokensPerSec = 0.0;
};

/** Fleet-level aggregation over one drain(). */
struct ServingReport
{
    std::vector<RequestResult> results; ///< completion order
    std::string policy;
    std::string router;
    std::string batching;     ///< batching mode name ("none" when off)
    std::size_t maxBatch = 1; ///< per-replica batch-size cap
    std::uint64_t prefillChunk = 0; ///< prefill chunk tokens (0 = whole)
    bool preempt = false;           ///< token-boundary preemption on?
    KvOptions kv{};                 ///< KV-capacity knobs, echoed back

    /** Replica roles, echoed back (empty = all unified). */
    std::vector<ReplicaRole> roles;

    /** Sub-clusters this report was simulated as (1 = plain drain();
     *  > 1 = merged by drainSharded, see serve/sharded_drain.hh). */
    std::size_t shards = 1;

    /** Discrete events the drain executed (summed across shards) — the
     *  denominator of the events/sec simulator-speed metric. */
    std::uint64_t simEvents = 0;

    /** Per-replica utilization, indexed like the pool. */
    std::vector<ReplicaUtilization> replicas;

    double sloMsPerToken = 0.0;
    double makespanMs = 0.0; ///< first arrival -> last completion
    std::uint64_t generatedTokens = 0;

    // --- KV capacity accounting (kv.enabled() drains only) -------------
    /** Requests dropped by `shed` admission (they get no RequestResult;
     *  results.size() excludes them). */
    std::uint64_t kvShed = 0;
    /** High-water KV pressure across all replicas (> 1 means some
     *  replica overcommitted under `none` admission). */
    double kvPeakPressure = 0.0;
    /** Token-weighted mean internal fragmentation over released KV
     *  reservations: wasted block tokens / reserved block tokens
     *  (= kvFragWasteTokens / kvFragGrossTokens). */
    double kvMeanFragmentation = 0.0;
    /** Raw fragmentation counters behind kvMeanFragmentation, kept so
     *  per-shard reports merge exactly (a mean of means would not). */
    std::uint64_t kvFragWasteTokens = 0;
    std::uint64_t kvFragGrossTokens = 0;
    /** Segments whose wall time the PCIe spill model dilated. */
    std::uint64_t kvSpilledSegments = 0;
    /** Largest per-segment dilation factor applied (1.0 = no spill). */
    double kvMaxDilation = 1.0;

    // --- Disaggregation accounting (role-typed pools only) ---------------
    /** Prefill->decode KV handoffs completed. */
    std::uint64_t kvTransfers = 0;
    /** Wall ms spent on the KV link, summed over transfers. */
    double kvTransferMs = 0.0;
    /** Gigabytes shipped over the KV link, summed over transfers
     *  (counted even when the link is zero-cost). */
    double kvTransferGB = 0.0;

    // --- Prefix-cache accounting (session traces only) ------------------
    /** Resumable turns (turnIndex > 0) whose shared prefix was served
     *  from the prior turn's pinned KV (delta-only prefill). */
    std::uint64_t prefixHits = 0;
    /** Resumable turns that had to re-prefill their full context
     *  (prefix evicted for space, shed, or routed off the bound
     *  replica). Turn-0 requests are neither hits nor misses. */
    std::uint64_t prefixMisses = 0;
    /** Prompt tokens the prefix cache kept out of prefill (the sum of
     *  prefixTokens over hits) — the aggregate-prefill-compute saving
     *  bench/micro_session_prefix gates on. */
    std::uint64_t prefillTokensSaved = 0;

    /** Merged per-request combined() stats, in completion order
     *  (energy-model input; the only place per-request device cost is
     *  kept once a drain returns). */
    RunStats aggregate;

    std::size_t requests() const { return results.size(); }

    /**
     * Percentile with linear interpolation between closest ranks:
     * p in [0, 100] maps to rank p/100 * (n-1) of the sorted values.
     *
     * Contract (one behavior, regression-tested): empty input yields
     * 0.0 whatever p is; p outside [0, 100] clamps to the nearest
     * bound (p <= 0 returns the minimum, p >= 100 the maximum); a NaN
     * p is a caller bug and fatal — it names no rank, and the index
     * arithmetic would otherwise read whatever static_cast<size_t> of
     * NaN happens to produce.
     */
    static double percentile(std::vector<double> values, double p);

    /**
     * All of @p ps from one pass over @p values: only the order
     * statistics the ps read are selected (std::nth_element over
     * successively shorter tails), never a full sort, and every result
     * equals what a full sort would give, bit for bit.
     */
    static std::vector<double>
    percentiles(std::vector<double> values, const std::vector<double> &ps);

    /** Percentile of end-to-end request latency (queue + service). */
    double latencyPercentile(double p) const;
    std::vector<double>
    latencyPercentiles(const std::vector<double> &ps) const;

    /** Percentile of time-to-first-token. */
    double ttftPercentile(double p) const;
    std::vector<double> ttftPercentiles(const std::vector<double> &ps) const;

    /** Percentile of device service time (queueing excluded). */
    double serviceTimePercentile(double p) const;

    /** Generated tokens per second of makespan. */
    double tokensPerSecond() const;

    /** Fraction of requests whose ms/token exceeded the SLO. */
    double sloMissRate() const;

    /** Fraction of requests that finished after their EDF deadline
     *  (arrival + SLO x output tokens) — queueing included. */
    double deadlineMissRate() const;

    /** Mean per-replica utilization. */
    double meanUtilization() const;

    /** Token-weighted mean batch occupancy over all generation steps
     *  (1.0 when every request ran alone; 0 with no generated steps). */
    double meanBatchOccupancy() const;

    /** Total evictions across all requests. */
    std::uint64_t preemptions() const;

    /** Fraction of requests evicted at least once. */
    double preemptionRate() const;

    /** Fraction of offered requests dropped by `shed` admission
     *  (kvShed / (completed + kvShed); 0 with nothing offered). */
    double kvShedRate() const;

    /** SLO-goodput: generated tokens of requests that met their EDF
     *  deadline, per second of makespan — the metric capacity-aware
     *  admission moves (tokens generated late, or at spill-dilated
     *  cadence, stop counting). */
    double sloGoodputTokensPerSec() const;

    /** Prefix hits / (hits + misses); 0 with no resumable turns. */
    double prefixHitRate() const;

    /** Number of distinct sessions among the results (sessionId != 0). */
    std::size_t sessions() const;

    /** Per-session end-to-end latencies — last turn's finish minus
     *  first turn's arrival, one value per distinct session, in
     *  ascending sessionId order. Empty for sessionless drains. */
    std::vector<double> sessionLatenciesMs() const;

    /** Percentile over sessionLatenciesMs() (0 with no sessions). */
    double sessionLatencyPercentile(double p) const;

    /** Per-source result slices, ascending source id — one entry per
     *  distinct source among the results (a single untagged drain gets
     *  one source-0 slice). See SourceSlice for the partition
     *  guarantees. */
    std::vector<SourceSlice> sourceSlices() const;

    /** One-line fleet summary. */
    std::string summary() const;
};

/** How a replica forms request batches. */
enum class BatchingMode : std::uint8_t
{
    None,       ///< batch 1: a request holds its replica to completion
                ///< (still preemptible at token boundaries)
    Static,     ///< an idle replica seals a batch and drains it
    Continuous  ///< join/leave a running batch at token boundaries
};

const char *toString(BatchingMode mode);

/** Mode by name: "none", "static", "continuous". Unknown is fatal. */
BatchingMode makeBatchingMode(const std::string &name);

/** Serving-loop knobs. */
struct ServingOptions
{
    /** Per-token latency SLO used for the miss rate (Section 6.1). */
    double sloMsPerToken = 10.0;

    /**
     * Generation-step sampling stride. Unbatched (maxBatch == 1) it is
     * handed to CompiledModel::run (trapezoidal integration). Batched,
     * it is the segment granularity: a replica advances its batch up to
     * tokenStride tokens per segment (costed by trapezoid over the
     * segment's entry and exit batched-step samples), and joins/leaves
     * happen at segment boundaries.
     */
    unsigned tokenStride = 1;

    /** Batch formation discipline (see BatchingMode). */
    BatchingMode batching = BatchingMode::None;

    /**
     * Most requests a replica serves at once. 1 forces the legacy
     * batch-1 service path whatever the mode (bit-identical numbers)
     * unless prefillChunk or preempt routes service through the
     * segment loop; > 1 requires batching != None.
     */
    std::size_t maxBatch = 1;

    /**
     * Chunked prefill: split a joiner's summarization into segments of
     * at most this many prompt tokens. Two scheduling effects follow:
     * a generation segment interleaves whenever ~prefillChunk prompt
     * tokens have been summarized since the last one (residents keep
     * emitting tokens through a long prefill, while brief prefills
     * still pack back to back), and the policy re-picks the most
     * urgent pending prefill at every chunk boundary (an urgent short
     * prompt never waits out the whole of a long one — the TTFT-tail
     * win, which needs a policy whose urgency can reorder: FCFS
     * cannot). Each resumed chunk re-streams the FC weights and
     * reloads the prior KV, but never computes the causal mask's upper
     * triangle across chunks (see docs/SCHEDULING.md for the cost
     * model). 0 = monolithic prefill, the pre-chunking segment loop
     * bit for bit. Decoder models only; encoders always prefill
     * monolithically.
     */
    std::uint64_t prefillChunk = 0;

    /**
     * Token-boundary preemption: at a segment boundary, a waiting
     * request with strictly lower SchedulingPolicy::urgency than a
     * generating resident evicts the least-urgent such resident. The
     * evicted request's KV cache stays on its replica (resume =
     * re-dispatch there at the KV length reached; the router is
     * bypassed); its prefill is never re-run. FCFS urgency makes this
     * a no-op; incompatible with static batching (evicting from a
     * sealed batch would break the seal). false = the pre-preemption
     * loop bit for bit.
     */
    bool preempt = false;

    /**
     * KV-capacity model (see serve/kv_manager.hh): kv.capacityTokens >
     * 0 bounds each replica's resident + parked KV by a paged block
     * pool, activates the admission mode and layout, and routes service
     * through the segment loop. The default (0) is the pre-capacity
     * engine bit for bit.
     */
    KvOptions kv{};

    /**
     * Per-replica lifecycle roles for disaggregated prefill/decode
     * pools (see ReplicaRole). Empty — the default — types every
     * replica Unified, which is the pre-disaggregation engine bit for
     * bit; non-empty must match the replica count, keep at least one
     * prefill-capable (Prefill or Unified) and one decode-capable
     * (Decode or Unified) replica, and requires continuous batching
     * off or on but never static (a handoff joins a running decode
     * batch at a token boundary; a sealed batch admits no one). The
     * DevicePool constructor seeds this from the pool's own roles when
     * left empty.
     */
    std::vector<ReplicaRole> roles;

    /**
     * Prefill->decode KV link bandwidth in GB/s. 0 — the default —
     * derives the honest host-mediated rate from the *source*
     * replica's PCIe parameters (deriveKvLinkGBs: bytesPerTick x 1000
     * x dmaEfficiency); a positive value models a dedicated
     * interconnect at that rate; +infinity is the exact-zero-cost link
     * (transfers take 0 ms but bytes are still counted). Only read on
     * role-typed pools.
     */
    double kvLinkGBs = 0.0;

    /**
     * Per-replica prefix cache for multi-turn sessions: when a
     * completed turn has a successor in the drain, its KV stays pinned
     * on the replica (parked under the KV manager's accounting — the
     * blocks remain charged until the next turn claims or evicts
     * them), and a follow-up turn dispatched to that replica prefills
     * only its delta (prior = the cached prefix, via the chunked
     * prefill path). A turn landing anywhere else — or whose pin was
     * reclaimed for space — honestly re-prefills the full context.
     * Only active when the drain actually contains session-tagged
     * requests; `false`, or a tagless trace, is the cold path bit for
     * bit.
     */
    bool prefixCache = true;
};

/** Replays queued requests on a pool of replicas, event-driven. */
class ServingEngine
{
  public:
    /**
     * Single-replica engine (PR-1 compatible). @p policy defaults to
     * FCFS. The model must outlive the engine.
     */
    explicit ServingEngine(const CompiledModel &model,
                           ServingOptions opts = ServingOptions{},
                           std::unique_ptr<SchedulingPolicy> policy =
                               nullptr);

    /**
     * Cluster engine over @p pool (must be non-empty and outlive the
     * engine). @p policy defaults to FCFS, @p router to round-robin.
     */
    explicit ServingEngine(const DevicePool &pool,
                           ServingOptions opts = ServingOptions{},
                           std::unique_ptr<SchedulingPolicy> policy =
                               nullptr,
                           std::unique_ptr<Router> router = nullptr);

    /**
     * Cluster engine over an explicit replica view — a non-owning
     * subset/arrangement of models (all non-null, outliving the
     * engine). A view over all of a pool's replicas in pool order is
     * equivalent to the DevicePool constructor.
     */
    explicit ServingEngine(std::vector<const CompiledModel *> replicas,
                           ServingOptions opts = ServingOptions{},
                           std::unique_ptr<SchedulingPolicy> policy =
                               nullptr,
                           std::unique_ptr<Router> router = nullptr);

    /**
     * Queue a request arriving at @p arrival_ms on the serving clock
     * (default: immediately, i.e. time 0 — a closed-loop replay).
     * Arrival times must be non-decreasing across submits.
     *
     * The trailing session tags mark the request as one turn of a
     * multi-turn conversation (see TimedRequest):
     * @p session_id 0 is the single-turn sentinel, @p turn_index
     * counts turns from 0, and @p prefix_tokens of the input are the
     * shared conversation prefix (must be < input tokens; 0 for turn
     * 0). Tags feed the prefix cache and the session report fields;
     * defaulted, the request is an ordinary single-turn submit.
     *
     * @p source tags the request's traffic source (opaque to the
     * engine — see QueuedRequest::source); 0, the default, is the
     * untagged single-source drain every earlier PR ran.
     * @return the request id, echoed in its RequestResult.
     */
    std::uint64_t submit(const workloads::InferenceRequest &request,
                         double arrival_ms = 0.0,
                         std::uint64_t session_id = 0,
                         std::uint64_t turn_index = 0,
                         std::uint64_t prefix_tokens = 0,
                         std::uint32_t source = 0);

    /** Requests queued and not yet drained. */
    std::size_t pending() const { return queue_.size(); }

    /**
     * Size the submit queue for @p requests in total. Calling it before
     * the submits allocates the queue once, at final size, instead of
     * growing it by doubling (submitAll does); drain() reserves one
     * result per queued row itself. Changes no result.
     */
    void reserve(std::size_t requests);

    /**
     * Completion feedback: called inside drain() as each request
     * finalizes (completion order, after its RequestResult is recorded
     * and its cost merged into the report's aggregate). The second
     * argument is the request's own cost attribution — the whole
     * prefill plus a 1/B share of each batched generation step; on the
     * legacy batch-1 service path (see ServingOptions::maxBatch),
     * exactly CompiledModel::run's report. It is the only place
     * per-request RunStats are visible and is valid only during the
     * call. The hook may call inject() to add new arrivals mid-drain —
     * the feedback edge closed-loop clients need (a client's next
     * request arrives one think time after its previous one
     * completed). Pass nullptr to clear. The hook must not call
     * submit() or drain().
     */
    using CompletionHook = std::function<void(const RequestResult &,
                                              const InferenceReport &)>;
    void setCompletionHook(CompletionHook hook);

    /**
     * Add a request mid-drain, arriving at @p arrival_ms (>= the
     * completion time the surrounding hook observed). Only legal from
     * inside a completion hook; anywhere else it is fatal — outside a
     * drain there is no live event clock to schedule against, use
     * submit(). @p source tags the injected traffic's source (see
     * submit()). @return the request id.
     */
    std::uint64_t inject(const workloads::InferenceRequest &request,
                         double arrival_ms, std::uint32_t source = 0);

    /** Serve everything queued; returns the fleet report. */
    ServingReport drain();

  private:
    std::vector<const CompiledModel *> replicas_;
    ServingOptions opts_;
    std::unique_ptr<SchedulingPolicy> policy_;
    std::unique_ptr<Router> router_;
    /** Submitted rows; row k has id firstQueuedId_ + k. */
    std::vector<TimedRequest> queue_;
    std::uint64_t firstQueuedId_ = 0;
    std::uint64_t nextId_ = 0;
    double lastArrivalMs_ = 0.0;
    CompletionHook onComplete_;
    /** Live only while drain() runs: schedules an injected arrival into
     *  the running event loop (see inject()). */
    std::function<std::uint64_t(const workloads::InferenceRequest &,
                                double, std::uint32_t)>
        injector_;
};

} // namespace ianus::serve

#endif // IANUS_SERVE_SERVING_ENGINE_HH
