/**
 * @file
 * ServingEngine::drain(): the discrete-event serving loop, as one Drain
 * per call whose member functions are the loop's phases. Ticks only
 * sequence events (arrivals, completions, and batch-segment boundaries,
 * on the shared picosecond time base); all report math carries exact
 * doubles. With maxBatch == 1 and no feature on, every admitted request
 * takes the whole-request service path, so a single-replica FCFS drain
 * reproduces the synchronous PR-1 loop bit for bit. Chunked prefill,
 * preemption, a KV capacity, the prefix cache and typed roles route even
 * batch-1 service through the segment loop: token boundaries are what
 * each of them schedules at. Each of the last three is a component
 * (KvGate, PrefixCache, HandoffLink) that owns its state and exists
 * only while its feature is on (docs/ARCHITECTURE.md).
 */

#include "serve/drain.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace ianus::serve
{

namespace
{

/** How one candidate's dispatch attempt ended. Launched: it took a
 *  batch slot (whole-request service, resume, or batched admission).
 *  Consumed: it left the queue without dispatching (shed admission).
 *  Blocked: it stays queued (bound replica full, or KV admission holds
 *  it). */
enum class Attempt : std::uint8_t { Launched, Consumed, Blocked };

/** A resident of a replica's batch on the segment path: awaiting (the
 *  rest of) its prefill, or generating. */
struct Member
{
    RequestResult res;
    /** The request's cost attribution while it is in flight: the
     *  whole prefill plus a 1/B share of each batched generation
     *  step (fleet aggregates stay additive — energy-model input).
     *  Completion merges it into report.aggregate and hands it to the
     *  completion hook; results keep no RunStats. */
    InferenceReport stats;
    std::uint64_t prefillDone = 0; ///< prompt tokens summarized
    std::uint64_t chunksDone = 0; ///< prefill segments run so far
    std::uint64_t kvLen = 0;     ///< KV length the next step sees
    std::uint64_t remaining = 0; ///< generation steps left
    double weightedBatch = 0.0;  ///< sum of batch size over steps
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

    std::size_t resident() const { return prefill.size() + gen.size(); }
};

/** Whole-request service has at most one request in flight per
 *  replica: its result and cost wait in the replica's slot until the
 *  completion event, which then captures only the replica index. */
struct InFlight
{
    RequestResult res;
    InferenceReport stats;
};

/** The queue-entry view of a resident, for urgency queries: both
 *  preemption decision points (victim choice and chunk-boundary
 *  prefill pick) must hand the policy the same key inputs. */
QueuedRequest
asQueued(const Member &m)
{
    QueuedRequest view;
    view.id = m.res.id;
    view.request = m.res.request;
    view.arrivalMs = m.res.arrivalMs;
    return view;
}

class Drain
{
  public:
    /** A drain of @p rows. Results go to @p sink when there is one,
     *  otherwise into the report, which then reserves one per row. */
    Drain(const std::vector<const CompiledModel *> &replicas,
          const ServingOptions &opts, SchedulingPolicy &policy,
          Router &router, const RequestRows &rows,
          const ServingEngine::CompletionHook &on_complete,
          std::uint64_t &next_id, ResultSink *sink)
        : replicas_(replicas), opts_(opts), policy_(policy), router_(router),
          rows_(rows), onComplete_(on_complete), nextId_(next_id),
          sink_(sink), n_(replicas.size()),
          firstArrival_(rows.size == 0 ? 0.0 : rows[0].arrivalMs),
          order_(policy.queueOrder()), parked_(n_, 0), freeAt_(n_, 0.0),
          busy_(n_, false), inFlight_(n_), rt_(n_)
    {
        echoOptions(report_, policy.name(), router.name(), opts);
        report_.roles = opts.roles;
        report_.replicas.assign(n_, ReplicaUtilization{});
        if (!sink)
            report_.results.reserve(rows.size);

        if (opts.kv.enabled())
            kv_ = std::make_unique<KvGate>(*this);
        // The prefix cache only turns on with session-tagged work queued: a
        // tagless drain (or prefixCache off) builds none of it, keeping the
        // cold path structurally bit-identical.
        std::map<std::uint64_t, std::uint64_t> last_turn;
        for (std::size_t k = 0; k < rows.size; ++k)
            if (opts.prefixCache && rows[k].sessionId != 0) {
                auto [it, fresh] =
                    last_turn.emplace(rows[k].sessionId, rows[k].turnIndex);
                if (!fresh)
                    it->second = std::max(it->second, rows[k].turnIndex);
            }
        if (!last_turn.empty())
            prefix_ =
                std::make_unique<PrefixCache>(*this, std::move(last_turn));
        // Empty roles (the default) leave every replica unified; any typed
        // role runs the two-stage prefill -> KV-transfer -> decode
        // lifecycle.
        if (typedRoles(opts.roles))
            link_ = std::make_unique<HandoffLink>(*this, opts.roles);
        segmented_ = opts.maxBatch > 1 || opts.prefillChunk > 0 ||
                     opts.preempt || kv_ || prefix_ || link_;
    }
    // Events and components hold this drain's address.
    Drain(const Drain &) = delete;
    Drain &operator=(const Drain &) = delete;

    /** Replay the queue until every arrival, injected ones too, has
     *  completed or been shed. */
    void
    run()
    {
        scheduleNextBurst();
        events_.run();
        report_.simEvents = events_.executed();
    }

    /** Mid-drain arrivals (closed-loop feedback): a completion hook's
     *  inject() schedules a fresh arrival event into the running loop.
     *  Injected at the completing tick or later, it can never land in the
     *  past; run() keeps going until injected arrivals drain too. Tie
     *  semantics differ from submit() by design: pre-drain arrivals at one
     *  tick are grouped into a single burst, but each injection is its own
     *  event, delivered in completion order — the order the live clients
     *  actually acted in. Replaying a saved realized trace therefore groups
     *  same-instant arrivals the live session delivered one by one; both
     *  runs are deterministic, but exact-tie scheduling may differ between
     *  them. */
    std::uint64_t
    inject(const workloads::InferenceRequest &request, double arrival_ms,
           std::uint32_t source)
    {
        Tick when = msToTicks(arrival_ms);
        if (when < events_.now())
            IANUS_FATAL("injected arrival at ", arrival_ms,
                        " ms is in the drain's past");
        QueuedRequest q;
        q.id = nextId_++;
        q.request = request;
        q.arrivalMs = arrival_ms;
        q.source = source;
        ++injected_;
        events_.schedule(when, [this, q]() {
            readyPush(q);
            pump(q.arrivalMs);
        });
        return q.id;
    }

    /** Tally what is left, finish the report, check conservation. */
    ServingReport
    closeOut()
    {
        // Pins surviving the drain — prefixes whose next turn never
        // dispatched (trace tail, or sheds) — are cache, not leaks: release
        // them before the audit below counts leftovers.
        if (prefix_)
            for (std::deque<std::uint64_t> &p : prefix_->pins)
                while (!p.empty())
                    prefix_->unpin(p.front());
        // KV accounting audit: a fully drained engine holds no resident,
        // pending, or parked KV anywhere — anything left is a leaked cache
        // on some completion/eviction path (the invariant sweep asserts
        // both fields are zero). The engine-view count works with the KV
        // gate off too.
        forEachHeld([this](std::uint64_t, std::size_t d, std::uint64_t kv,
                           const char *) {
            report_.replicas[d].kvTokensEnd += kv;
        });
        if (kv_)
            kv_->closeOut(report_);
        closeReport(report_);

        // Conservation: every offered request completed or was shed. A
        // clean drain pays this one comparison; only a loss searches the
        // drain's queues for the first stranded request.
        const std::uint64_t offered = rows_.size + injected_;
        if (completed_ + report_.kvShed == offered)
            return std::move(report_);
        std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
        std::string where;
        for (const auto &entry : ready_)
            if (entry.second.id < first) {
                first = entry.second.id;
                where = "the ready queue";
            }
        forEachHeld([&](std::uint64_t id, std::size_t d, std::uint64_t,
                        const char *place) {
            if (id < first) {
                first = id;
                where = std::string(place) + " on replica " + std::to_string(d);
            }
        });
        IANUS_FATAL("drain lost requests: ", offered, " offered, ", completed_,
                    " completed, ", report_.kvShed, " shed; ",
                    where.empty()
                        ? std::string("no queue holds a stranded request")
                        : "the first stranded request, id " +
                              std::to_string(first) + ", sits in " + where);
    }

  private:
    /**
     * KV capacity (ServingOptions::kv enabled): one block pool per replica.
     * Each replica derives its spill bandwidth ratio from its own
     * SystemConfig, so a heterogeneous pool prices overcommit honestly.
     */
    struct KvGate
    {
        std::vector<KvBlockManager> pools;

        explicit KvGate(const Drain &dr)
        {
            pools.reserve(dr.n_);
            for (const CompiledModel *m : dr.replicas_)
                pools.emplace_back(dr.opts_.kv, m->config());
        }

        /** Would the gate turn candidate q away from replica d right now?
         *  (Never under `none` admission.) */
        bool
        blocks(const Drain &dr, const QueuedRequest &q, std::size_t d) const
        {
            if (q.resumed)
                return !pools[d].canResume(q.id);
            // A prefix-cache hit recycles its own pin's blocks on the bound
            // replica: gate admission on the headroom *after* that release, or
            // a pool full of pins would starve the very hit the pin was kept
            // for.
            const PrefixCache::Session *pin =
                dr.prefix_ ? dr.prefix_->hit(q) : nullptr;
            if (pin && pin->replica == d)
                return !pools[d].releaseWouldAdmit(pin->reqId,
                                                   dr.maxKvTokens(d, q));
            return !pools[d].canAdmit(dr.admitKvTokens(d, q));
        }

        /** Fatal unless some replica could hold need(d) tokens even empty
         *  (0: d may not take it): request id would wait forever. */
        template <typename Need>
        void
        requireEverFits(std::uint64_t id, std::uint64_t tokens,
                        const char *waiting, Need need) const
        {
            for (std::size_t d = 0; d < pools.size(); ++d)
                if (const std::uint64_t t = need(d);
                    t > 0 && pools[d].canEverAdmit(t))
                    return;
            IANUS_FATAL("request ", id, " needs ", tokens,
                        " KV tokens, more than any replica that could take "
                        "it can ever hold; ",
                        waiting);
        }

        /** KV written beyond capacity lives in host memory: the spilled
         *  fraction of a segment's KV traffic moves at PCIe instead of DRAM
         *  bandwidth, dilating its wall time. Exactly 1.0 (and no branch
         *  taken) while within capacity, so queue/shed admission never pays
         *  it. */
        double
        dilate(std::size_t d, double dur, ServingReport &report) const
        {
            const double dil = pools[d].dilation();
            if (dil > 1.0) {
                dur *= dil;
                report.kvSpilledSegments += 1;
                report.kvMaxDilation = std::max(report.kvMaxDilation, dil);
            }
            return dur;
        }

        void
        closeOut(ServingReport &report) const
        {
            for (std::size_t d = 0; d < pools.size(); ++d) {
                const std::int64_t leaked =
                    static_cast<std::int64_t>(pools[d].totalBlocks()) -
                    pools[d].freeBlocks();
                report.replicas[d].kvBlocksLeaked =
                    leaked > 0 ? static_cast<std::uint64_t>(leaked) : 0;
                report.replicas[d].kvTokensEnd += pools[d].residentTokens();
                report.kvPeakPressure =
                    std::max(report.kvPeakPressure, pools[d].peakPressure());
                report.kvFragWasteTokens += pools[d].fragWasteTokens();
                report.kvFragGrossTokens += pools[d].fragGrossTokens();
            }
        }
    };

    /**
     * Role-typed pools: the two-stage prefill -> KV-transfer -> decode
     * lifecycle. A member whose prefill finished on a Prefill replica waits
     * in that replica's outbox until the segment that wrote its last prompt
     * chunk completes, then rides the KV link to a decode-capable replica.
     * pending holds transfers whose decode-side KV reservation did not fit
     * yet (retried at every pump); inbound holds arrived members awaiting a
     * batch slot at their target.
     */
    struct HandoffLink
    {
        struct Handoff
        {
            Member m;
            std::size_t from;
        };

        Drain &dr;
        std::vector<ReplicaRole> roles;
        std::vector<std::deque<Member>> outbox;
        std::deque<Handoff> pending;
        std::vector<std::deque<Member>> inbound;

        HandoffLink(Drain &d, std::vector<ReplicaRole> r)
            : dr(d), roles(std::move(r)), outbox(d.n_), inbound(d.n_)
        {
        }
        // Transfer events hold this link's address.
        HandoffLink(const HandoffLink &) = delete;
        HandoffLink &operator=(const HandoffLink &) = delete;

        /** Transfers first at every pump: a retried handoff may land (or a
         *  zero-cost one already has), and arrived members join their
         *  target's decode batch at this token boundary ahead of fresh
         *  admissions. */
        void
        pump(double now)
        {
            if (!pending.empty()) {
                std::deque<Handoff> retry;
                retry.swap(pending);
                for (Handoff &h : retry)
                    start(std::move(h.m), h.from, now);
            }
            for (std::size_t d = 0; d < inbound.size(); ++d)
                while (!inbound[d].empty() && dr.capacity(d) > 0) {
                    dr.rt_[d].gen.push_back(std::move(inbound[d].front()));
                    inbound[d].pop_front();
                }
        }

        /** Replica d's segment ended at end: its outbox ships. Handoffs
         *  launch before the caller schedules its follow-up pump, so a
         *  zero-cost transfer's arrival (same tick, FIFO) lands ahead of it
         *  and the target's admission pass sees the member already
         *  inbound. */
        void
        ship(std::size_t d, double end)
        {
            while (!outbox[d].empty()) {
                Member m = std::move(outbox[d].front());
                outbox[d].pop_front();
                start(std::move(m), d, end);
            }
        }

        bool
        canReserve(std::size_t d, const QueuedRequest &mq) const
        {
            return !dr.kv_ ||
                   dr.kv_->pools[d].canAdmit(dr.maxKvTokens(d, mq));
        }

        /** The decode-capable replica that can reserve mq's worst-case KV
         *  now, ranked by (decode role first, load, most free blocks,
         *  index); noReplica when none can. */
        std::size_t
        rankTargets(const QueuedRequest &mq) const
        {
            std::size_t best = QueuedRequest::noReplica;
            std::tuple<int, std::size_t, std::int64_t, std::size_t> best_key{};
            for (std::size_t d = 0; d < roles.size(); ++d) {
                if (roles[d] == ReplicaRole::Prefill || !canReserve(d, mq))
                    continue;
                std::tuple<int, std::size_t, std::int64_t, std::size_t> key{
                    roles[d] == ReplicaRole::Decode ? 0 : 1,
                    dr.rt_[d].resident() + inbound[d].size(),
                    dr.kv_ ? -static_cast<std::int64_t>(
                                 dr.kv_->pools[d].freeBlocks())
                           : 0,
                    d};
                if (best == QueuedRequest::noReplica || key < best_key) {
                    best = d;
                    best_key = key;
                }
            }
            return best;
        }

        /**
         * Ship prefilled member m's KV from replica from to a decode-capable
         * replica. The ordering contract (docs/SCHEDULING.md): the target
         * reserves its worst-case KV *before* the transfer is scheduled, and
         * the source releases its prefill-side blocks only when the handoff
         * completes — at no instant is the member's KV unaccounted for. A
         * disaggregated prefix hit must land on its pin's replica (the pin's
         * returned blocks fund the admission); anything else takes the
         * best-ranked target. A target that cannot reserve reclaims pins first,
         * like any other admission; only a transfer still blocked then parks in
         * pending for the next pump.
         */
        void
        start(Member m, std::size_t from, double now)
        {
            const std::uint64_t sid = m.res.sessionId;
            const bool claimed = dr.prefix_ && dr.prefix_->claims(sid);
            const QueuedRequest mq = asQueued(m);
            std::size_t to = claimed ? dr.prefix_->landClaim(sid, mq)
                                     : rankTargets(mq);
            // Reclaim pins on decode-capable replicas, lowest index first,
            // until one can reserve; then rank again.
            if (!claimed && to == QueuedRequest::noReplica && dr.prefix_ &&
                dr.prefix_->reclaimAny(
                    sid,
                    [&](std::size_t d) {
                        return roles[d] != ReplicaRole::Prefill;
                    },
                    [&](std::size_t d) { return !canReserve(d, mq); }))
                to = rankTargets(mq);
            if (to == QueuedRequest::noReplica) {
                // Only the KV gate can block every target; a claimed
                // handoff waits for room on its pin's replica.
                if (!claimed)
                    dr.kv_->requireEverFits(
                        m.res.id, dr.maxKvTokens(from, mq),
                        "its handoff can never complete", [&](std::size_t d) {
                            return roles[d] == ReplicaRole::Prefill
                                       ? 0
                                       : dr.maxKvTokens(d, mq);
                        });
                pending.push_back({std::move(m), from});
                return;
            }
            if (dr.kv_) {
                dr.kv_->pools[to].admit(m.res.id, dr.maxKvTokens(to, mq));
                if (claimed)
                    dr.kv_->pools[to].setUsed(m.res.id, m.kvBase);
            }
            // The link out of the source: the explicit option when set,
            // otherwise derived from the source's own PCIe parameters — a
            // heterogeneous pool prices each source link honestly.
            const double link_gbs =
                dr.opts_.kvLinkGBs > 0.0
                    ? dr.opts_.kvLinkGBs
                    : deriveKvLinkGBs(dr.replicas_[from]->config());
            const std::uint64_t xfer = m.kvLen - m.kvBase;
            const std::uint64_t bytes =
                kvTransferBytes(dr.replicas_[from]->model(), xfer);
            const double ms = kvTransferMs(bytes, link_gbs);
            m.res.kvTransferMs = ms;
            m.res.kvTransferTokens = xfer;
            dr.report_.kvTransfers += 1;
            dr.report_.kvTransferMs += ms;
            dr.report_.kvTransferGB += static_cast<double>(bytes) / 1e9;
            const double arriveMs = now + ms;
            dr.events_.schedule(
                msToTicks(arriveMs),
                [this, from, to, arriveMs, m = std::move(m)]() mutable {
                    if (dr.kv_) {
                        // The contract's second half: the source lets go only
                        // now that the target holds the KV.
                        dr.kv_->pools[from].release(m.res.id);
                        dr.kv_->pools[to].setUsed(m.res.id, m.kvLen);
                    }
                    m.res.deviceIndex = to;
                    dr.report_.replicas[to].dispatched += 1;
                    inbound[to].push_back(std::move(m));
                    dr.pump(arriveMs);
                });
        }
    };

    /**
     * The prefix cache (on, with session-tagged work queued). A completed
     * non-final turn parks its KV on its replica so the next turn prefills
     * only its delta there. At most one pin per session: the replica,
     * token count, and request id of the newest completed non-final turn,
     * whose KV is parked (blocks charged, no batch slot held). pins[d]
     * orders replica d's pinned sessions oldest-first for deterministic
     * reclamation; claimed marks sessions whose pin an in-flight
     * disaggregated hit has claimed — the pin funds the handoff target's
     * admission and must not be reclaimed or replaced meanwhile.
     */
    struct PrefixCache
    {
        /** A pin: replica, token count, request id. */
        struct Session
        {
            std::size_t replica = 0;
            std::uint64_t cachedTokens = 0;
            std::uint64_t reqId = 0;
        };

        Drain &dr;
        std::map<std::uint64_t, std::uint64_t> lastTurn; ///< session -> max
        std::map<std::uint64_t, Session> sessions; ///< pinned sessions only
        std::vector<std::deque<std::uint64_t>> pins;
        std::set<std::uint64_t> claimed;

        PrefixCache(Drain &d, std::map<std::uint64_t, std::uint64_t> last)
            : dr(d), lastTurn(std::move(last)), pins(d.n_)
        {
        }

        /** The pin queued turn q would hit, or null. The session's pinned
         *  prefix must still cover q's declared prefix — an older, shorter
         *  pin (the prior turn was shed or completed out of order) cannot
         *  serve it and reads as a miss. */
        const Session *
        hit(const QueuedRequest &q) const
        {
            if (q.resumed || q.sessionId == 0 || q.turnIndex == 0)
                return nullptr;
            auto it = sessions.find(q.sessionId);
            if (it == sessions.end() ||
                it->second.cachedTokens < q.prefixTokens)
                return nullptr;
            return &it->second;
        }

        /** Whether an in-flight disaggregated hit claims sid's pin. */
        bool
        claims(std::uint64_t sid) const
        {
            return claimed.count(sid) > 0;
        }

        /** Drop session sid's pin: consumed by a hit, stale after a miss,
         *  or reclaimed for space. The blocks return to its replica. */
        void
        unpin(std::uint64_t sid)
        {
            auto it = sessions.find(sid);
            std::deque<std::uint64_t> &p = pins[it->second.replica];
            p.erase(std::find(p.begin(), p.end(), sid));
            if (dr.kv_)
                dr.kv_->pools[it->second.replica].release(it->second.reqId);
            sessions.erase(it);
        }

        /** Pinned prefixes are a cache, not a promise: the one reclaim
         *  rule, shared by a resuming evictee, fresh admission and a KV
         *  handoff. Drop replica d's pins oldest-first while blocked()
         *  holds, skipping claimed pins and session keep's own (dropping
         *  it would forfeit the caller's hit). Returns whether any pin was
         *  dropped. */
        template <typename Blocked>
        bool
        reclaim(std::size_t d, std::uint64_t keep, const Blocked &blocked)
        {
            bool freed = false;
            std::size_t pi = 0;
            while (pi < pins[d].size() && blocked()) {
                const std::uint64_t sid = pins[d][pi];
                if (sid == keep || claimed.count(sid)) {
                    ++pi;
                    continue;
                }
                unpin(sid);
                freed = true;
            }
            return freed;
        }

        /** The reclaim rule across replicas: lowest index first, over the
         *  replicas eligible(d) admits, until blocked(d) clears on one.
         *  Returns whether any pin was dropped. */
        template <typename Eligible, typename Blocked>
        bool
        reclaimAny(std::uint64_t keep, const Eligible &eligible,
                   const Blocked &blocked)
        {
            bool freed = false;
            for (std::size_t d = 0; d < pins.size(); ++d) {
                if (!eligible(d))
                    continue;
                freed = reclaim(d, keep, [&] { return blocked(d); }) || freed;
                if (!blocked(d))
                    break;
            }
            return freed;
        }

        /** Land the handoff mq of session sid on the pin its
         *  disaggregated hit claimed: reclaim other pins there until the
         *  pin's returned blocks fund mq's worst-case KV, then consume the
         *  pin and drop the claim. Returns the pin's replica, or
         *  noReplica (the claim stands) while mq cannot fit yet. */
        std::size_t
        landClaim(std::uint64_t sid, const QueuedRequest &mq)
        {
            const Session &pin = sessions.at(sid);
            const std::size_t to = pin.replica;
            auto blocked = [&] {
                return dr.kv_ && !dr.kv_->pools[to].releaseWouldAdmit(
                                     pin.reqId, dr.maxKvTokens(to, mq));
            };
            reclaim(to, sid, blocked);
            if (blocked())
                return QueuedRequest::noReplica;
            unpin(sid);
            claimed.erase(sid);
            return to;
        }

        /** Fresh turn q joins replica dev as m; returns whether it hit a
         *  pin there. A hit consumes the pin before the KV reservation (its
         *  returned blocks fund the admission releaseWouldAdmit priced) and
         *  prefills only the delta. A disaggregated hit's pin lives on a
         *  decode-capable replica and stays put: it is claimed for m's
         *  handoff, and only the delta prefills here. An honest miss
         *  re-prefills the full context, and a surviving pin (shorter, or
         *  elsewhere) is dead weight — dropped, unless a handoff claimed
         *  it. */
        bool
        admit(const QueuedRequest &q, std::size_t dev, Member &m)
        {
            const Session *pin = hit(q);
            const bool here = pin && pin->replica == dev;
            if (here || dr.disaggHitPrefix(dev, q) > 0) {
                if (here) {
                    unpin(q.sessionId);
                } else {
                    claimed.insert(q.sessionId);
                    m.kvBase = q.prefixTokens;
                }
                m.prefillDone = q.prefixTokens;
                m.res.prefixHit = true;
                dr.report_.prefixHits += 1;
                dr.report_.prefillTokensSaved += q.prefixTokens;
            } else if (q.sessionId != 0 && q.turnIndex > 0) {
                if (sessions.count(q.sessionId) && !claimed.count(q.sessionId))
                    unpin(q.sessionId);
                dr.report_.prefixMisses += 1;
            }
            return here;
        }

        /** The pin decision as m completes on replica d: a non-final
         *  session turn parks its KV here for the next turn's delta-only
         *  prefill. Never on a Prefill replica (the next turn's decode
         *  could not run where its prefix lives), and never over a pin an
         *  in-flight handoff has claimed — unpinning it would strand the
         *  transfer's accounting. Returns whether it pinned. */
        bool
        pin(const Member &m, std::size_t d)
        {
            const std::uint64_t sid = m.res.sessionId;
            if (sid == 0 || !dr.replicas_[d]->model().decoder() ||
                (dr.link_ && dr.link_->roles[d] == ReplicaRole::Prefill) ||
                claimed.count(sid))
                return false;
            auto lt = lastTurn.find(sid);
            if (lt == lastTurn.end() || m.res.turnIndex >= lt->second)
                return false;
            // Out-of-order completion left an older turn's pin behind:
            // newest context wins, one pin per session.
            if (sessions.count(sid))
                unpin(sid);
            sessions[sid] = {d,
                             m.res.request.inputTokens +
                                 m.res.request.outputTokens,
                             m.res.id};
            pins[d].push_back(sid);
            if (dr.kv_)
                dr.kv_->pools[d].park(m.res.id);
            return true;
        }
    };

    /** Open batch slots on replica d. A replica accepts only at a token
     *  boundary (not mid-segment): continuous batching tops the batch up to
     *  maxBatch, static batching forms a batch only until its first
     *  generation segment (then seals membership until the replica
     *  drains), and maxBatch == 1 reduces to plain idleness. */
    std::size_t
    capacity(std::size_t d) const
    {
        if (busy_[d])
            return 0;
        const std::size_t resident = rt_[d].resident();
        if (opts_.maxBatch == 1)
            return resident == 0 ? 1 : 0;
        if (opts_.batching == BatchingMode::Static && rt_[d].sealed)
            return 0;
        return opts_.maxBatch > resident ? opts_.maxBatch - resident : 0;
    }

    /** Total open batch slots right now. Every Launched attempt lowers it
     *  by exactly one (whole-request service marks its replica busy;
     *  resume/admission grow the resident count), so the admission fast
     *  paths can decrement instead of recounting per round. A Decode
     *  replica's open slots admit nothing from the queue unless one of its
     *  own evictees waits to resume — counting them otherwise would spin
     *  the admission loops on candidates with nowhere to go. */
    std::size_t
    totalSlots() const
    {
        std::size_t slots = 0;
        for (std::size_t d = 0; d < n_; ++d)
            if (takesFreshWork(d) || parked_[d] > 0)
                slots += capacity(d);
        return slots;
    }

    /** Decode-role replicas take work over the KV link (and their own
     *  evictees back), never fresh admissions. */
    bool
    takesFreshWork(std::size_t d) const
    {
        return !link_ || link_->roles[d] != ReplicaRole::Decode;
    }

    /** Can replica d take a fresh candidate now, the KV gate aside? */
    bool
    freshSlot(std::size_t d) const
    {
        return capacity(d) > 0 && takesFreshWork(d);
    }

    /** Worst-case KV a request can reach on replica d: a decoder's cache
     *  grows to prompt + every generated token; an encoder stops at the
     *  prompt. Reserving this at admission is what lets every admitted
     *  request run to completion under the keep-KV-on-replica eviction
     *  contract (parking can shrink a charge, never another resident's). */
    std::uint64_t
    maxKvTokens(std::size_t d, const QueuedRequest &q) const
    {
        return q.request.inputTokens +
               (replicas_[d]->model().decoder() ? q.request.outputTokens : 0);
    }

    std::size_t
    sessionHitDev(const QueuedRequest &q) const
    {
        const PrefixCache::Session *pin = prefix_ ? prefix_->hit(q) : nullptr;
        return pin ? pin->replica : QueuedRequest::noReplica;
    }

    /** Does a candidate admitted to replica d prefill here and decode
     *  elsewhere? Only Prefill-role replicas hand off, and only work with a
     *  decode phase to ship: encoders and single-token decoders finish at
     *  the prefill's LM head and complete locally. */
    bool
    willHandoff(std::size_t d, const QueuedRequest &q) const
    {
        return link_ && link_->roles[d] == ReplicaRole::Prefill &&
               replicas_[d]->model().decoder() && q.request.outputTokens > 1;
    }

    /** Prompt tokens a disaggregated prefix hit skips on prefill replica
     *  d. The session's pinned KV lives on a decode-capable replica
     *  (completion never pins on Prefill replicas) and stays there: d
     *  prefills only the delta and the handoff later lands on the pin —
     *  there is no cross-replica hit otherwise. */
    std::uint64_t
    disaggHitPrefix(std::size_t d, const QueuedRequest &q) const
    {
        if (!willHandoff(d, q) || q.prefixTokens == 0)
            return 0;
        return sessionHitDev(q) != QueuedRequest::noReplica ? q.prefixTokens
                                                            : 0;
    }

    /** KV tokens replica d must reserve to admit q: a handoff member holds
     *  only the prompt KV it writes locally (prompt plus the bootstrap
     *  token, minus any prefix parked at the handoff target) — the
     *  decode-side worst case is reserved by the handoff itself. */
    std::uint64_t
    admitKvTokens(std::size_t d, const QueuedRequest &q) const
    {
        if (willHandoff(d, q))
            return q.request.inputTokens + 1 - disaggHitPrefix(d, q);
        return maxKvTokens(d, q);
    }

    bool
    kvBlocked(const QueuedRequest &q, std::size_t d) const
    {
        return kv_ && kv_->blocks(*this, q, d);
    }

    /** Every request still in flight — batches, suspended evictees and
     *  handoff limbo — with the replica its KV charges, the KV tokens it
     *  holds there, and where it sits: what the close-out's KV tally and
     *  conservation search both walk. */
    template <typename Visit>
    void
    forEachHeld(Visit visit) const
    {
        for (std::size_t d = 0; d < n_; ++d) {
            for (const Member &m : rt_[d].prefill)
                visit(m.res.id, d, m.prefillDone, "the prefill batch");
            for (const Member &m : rt_[d].gen)
                visit(m.res.id, d, m.kvLen, "the generation batch");
        }
        for (const auto &[id, m] : suspended_)
            visit(id, m.res.deviceIndex, m.kvLen, "suspended");
        if (!link_)
            return;
        // Handoff limbo: an unshipped outbox or pending transfer charges
        // its source, an arrived-but-unjoined member its target.
        for (std::size_t d = 0; d < n_; ++d) {
            for (const Member &m : link_->outbox[d])
                visit(m.res.id, d, m.kvLen, "the outbox");
            for (const Member &m : link_->inbound[d])
                visit(m.res.id, d, m.kvLen, "inbound");
        }
        for (const HandoffLink::Handoff &h : link_->pending)
            visit(h.m.res.id, h.from, h.m.kvLen, "pendingHandoff");
    }

    // --- Arrive --------------------------------------------------------------

    void
    readyPush(const QueuedRequest &q)
    {
        if (q.resumed)
            parked_[q.boundReplica] += 1;
        const double key = order_ == QueueOrder::StaticUrgency
                               ? policy_.urgency(q, ctx_)
                               : 0.0;
        ready_.emplace(std::make_pair(key, readySeq_++), q);
    }

    /** One arrival event per distinct arrival tick: simultaneous arrivals
     *  enter the queue together, so a reordering policy sees the whole
     *  burst before the first dispatch. Bursts are scheduled lazily — each
     *  burst's handler schedules the next — so the event heap holds one
     *  pending arrival instead of every future one (a million-request drain
     *  used to pay its full heap depth on every push). Early-phase
     *  scheduling keeps each burst firing before any completion at the same
     *  tick, exactly as the old everything-up-front scheduling order
     *  (arrival ids lowest) did; injected arrivals stay normal-phase,
     *  preserving their documented completion-order tie semantics. */
    void
    scheduleNextBurst()
    {
        if (nextArrival_ >= rows_.size)
            return;
        const std::size_t i = nextArrival_;
        const Tick when = msToTicks(rows_[i].arrivalMs);
        std::size_t j = i + 1;
        while (j < rows_.size && msToTicks(rows_[j].arrivalMs) == when)
            ++j;
        nextArrival_ = j;
        events_.scheduleEarly(when, [this, i, j]() {
            for (std::size_t k = i; k < j; ++k)
                readyPush(queued(k));
            scheduleNextBurst();
            pump(rows_[i].arrivalMs);
        });
    }

    /** Row @p k as the policy and router see it. */
    QueuedRequest
    queued(std::size_t k) const
    {
        QueuedRequest q{rows_[k]};
        q.id = rows_.firstId + k;
        return q;
    }

    // --- Admit and route -----------------------------------------------------

    /** Admissions, then (with preemption on) alternate evict/admit rounds
     *  until no urgency inversion remains, then start segments on every
     *  replica at a boundary with work. Re-entered at every arrival,
     *  completion, and segment boundary. The eviction budget is a backstop
     *  for policies whose selectBatch order contradicts their urgency key;
     *  for the shipped policies the two agree and the static-key argument
     *  already bounds the loop. */
    void
    pump(double now)
    {
        if (link_)
            link_->pump(now);
        admit(now);
        if (opts_.preempt) {
            std::size_t evict_budget = 0;
            for (std::size_t d = 0; d < n_; ++d)
                evict_budget += rt_[d].gen.size();
            while (evict_budget > 0 && !ready_.empty() && tryEvict(now)) {
                --evict_budget;
                admit(now);
            }
        }
        if (segmented_)
            for (std::size_t d = 0; d < n_; ++d)
                if (!busy_[d] && rt_[d].resident() > 0)
                    startSegment(d, now);
    }

    /** Admit as many waiting requests into open batch slots as the policy
     *  and router allow, via the discipline the policy declared. A resumed
     *  (previously evicted) request bypasses the router — its KV cache
     *  lives on one replica — and simply keeps waiting when that replica
     *  has no open slot. All three paths reproduce the Dynamic path's
     *  dispatch sequence exactly; see docs/PERFORMANCE.md for the
     *  equivalence argument. */
    void
    admit(double now)
    {
        if (ready_.empty())
            return;
        if (order_ != QueueOrder::Dynamic) {
            // One pass over the index. For SJF/EDF it is exactly the
            // prefix-dispatch the legacy path ran over the freshly
            // stable_sorted queue, without the sort: blocked candidates
            // stay, consumed ones leave the index. FCFS dispatches strictly
            // in arrival order, head-of-line blocking included: a blocked
            // head stops the pass (later arrivals must not overtake it),
            // and a shed head ends it like the Dynamic path's
            // one-batch-per-round exit does.
            const std::size_t slots = totalSlots();
            std::size_t launched = 0;
            for (auto it = ready_.begin();
                 it != ready_.end() && launched < slots;) {
                const Attempt a = dispatchOne(it->second, now);
                it = a == Attempt::Blocked ? std::next(it) : ready_.erase(it);
                if (a == Attempt::Launched)
                    ++launched;
                else if (order_ == QueueOrder::Arrival)
                    break;
            }
            return;
        }

        // Dynamic: the always-correct legacy path — re-consult selectBatch
        // over a view of the index every round and dispatch the returned
        // prefix that fits.
        std::vector<QueuedRequest> view;
        std::vector<decltype(ready_)::iterator> at;
        while (!ready_.empty()) {
            std::size_t slots = totalSlots();
            if (slots == 0)
                break;
            view.clear();
            at.clear();
            for (auto it = ready_.begin(); it != ready_.end(); ++it) {
                view.push_back(it->second);
                at.push_back(it);
            }
            std::vector<std::size_t> batch =
                policy_.selectBatch(view, ctx_);

            // The selectBatch contract, enforced: a policy must return at
            // least one index for a non-empty queue, every index in range
            // and distinct. The engine dispatches the returned prefix that
            // fits into open slots and re-consults at the next boundary.
            if (batch.empty())
                IANUS_FATAL("scheduling policy '", policy_.name(),
                            "' returned an empty batch for a non-empty "
                            "queue of ",
                            view.size());
            std::vector<char> taken(view.size(), 0);
            for (std::size_t idx : batch) {
                if (idx >= view.size())
                    IANUS_FATAL("scheduling policy '", policy_.name(),
                                "' returned out-of-range queue index ", idx,
                                " (queue has ", view.size(), ")");
                if (taken[idx])
                    IANUS_FATAL("scheduling policy '", policy_.name(),
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
                ready_.erase(at[idx]);
                if (a == Attempt::Launched)
                    ++launched;
            }
            if (launched < batch.size())
                break; // open slots exhausted mid-batch
        }
    }

    /** One candidate's dispatch attempt — the body the admission
     *  disciplines share. */
    Attempt
    dispatchOne(const QueuedRequest &q, double now)
    {
        std::size_t dev = 0;
        if (q.resumed) {
            // KV affinity: a preempted request resumes only on the replica
            // holding its cache. A full bound replica skips the candidate
            // without consuming a slot — later candidates may still
            // dispatch.
            dev = q.boundReplica;
            if (capacity(dev) == 0)
                return Attempt::Blocked;
            // Resume only when the parked request's worst-case headroom
            // fits the pool again (queue/shed modes; `none` overcommits and
            // spills instead). An evictee's return outranks cached
            // prefixes: reclaim this replica's pins until it fits.
            if (kv_) {
                auto blocked = [&] { return kvBlocked(q, dev); };
                if (prefix_)
                    prefix_->reclaim(dev, q.sessionId, blocked);
                if (blocked())
                    return Attempt::Blocked;
            }
        } else if (const Attempt a = route(q, now, dev);
                   a != Attempt::Launched) {
            return a;
        }

        if (!segmented_)
            serveWhole(q, now, dev);
        else if (q.resumed)
            resume(q, now, dev);
        else
            join(q, now, dev);
        return Attempt::Launched;
    }

    /** Place fresh candidate q on dev, or say why it cannot go. The router
     *  contract, enforced here where the drain consumes the route (the
     *  selectBatch twin in admit): the router is called only when some
     *  replica accepts, with one status row per accepting replica. It must
     *  return the index of an offered row; anything else is fatal. */
    Attempt
    route(const QueuedRequest &q, double now, std::size_t &dev)
    {
        const std::size_t hit_dev = sessionHitDev(q);
        bool open_slot = false;
        bool accepting = fillStatuses(q, hit_dev, open_slot);
        // A disaggregated pool can have only decode-side slots open
        // (totalSlots counts them for a parked evictee): a fresh candidate
        // then simply has nowhere to go, and admission control below must
        // not run — shed would drop it for want of a slot, not of KV
        // blocks, and the block pools may be off entirely.
        if (!open_slot)
            return Attempt::Blocked;
        // Every replica is KV-blocked for this candidate: reclaim pins,
        // lowest replica index first, until one replica can take it.
        if (!accepting && prefix_ && kv_ &&
            prefix_->reclaimAny(
                q.sessionId, [&](std::size_t d) { return freshSlot(d); },
                [&](std::size_t d) { return kvBlocked(q, d); }))
            accepting = fillStatuses(q, hit_dev, open_slot);
        if (!accepting) {
            // Some replica has an open slot but every one is KV-blocked for
            // this candidate: admission control takes over before the
            // router runs. Shed drops it; queue holds it until blocks free.
            if (opts_.kv.admission == KvAdmission::Shed) {
                report_.kvShed += 1;
                return Attempt::Consumed;
            }
            kv_->requireEverFits(q.id, maxKvTokens(0, q),
                                 "it can never dispatch under queue admission",
                                 [&](std::size_t d) {
                                     return admitKvTokens(d, q);
                                 });
            return Attempt::Blocked;
        }
        if (hit_dev != QueuedRequest::noReplica) {
            // Session-sticky routers read the hit replica off the
            // candidate; a copy keeps the queued entry itself untouched
            // (the hit may be gone by the next attempt).
            QueuedRequest qc = q;
            qc.sessionHitReplica = hit_dev;
            dev = router_.route(qc, statuses_, now);
        } else {
            dev = router_.route(q, statuses_, now);
        }
        auto offered = [&](const ReplicaStatus &s) { return s.index == dev; };
        if (std::none_of(statuses_.begin(), statuses_.end(), offered))
            IANUS_FATAL("router '", router_.name(), "' returned replica ",
                        dev, ", which was not offered (pool has ", n_, ")");
        return Attempt::Launched;
    }

    /** Offer the router a status row for each replica that accepts
     *  candidate q, in index order. Returns whether any does, and sets
     *  open_slot when some replica could take fresh work but for the KV
     *  gate. A KV-blocked replica is not accepting for this candidate
     *  (queue/shed modes; `none` never blocks), so the router only ever
     *  sees placements the block pool can honor, and only offered rows
     *  pay for the estimates. */
    bool
    fillStatuses(const QueuedRequest &q, std::size_t hit_dev,
                 bool &open_slot)
    {
        const bool est = router_.needsEstimates();
        statuses_.clear();
        for (std::size_t d = 0; d < n_; ++d) {
            if (!freshSlot(d))
                continue;
            open_slot = true;
            if (kvBlocked(q, d))
                continue;
            ReplicaStatus &s = statuses_.emplace_back();
            s.index = d;
            s.freeAtMs = freeAt_[d];
            s.busyMs = report_.replicas[d].busyMs;
            s.dispatched = report_.replicas[d].dispatched;
            s.resident = rt_[d].resident();
            s.pendingPrefill = rt_[d].prefill.size();
            for (const Member &m : rt_[d].gen)
                s.backlogTokens += m.remaining;
            s.suspendedKv = parked_[d];
            if (kv_)
                s.kvPressure = kv_->pools[d].pressure();
            if (est) {
                const CompiledModel &r = *replicas_[d];
                // The hit replica re-prefills only the delta; pricing that
                // into its estimate is the re-prefill penalty every
                // predicted-finish router weighs. A disaggregated hit
                // prices the delta on the prefill replica the same way.
                const std::uint64_t prior =
                    (hit_dev == d || disaggHitPrefix(d, q) > 0)
                        ? q.prefixTokens
                        : 0;
                const std::uint64_t input = q.request.inputTokens;
                s.estPrefillMs =
                    r.prefillChunkStats(prior, input - prior, true).wallMs();
                s.estGenMs = r.estimateGenerationMs(q.request);
            }
        }
        return !statuses_.empty();
    }

    // --- Start service -------------------------------------------------------

    /** The result fields fixed when q starts on replica dev. */
    RequestResult
    startResult(const QueuedRequest &q, double now, std::size_t dev) const
    {
        RequestResult res;
        static_cast<TimedRequest &>(res) = q;
        res.id = q.id;
        res.prefilledTokens = q.request.inputTokens;
        res.startMs = std::max(now, q.arrivalMs);
        res.deviceIndex = dev;
        res.prefillIndex = dev;
        return res;
    }

    /** Whole-request service: the request holds its replica to completion,
     *  costed by the same CompiledModel::run the synchronous loop used. */
    void
    serveWhole(const QueuedRequest &q, double now, std::size_t dev)
    {
        InFlight &f = inFlight_[dev];
        RequestResult &res = f.res;
        res = startResult(q, now, dev);
        f.stats = replicas_[dev]->run(q.request, opts_.tokenStride);
        res.serviceMs = f.stats.totalMs();
        res.finishMs = res.startMs + res.serviceMs;
        res.firstTokenMs =
            (res.startMs - res.arrivalMs) + f.stats.summarizationMs();
        res.generationSteps = f.stats.generationSteps;
        res.msPerToken = f.stats.msPerGeneratedToken();

        busy_[dev] = true;
        freeAt_[dev] = res.finishMs;
        report_.replicas[dev].dispatched += 1;
        report_.replicas[dev].busyMs += res.serviceMs;
        // Completion folds the slot into the report, then pumps — last,
        // because pump may dispatch the replica's next request into the
        // same slot.
        events_.schedule(msToTicks(res.finishMs), [this, dev]() {
            busy_[dev] = false;
            const InFlight &f = inFlight_[dev];
            const double finish = f.res.finishMs;
            record(f.res, f.stats);
            pump(finish);
        });
    }

    /** Resume: the evicted member rejoins generation on its bound replica
     *  at the KV length reached — the prefill is never re-run (KV retained
     *  on-replica). */
    void
    resume(const QueuedRequest &q, double now, std::size_t dev)
    {
        auto sit = suspended_.find(q.id);
        if (sit == suspended_.end())
            IANUS_FATAL("resumed request ", q.id, " has no suspended state");
        Member m = std::move(sit->second);
        suspended_.erase(sit);
        m.res.suspendedMs += now - m.evictedAtMs;
        if (kv_)
            kv_->pools[dev].resume(q.id); // re-reserve headroom
        rt_[dev].gen.push_back(std::move(m));
        parked_[dev] -= 1; // its KV is resident again
        // A re-dispatch is a dispatch event: a preempted request counts
        // once per admission.
        report_.replicas[dev].dispatched += 1;
    }

    /** Batched admission: the request joins the routed replica's batch and
     *  waits for a prefill segment. */
    void
    join(const QueuedRequest &q, double now, std::size_t dev)
    {
        Member m;
        m.res = startResult(q, now, dev);
        m.stats.inputTokens = q.request.inputTokens;
        m.stats.outputTokens = q.request.outputTokens;
        const bool hit = prefix_ && prefix_->admit(q, dev, m);
        m.handoff = willHandoff(dev, q);
        m.res.prefilledTokens = q.request.inputTokens - m.prefillDone;
        if (kv_) {
            // Reserve the worst case up front (a handoff member reserves
            // only its local prompt KV); `none` admission overcommits here
            // and pays in spill-dilated segments instead.
            kv_->pools[dev].admit(q.id, admitKvTokens(dev, q));
            if (hit)
                kv_->pools[dev].setUsed(q.id, q.prefixTokens);
        }
        rt_[dev].prefill.push_back(std::move(m));
        report_.replicas[dev].dispatched += 1;
    }

    // --- Segments ------------------------------------------------------------

    /** Run the next segment on replica d: one admitted request's prefill
     *  (whole, or one prefillChunk-sized slice of it), or a stride-bounded
     *  run of batched generation steps over the current members. With
     *  chunking off a joiner stalls the whole batch for its summarization
     *  (as in continuous-batching serving systems); with chunking on, a
     *  generation segment is owed whenever ~prefillChunk prompt tokens have
     *  been summarized since the last one, so residents keep emitting
     *  tokens under a long prefill while brief prefills still pack back to
     *  back. */
    void
    startSegment(std::size_t d, double now)
    {
        const ReplicaRun &r = rt_[d];
        // Monolithic prefill keeps the prefill-first order.
        const bool do_prefill =
            !r.prefill.empty() &&
            (r.gen.empty() || opts_.prefillChunk == 0 ||
             r.prefillSinceGen < opts_.prefillChunk);
        double dur = do_prefill ? prefillSegment(d, now) : generationSegment(d);
        if (kv_)
            dur = kv_->dilate(d, dur, report_);

        const double end = now + dur;
        busy_[d] = true;
        freeAt_[d] = end;
        report_.replicas[d].busyMs += dur;
        events_.schedule(msToTicks(end),
                         [this, d, end]() { segmentDone(d, end); });
    }

    double
    prefillSegment(std::size_t d, double now)
    {
        ReplicaRun &r = rt_[d];
        // Which pending prefill advances: chunking re-consults the policy's
        // urgency at every chunk boundary, so an urgent late arrival never
        // sits behind the whole of an earlier joiner's summarization
        // (token-boundary scheduling of the prefill queue). Monolithic —
        // and FCFS, whose urgency is arrival order — keep the admission
        // order.
        std::size_t pi = 0;
        if (opts_.prefillChunk > 0 && r.prefill.size() > 1) {
            double best = 0.0;
            for (std::size_t i = 0; i < r.prefill.size(); ++i) {
                double key = policy_.urgency(asQueued(r.prefill[i]), ctx_);
                if (i == 0 || key < best) {
                    best = key;
                    pi = i;
                }
            }
        }
        Member &m = r.prefill[pi];
        const std::uint64_t input = m.res.request.inputTokens;
        const bool decoder = replicas_[d]->model().decoder();
        // Encoders never chunk: bidirectional attention has no causal
        // resume point.
        const std::uint64_t cap =
            (opts_.prefillChunk > 0 && decoder) ? opts_.prefillChunk : input;
        const std::uint64_t c = std::min(cap, input - m.prefillDone);
        const bool last = m.prefillDone + c == input;
        const RunStats &s =
            replicas_[d]->prefillChunkStats(m.prefillDone, c, last);
        const double dur = s.wallMs();
        // The prefill is exclusively this request's work: attribute it whole
        // (assignment on the first chunk keeps the monolithic path
        // bit-identical to the pre-chunking loop). The chunk counter, not
        // prefillDone, detects the first chunk: a prefix-cache hit starts
        // prefillDone at the cached prefix, and its first delta chunk must
        // still *assign* (the two tests coincide on every cold path).
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
        if (kv_)
            // The chunk writes its slice of prompt KV (the last chunk's LM
            // head adds the bootstrap token; encoders' reservations clamp it
            // away). A disaggregated hit's prefix (kvBase tokens) lives at
            // the handoff target, not here — only the delta counts locally.
            kv_->pools[d].setUsed(
                m.res.id, (last ? input + 1 : m.prefillDone) - m.kvBase);
        if (last) {
            // TTFT counts queueing, any batch stall or interleaved
            // generation segments, and the prefill itself — the last
            // chunk's LM head emits the first token.
            m.res.firstTokenMs = (now + dur) - m.res.arrivalMs;
            m.kvLen = input + 1;
            m.remaining = decoder ? m.res.request.outputTokens - 1 : 0;
            if (m.handoff)
                // Decode runs elsewhere: the member waits in the outbox
                // until this segment completes (its KV is fully written
                // only then), then rides the link.
                link_->outbox[d].push_back(std::move(m));
            else
                r.gen.push_back(std::move(m));
            r.prefill.erase(r.prefill.begin() +
                            static_cast<std::ptrdiff_t>(pi));
        }
        return dur;
    }

    /** Generation segment: every member advances g tokens together, g
     *  capped by the stride (the join/leave granularity) and by the member
     *  closest to finishing. */
    double
    generationSegment(std::size_t d)
    {
        ReplicaRun &r = rt_[d];
        r.prefillSinceGen = 0;
        r.sealed = true; // static batches freeze at first token
        std::uint64_t g = opts_.tokenStride;
        std::vector<std::uint64_t> kv;
        kv.reserve(r.gen.size());
        for (const Member &m : r.gen) {
            g = std::min<std::uint64_t>(g, m.remaining);
            kv.push_back(m.kvLen);
        }
        const RunStats seg =
            replicas_[d]->generationStepStats(std::move(kv), g);
        // Each member owes a 1/B share of the shared step work.
        const double share = 1.0 / static_cast<double>(r.gen.size());
        for (Member &m : r.gen) {
            m.stats.generation.scaleAdd(seg, share);
            m.stats.generationSteps += g;
            m.kvLen += g;
            m.remaining -= g;
            m.weightedBatch += static_cast<double>(g * r.gen.size());
            if (kv_)
                kv_->pools[d].setUsed(m.res.id, m.kvLen);
        }
        return seg.wallMs();
    }

    /** Replica d reaches the segment boundary at end. Admissions run in a
     *  same-tick follow-up event so every replica whose boundary lands on
     *  this tick is free first — otherwise the earliest boundary would
     *  greedily claim the whole queue while its peers are still marked
     *  busy. */
    void
    segmentDone(std::size_t d, double end)
    {
        busy_[d] = false;
        ReplicaRun &rr = rt_[d];
        for (auto it = rr.gen.begin(); it != rr.gen.end();) {
            if (it->remaining == 0) {
                complete(*it, end, d);
                it = rr.gen.erase(it);
            } else {
                ++it;
            }
        }
        if (rr.resident() == 0)
            rr.sealed = false; // drained: the next batch may form
        if (link_)
            link_->ship(d, end);
        events_.schedule(events_.now(), [this, end]() { pump(end); });
    }

    // --- Complete ------------------------------------------------------------

    /** Close out a batched member whose last token was emitted at now on
     *  replica d, returning its KV blocks to d's pool — unless the prefix
     *  cache pins them for the session's next turn. */
    void
    complete(Member &m, double now, std::size_t d)
    {
        const bool pinned = prefix_ && prefix_->pin(m, d);
        if (kv_ && !pinned)
            kv_->pools[d].release(m.res.id);
        RequestResult res = std::move(m.res);
        res.finishMs = now;
        // Residency excludes time spent evicted (x - 0.0 == x exactly, so
        // the never-preempted path is bit-identical).
        res.serviceMs = res.finishMs - res.startMs - res.suspendedMs;
        const std::uint64_t steps = m.stats.generationSteps;
        res.generationSteps = steps;
        res.msPerToken =
            steps ? (res.finishMs - res.arrivalMs - res.firstTokenMs) /
                        static_cast<double>(steps)
                  : 0.0;
        res.meanBatchSize =
            steps ? m.weightedBatch / static_cast<double>(steps) : 1.0;
        record(std::move(res), m.stats);
    }

    /** The completion tail of both service paths: judge the finished
     *  request against its SLO and deadline, fold it into the report, and
     *  hand it to the completion hook. */
    void
    record(RequestResult res, const InferenceReport &stats)
    {
        res.sloMiss =
            res.generationSteps > 0 && res.msPerToken > opts_.sloMsPerToken;
        res.deadlineMiss = res.finishMs > deadlineMs(res.arrivalMs, res.request,
                                                     opts_.sloMsPerToken);
        report_.generatedTokens += res.request.outputTokens;
        report_.aggregate.merge(stats.combined());
        report_.makespanMs =
            std::max(report_.makespanMs, res.finishMs - firstArrival_);
        ++completed_;
        if (sink_) {
            sink_->put(std::move(res));
            return;
        }
        report_.results.push_back(std::move(res));
        if (onComplete_)
            onComplete_(report_.results.back(), stats);
    }

    // --- Evict ---------------------------------------------------------------

    /** The eviction contract, enforced here where a member leaves its
     *  batch: preemption strikes only at a token boundary (the replica is
     *  between segments), only a *generating* resident is evictable
     *  (evicting an un-prefilled member would merely un-admit it; a
     *  finished one has already completed), the victim is the least-urgent
     *  resident (ties: the earliest member in the replica's generation
     *  order), and it is evicted only for a waiting request with *strictly*
     *  lower urgency that can actually land on the freed slot (fresh, or
     *  bound to this replica). The evicted member keeps its KV cache on the
     *  replica and its partial accounting in suspended_; what re-runs on
     *  resume is nothing — generation continues at kvLen. Urgency keys are
     *  static per request (see SchedulingPolicy::urgency), so each eviction
     *  strictly lowers the resident urgency multiset and the evict-admit
     *  loop in pump terminates. */
    bool
    tryEvict(double now)
    {
        for (std::size_t d = 0; d < n_; ++d) {
            if (busy_[d])
                continue; // mid-segment: no token boundary to evict at
            // Eviction needs something it could fix: a full batch (the
            // legacy trigger), or — with the KV gate on — a block-starved
            // candidate whose admission an eviction's parked headroom could
            // unblock.
            const bool slot_full = capacity(d) == 0;
            if (!slot_full && !kv_)
                continue; // admission can fill the open slot
            const QueuedRequest *cand = nullptr;
            double cand_key = 0.0;
            // With an open slot, only a KV-blocked candidate justifies
            // evicting (anyone else admission would have placed already),
            // and only a returning evictee justifies evicting on a Decode
            // replica — fresh work cannot land there.
            auto eligible = [&](const QueuedRequest &q) {
                if (q.resumed ? q.boundReplica != d : !takesFreshWork(d))
                    return false;
                return slot_full || kvBlocked(q, d);
            };
            // StaticUrgency walks ascending (static key, insertion seq):
            // the first eligible entry is the most urgent one, ties
            // resolved to the earliest queued — the same winner the
            // strict-min scan in arrival order finds for the other orders.
            for (const auto &[key, q] : ready_) {
                if (!eligible(q))
                    continue;
                if (order_ == QueueOrder::StaticUrgency) {
                    cand = &q;
                    cand_key = key.first;
                    break;
                }
                const double u = policy_.urgency(q, ctx_);
                if (!cand || u < cand_key) {
                    cand = &q;
                    cand_key = u;
                }
            }
            if (!cand)
                continue;
            std::vector<Member> &gen = rt_[d].gen;
            auto victim = gen.end();
            double victim_key = 0.0;
            for (auto it = gen.begin(); it != gen.end(); ++it) {
                if (it->remaining == 0)
                    continue;
                double key = policy_.urgency(asQueued(*it), ctx_);
                if (victim == gen.end() || key > victim_key) {
                    victim = it;
                    victim_key = key;
                }
            }
            if (victim == gen.end() || !(cand_key < victim_key))
                continue;
            // An eviction that cannot unblock its beneficiary is pure churn
            // (the evictee would bounce straight back): parking must free
            // enough headroom for the candidate to take the place. Always
            // passes with the KV gate off or under `none` admission.
            if (kv_ &&
                !(cand->resumed
                      ? kv_->pools[d].parkWouldResume(victim->res.id, cand->id)
                      : kv_->pools[d].parkWouldAdmit(victim->res.id,
                                                     maxKvTokens(d, *cand))))
                continue;

            Member m = std::move(*victim);
            gen.erase(victim);
            m.res.preemptions += 1;
            m.evictedAtMs = now;
            if (kv_)
                // Park under the PR-4 contract: the written KV stays
                // charged on this replica, the worst-case headroom returns
                // to the pool.
                kv_->pools[d].park(m.res.id);
            QueuedRequest rq = asQueued(m);
            rq.resumed = true;
            rq.boundReplica = d;
            suspended_.emplace(rq.id, std::move(m));
            readyPush(rq);
            return true;
        }
        return false;
    }

    // --- State ---------------------------------------------------------------

    const std::vector<const CompiledModel *> &replicas_;
    const ServingOptions &opts_;
    SchedulingPolicy &policy_;
    Router &router_;
    const RequestRows rows_;
    const ServingEngine::CompletionHook &onComplete_;
    std::uint64_t &nextId_;
    ResultSink *const sink_; ///< null: results go into report_
    const std::size_t n_;

    ServingReport report_;
    double firstArrival_;
    bool segmented_;
    sim::EventQueue events_;
    std::uint64_t injected_ = 0;
    std::uint64_t completed_ = 0;
    std::size_t nextArrival_ = 0; ///< first row not yet scheduled

    /** The waiting queue is one index ordered by (key, insertion
     *  sequence), walked as the policy's declared QueueOrder says (see
     *  serving_engine.hh). StaticUrgency (SJF/EDF) keys it by urgency —
     *  the incremental replacement for the per-boundary full
     *  stable_sort. Every other order keys it 0, leaving arrival order:
     *  FCFS walks it from the head (Arrival), and Dynamic — the
     *  always-correct legacy path — hands selectBatch a view of it at
     *  every admission round. All three dispatch identical batches in
     *  identical order; the fast paths just skip recomputing an order
     *  that cannot change. */
    const QueueOrder order_;
    std::map<std::pair<double, std::uint64_t>, QueuedRequest> ready_;
    std::uint64_t readySeq_ = 0;
    /** The policy's one context for the whole drain: the engine SLO.
     *  A StaticUrgency key is static per request (the urgency
     *  contract), so it is computed once at enqueue, against it. */
    const SchedulerContext ctx_{opts_.sloMsPerToken};
    /** Parked evictees per replica — evictees still waiting to resume.
     *  Maintained incrementally: counted in on requeue (the only path
     *  that enqueues a resumed request) and out as resumes dispatch, so
     *  a later candidate never sees a slot as spoken for by an evictee
     *  that already took it back, and no admission pass pays a scan of
     *  the waiting queue for it. */
    std::vector<std::size_t> parked_;
    std::vector<double> freeAt_;
    std::vector<bool> busy_;
    std::vector<InFlight> inFlight_; ///< whole-request path
    std::vector<ReplicaRun> rt_;     ///< segment path
    /** Evicted requests, keyed by id: the Member keeps its partial
     *  accounting (and, conceptually, its on-replica KV cache) until
     *  the matching resumed QueuedRequest is re-dispatched. */
    std::map<std::uint64_t, Member> suspended_;
    /** Router input, reused across candidates instead of reallocated
     *  (see docs/PERFORMANCE.md). */
    std::vector<ReplicaStatus> statuses_;

    // Feature components: null while the feature is off.
    std::unique_ptr<KvGate> kv_;
    std::unique_ptr<PrefixCache> prefix_;
    std::unique_ptr<HandoffLink> link_;
};

} // namespace

void
echoOptions(ServingReport &report, const std::string &policy,
            const std::string &router, const ServingOptions &opts)
{
    report.policy = policy;
    report.router = router;
    report.batching = toString(opts.batching);
    report.maxBatch = opts.maxBatch;
    report.prefillChunk = opts.prefillChunk;
    report.preempt = opts.preempt;
    report.kv = opts.kv;
    report.sloMsPerToken = opts.sloMsPerToken;
}

void
closeReport(ServingReport &report)
{
    report.kvMeanFragmentation =
        report.kvFragGrossTokens > 0
            ? static_cast<double>(report.kvFragWasteTokens) /
                  static_cast<double>(report.kvFragGrossTokens)
            : 0.0;
    for (ReplicaUtilization &r : report.replicas) {
        // Busy time sums segment durations; the makespan subtracts two
        // absolute times. A replica busy from the first arrival to the
        // last finish can therefore read one rounding above the
        // makespan: it was busy for the whole makespan, no longer.
        r.busyMs = std::min(r.busyMs, report.makespanMs);
        r.idleMs = report.makespanMs - r.busyMs;
        r.utilization =
            report.makespanMs > 0.0 ? r.busyMs / report.makespanMs : 0.0;
    }
}

ServingReport
ServingEngine::drain()
{
    const RequestRows rows{queue_.data(), nullptr, queue_.size(),
                           firstQueuedId_};
    Drain drain(replicas_, opts_, *policy_, *router_, rows, onComplete_,
                nextId_, nullptr);
    // The guard clears the injector on *every* exit: it points at this
    // drain, and a throwing drain (say, a malformed policy batch) must
    // not leave a dangling injector that a later inject() would call.
    struct InjectorGuard
    {
        ServingEngine *engine;
        ~InjectorGuard() { engine->injector_ = nullptr; }
    } injector_guard{this};
    injector_ = [&drain](const workloads::InferenceRequest &request,
                         double arrival_ms, std::uint32_t source) {
        return drain.inject(request, arrival_ms, source);
    };
    drain.run();
    // The queue is empty: the next submit cycle starts a fresh clock.
    queue_.clear();
    lastArrivalMs_ = 0.0;
    return drain.closeOut();
}

ServingReport
drainRows(const std::vector<const CompiledModel *> &replicas,
          const ServingOptions &opts, SchedulingPolicy &policy,
          Router &router, const RequestRows &rows, ResultSink &sink)
{
    const ServingEngine::CompletionHook no_hook;
    std::uint64_t next_id = rows.firstId + rows.size;
    Drain drain(replicas, opts, policy, router, rows, no_hook, next_id,
                &sink);
    drain.run();
    return drain.closeOut();
}

} // namespace ianus::serve
