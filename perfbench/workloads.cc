#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "ianus/execution_engine.hh"
#include "serve/kv_manager.hh"
#include "serve/sharded_drain.hh"

namespace perfbench
{

namespace
{

using ianus::SystemConfig;
using Clock = std::chrono::steady_clock;

const ianus::workloads::ModelConfig &
gpt2m()
{
    static const ianus::workloads::ModelConfig model =
        ianus::workloads::gpt2("m");
    return model;
}

// One GPT-2 m IANUS replica serves the default shape mix (inputs
// {128, 256, 512} x outputs {8, 16, 64, 128}, token stride 8) at a mean
// 59.14 ms, i.e. ~16.9 req/s. The Poisson rates below are multiples of
// that.
constexpr double kReplicaServiceRate = 16.9;

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> all;

    // ~0.9 of the pool's service rate: busy, with a bounded queue.
    Workload fleet;
    fleet.name = "fleet_cold";
    fleet.requests = 100'000;
    fleet.replicas = 8;
    fleet.rate = 0.9 * kReplicaServiceRate * 8;
    fleet.options.tokenStride = 8;
    fleet.policy = "sjf";
    fleet.router = "queue-depth";
    all.push_back(fleet);

    // An offline batch job: all 160 requests arrive within 2 ms, so
    // every batch runs full. Arrivals spread over the run (4x the
    // unbatched service rate) made batch composition, and with it the
    // build count, wall time and peak RSS, swing by up to a quarter
    // across seeds. Every request decodes 64 tokens for the same reason.
    // A throughput tier's relaxed 40 ms/token SLO, which the batches
    // meet, keeps goodput a steady measure of simulated throughput.
    Workload batched;
    batched.name = "batched_decode";
    batched.requests = 160;
    batched.replicas = 4;
    batched.rate = 100'000.0;
    batched.outputChoices = {64};
    batched.options.sloMsPerToken = 40.0;
    batched.options.tokenStride = 8;
    batched.options.batching = serve::BatchingMode::Continuous;
    batched.options.maxBatch = 8;
    batched.policy = "fcfs";
    batched.router = "queue-depth";
    all.push_back(batched);

    Workload million;
    million.name = "million_sharded";
    million.requests = 1'000'000;
    million.replicas = 4;
    million.rate = 0.9 * kReplicaServiceRate * 4;
    million.options.tokenStride = 8;
    million.policy = "sjf";
    million.router = "queue-depth";
    million.shards = 2;
    million.threads = 2;
    all.push_back(million);

    Workload sessions;
    sessions.name = "sessions_disagg";
    sessions.sessions = true;
    sessions.requests = 2000;
    // 15 sessions/s keeps the two unbatched decode replicas below
    // saturation; at 20/s some seeds tip into a growing decode backlog
    // and the report differs in kind from seed to seed.
    sessions.rate = 15.0;
    sessions.replicas = 4;
    sessions.disaggregated = true;
    serve::ServingOptions &o = sessions.options;
    o.tokenStride = 8;
    o.prefillChunk = 128;
    o.preempt = true;
    o.prefixCache = true;
    // Four times the derived per-replica capacity: at 1x this pool loses
    // turns (see NOTES.md, "Request-loss reproducer").
    o.kv.capacityTokens =
        4 * serve::deriveKvCapacityTokens(SystemConfig::ianusDefault(),
                                          gpt2m());
    o.kv.admission = serve::KvAdmission::Queue;
    sessions.policy = "edf";
    sessions.router = "kv-affinity";
    all.push_back(sessions);

    return all;
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Adds one call, started at @p t0, to @p ledger. */
void
charge(CallLedger &ledger, Clock::time_point t0)
{
    ledger.seconds += since(t0);
    ++ledger.calls;
}

class TimedPolicy : public serve::SchedulingPolicy
{
  public:
    TimedPolicy(std::unique_ptr<serve::SchedulingPolicy> inner,
                CallLedger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    const char *name() const override { return inner_->name(); }

    serve::QueueOrder
    queueOrder() const override
    {
        return inner_->queueOrder();
    }

    std::vector<std::size_t>
    selectBatch(const std::vector<serve::QueuedRequest> &queue,
                const serve::SchedulerContext &ctx) override
    {
        const auto t0 = Clock::now();
        std::vector<std::size_t> out = inner_->selectBatch(queue, ctx);
        charge(ledger_, t0);
        return out;
    }

    double
    urgency(const serve::QueuedRequest &q,
            const serve::SchedulerContext &ctx) const override
    {
        const auto t0 = Clock::now();
        const double u = inner_->urgency(q, ctx);
        charge(ledger_, t0);
        return u;
    }

  private:
    std::unique_ptr<serve::SchedulingPolicy> inner_;
    CallLedger &ledger_;
};

class TimedRouter : public serve::Router
{
  public:
    TimedRouter(std::unique_ptr<serve::Router> inner, CallLedger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    const char *name() const override { return inner_->name(); }

    bool needsEstimates() const override { return inner_->needsEstimates(); }

    std::size_t
    route(const serve::QueuedRequest &request,
          const std::vector<serve::ReplicaStatus> &replicas,
          double now_ms) override
    {
        const auto t0 = Clock::now();
        const std::size_t pick = inner_->route(request, replicas, now_ms);
        charge(ledger_, t0);
        return pick;
    }

  private:
    std::unique_ptr<serve::Router> inner_;
    CallLedger &ledger_;
};

CallLedger
sum(const std::vector<CallLedger> &ledgers)
{
    CallLedger total;
    for (const CallLedger &l : ledgers) {
        total.calls += l.calls;
        total.seconds += l.seconds;
    }
    return total;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

Workload
smallVariant(const Workload &w)
{
    Workload small = w;
    small.requests = w.sessions                ? 40
                     : w.options.maxBatch > 1 ? 32
                                              : 400;
    return small;
}

double
tailPercentile(const serve::ServingReport &report)
{
    return report.results.size() < 1000 ? 90.0 : 99.0;
}

serve::ArrivalTrace
generateTrace(const Workload &w, std::uint64_t seed)
{
    if (w.sessions) {
        serve::SessionOptions opts;
        opts.seed = seed;
        opts.sessions = w.requests;
        opts.sessionsPerSec = w.rate;
        return serve::generateSessionTrace(opts);
    }
    serve::TraceOptions opts;
    opts.seed = seed;
    opts.requests = w.requests;
    opts.arrivalsPerSec = w.rate;
    if (!w.outputChoices.empty())
        opts.outputTokenChoices = w.outputChoices;
    return serve::generatePoissonTrace(opts);
}

serve::DevicePool
buildPool(const Workload &w)
{
    if (!w.disaggregated) {
        serve::PoolOptions opts;
        opts.replicas = w.replicas;
        return serve::DevicePool(SystemConfig::ianusDefault(), gpt2m(),
                                 opts);
    }
    // NPU-MEM prefill and IANUS decode replicas, interleaved so that any
    // contiguous two-replica shard holds one of each.
    serve::DevicePool pool;
    for (std::size_t i = 0; i < w.replicas; ++i) {
        const bool prefill = i % 2 == 0;
        pool.addReplica(std::make_unique<serve::CompiledModel>(
                            prefill ? SystemConfig::npuMem()
                                    : SystemConfig::ianusDefault(),
                            gpt2m()),
                        prefill ? serve::ReplicaRole::Prefill
                                : serve::ReplicaRole::Decode);
    }
    return pool;
}

CallLedger
CallProbes::policyTotal() const
{
    return sum(policy);
}

CallLedger
CallProbes::routerTotal() const
{
    return sum(router);
}

serve::ServingReport
serveTrace(const Workload &w, const serve::DevicePool &pool,
           const serve::ArrivalTrace &trace, CallProbes *probes,
           SpanRecorder *spans, std::size_t shards_override,
           std::size_t threads_override)
{
    const std::size_t shards = shards_override ? shards_override : w.shards;
    const std::size_t threads =
        threads_override ? threads_override : w.threads;
    const double slo = w.options.sloMsPerToken;
    SpanRecorder off(false);
    SpanRecorder &rec = spans ? *spans : off;

    // Each shard asks for its own policy and router, possibly from a
    // worker thread; ledgers are sized up front so no two instances
    // share an entry and no entry moves while a drain runs.
    if (probes) {
        const std::size_t n = shards ? shards : 1;
        probes->policy.assign(n, CallLedger{});
        probes->router.assign(n, CallLedger{});
    }
    auto policyFor = [&](std::size_t i) -> std::unique_ptr<serve::SchedulingPolicy> {
        auto p = serve::makePolicy(w.policy);
        if (!probes)
            return p;
        return std::make_unique<TimedPolicy>(std::move(p),
                                             probes->policy[i]);
    };
    auto routerFor = [&](std::size_t i) -> std::unique_ptr<serve::Router> {
        auto r = serve::makeRouter(w.router, slo);
        if (!probes)
            return r;
        return std::make_unique<TimedRouter>(std::move(r),
                                             probes->router[i]);
    };

    if (shards > 0) {
        serve::ShardOptions sh;
        sh.shards = shards;
        sh.threads = threads;
        std::atomic<std::size_t> nextPolicy{0}, nextRouter{0};
        SpanRecorder::Scope span(rec, "sharded_drain.drain");
        return serve::drainSharded(
            pool, w.options, trace, sh,
            [&] { return policyFor(nextPolicy.fetch_add(1)); },
            [&] { return routerFor(nextRouter.fetch_add(1)); });
    }

    serve::ServingEngine engine(pool, w.options, policyFor(0),
                                routerFor(0));
    {
        SpanRecorder::Scope span(rec, "serving_engine.submit");
        serve::submitAll(trace, engine);
    }
    SpanRecorder::Scope span(rec, "serving_engine.drain");
    return engine.drain();
}

ProgramTiming
timePrograms(const Workload &w, const serve::DevicePool &pool,
             const serve::ArrivalTrace &trace)
{
    ProgramTiming t;
    auto time = [&t](const serve::CompiledModel &replica,
                     const std::function<ianus::isa::Program(
                         const ianus::compiler::WorkloadBuilder &)> &build) {
        const auto t0 = Clock::now();
        ianus::isa::Program prog = build(replica.builder());
        t.buildMs += 1e3 * since(t0);
        const auto t1 = Clock::now();
        ianus::ExecutionEngine engine(replica.config(),
                                      replica.options().devices);
        engine.run(prog);
        t.runMs += 1e3 * since(t1);
        ++t.programs;
    };

    const std::size_t n = std::min<std::size_t>(trace.size(), 32);
    auto req = [&](std::size_t i) -> const serve::TimedRequest & {
        return trace.requests[i % n];
    };
    const std::uint64_t stride = w.options.tokenStride;
    const std::size_t batch = w.options.maxBatch;

    // Prefill side: a prompt's first chunk, resumed after the cached
    // prefix when the turn has one. Drains without sessions build only a
    // few distinct summarizations, so they get fewer of these.
    const serve::CompiledModel &pre = pool.replica(0);
    const std::uint64_t chunk = w.options.prefillChunk;
    const std::size_t prefills = w.sessions ? 8 : 2;
    for (std::size_t i = 0; i < prefills; ++i) {
        const serve::TimedRequest &r = req(i);
        const std::uint64_t prior = r.prefixTokens;
        const std::uint64_t left = r.request.inputTokens - prior;
        const std::uint64_t len = chunk ? std::min(chunk, left) : left;
        time(pre, [&](const auto &b) {
            return prior == 0 && len == left
                       ? b.buildSummarization(len)
                       : b.buildSummarizationChunk(prior, len, len == left);
        });
    }

    // Decode side: batched steps over consecutive requests, or single
    // generation steps at the strided KV samples the drain visits.
    const serve::CompiledModel &dec = pool.replica(w.disaggregated ? 1 : 0);
    const std::size_t decodes = batch > 1 ? 8 : 16 - prefills;
    for (std::size_t i = 0; i < decodes; ++i) {
        if (batch > 1) {
            std::vector<std::uint64_t> kv;
            for (std::size_t j = 0; j < batch; ++j)
                kv.push_back(req(i * batch + j).request.inputTokens + 1 +
                             stride * i);
            time(dec,
                 [&](const auto &b) { return b.buildGenerationBatch(kv); });
            continue;
        }
        const auto &r = req(i).request;
        const std::uint64_t steps = r.outputTokens - 1;
        const std::uint64_t at = steps == 0 ? 0 : (stride * i) % steps;
        time(dec, [&](const auto &b) {
            return b.buildGenerationToken(r.inputTokens + 1 + at);
        });
    }
    return t;
}

bool
Audit::clean() const
{
    return notExactlyOnce == 0 && foreignResults == 0 && tokensMatch &&
           kvReleased && dispatchBalance;
}

std::size_t
Audit::failed() const
{
    if (!tokensMatch || !kvReleased || !dispatchBalance)
        return offered;
    return std::min(offered, notExactlyOnce + foreignResults);
}

std::string
Audit::violations() const
{
    std::string out;
    auto add = [&](bool bad, const char *what) {
        if (!bad)
            return;
        if (!out.empty())
            out += ',';
        out += what;
    };
    add(notExactlyOnce != 0, "not-exactly-once");
    add(foreignResults != 0, "foreign-results");
    add(!tokensMatch, "generated-tokens");
    add(!kvReleased, "kv-leak");
    add(!dispatchBalance, "dispatch-balance");
    return out;
}

Audit
auditReport(const serve::ServingReport &report,
            const serve::ArrivalTrace &trace)
{
    Audit a;
    a.offered = trace.size();

    std::vector<std::uint32_t> seen(trace.size(), 0);
    std::uint64_t outputTokens = 0;
    std::uint64_t preemptions = 0;
    for (const serve::RequestResult &r : report.results) {
        outputTokens += r.request.outputTokens;
        preemptions += r.preemptions;
        if (r.id >= trace.size()) {
            ++a.foreignResults;
            continue;
        }
        const auto &want = trace.requests[r.id].request;
        if (r.request.inputTokens != want.inputTokens ||
            r.request.outputTokens != want.outputTokens)
            ++a.foreignResults;
        ++seen[r.id];
    }
    for (std::uint32_t n : seen)
        a.notExactlyOnce += n != 1;

    a.tokensMatch = outputTokens == report.generatedTokens;

    std::uint64_t dispatched = 0;
    for (const serve::ReplicaUtilization &u : report.replicas) {
        dispatched += u.dispatched;
        if (u.kvTokensEnd != 0 || u.kvBlocksLeaked != 0)
            a.kvReleased = false;
    }
    a.dispatchBalance = dispatched == report.results.size() + preemptions +
                                          report.kvTransfers;
    return a;
}

std::string
digest(const serve::ServingReport &report)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    auto u = [&](std::uint64_t v) { mix(&v, sizeof v); };
    auto d = [&](double v) { mix(&v, sizeof v); };

    for (const serve::RequestResult &r : report.results) {
        u(r.id);
        u(r.request.inputTokens);
        u(r.request.outputTokens);
        d(r.arrivalMs);
        d(r.startMs);
        d(r.finishMs);
        d(r.serviceMs);
        d(r.firstTokenMs);
        d(r.msPerToken);
        u(r.sloMiss);
        u(r.deadlineMiss);
        u(r.deviceIndex);
        u(r.prefillIndex);
        d(r.kvTransferMs);
        u(r.kvTransferTokens);
        d(r.meanBatchSize);
        u(r.preemptions);
        d(r.suspendedMs);
        u(r.prefillChunks);
        u(r.prefixHit);
        u(r.prefilledTokens);
    }
    d(report.makespanMs);
    u(report.generatedTokens);
    u(report.kvShed);
    d(report.kvPeakPressure);
    u(report.kvTransfers);
    d(report.kvTransferGB);
    u(report.prefixHits);
    u(report.prefixMisses);
    for (const serve::ReplicaUtilization &r : report.replicas) {
        u(r.dispatched);
        d(r.busyMs);
    }

    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
