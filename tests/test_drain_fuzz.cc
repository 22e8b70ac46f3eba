/**
 * @file Seeded whole-drain fuzz. Every case draws a pool of 2-4 GPT-2 M
 * replicas (IANUS and NPU-MEM) with random roles, random
 * ServingOptions (policy, router, batching, max batch, chunk, preempt,
 * stride, KV capacity, admission, layout, block size, prefix cache,
 * link) and a Poisson, session, bursty, closed-loop or mixed trace,
 * then drains it and holds the report to drain_audit.hh, with serviceMs
 * checked at finish's scale (the traces run late). The same case
 * drained again on a fresh engine must give the same report, bit for
 * bit; a sharded case must give the same report on one worker thread
 * and on two.
 *
 * Options the engine constructor rejects, and role lists that do not
 * partition across shards, end in a fatal error, which is accepted.
 * A fatal error thrown by drain() itself fails the case.
 *
 * A failing case drops trace rows greedily while it still fails, then
 * prints its seed, its options and the rows left (formatTrace). Cases
 * are a pure function of their seed, so rerunning the test replays it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "drain_audit.hh"
#include "serve/sharded_drain.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;
using namespace ianus::serve;

/**
 * The pools cases run on, built once per test process: pool(r) holds r
 * GPT-2 M replicas alternating IANUS and NPU-MEM. Plain cases drain a
 * replica view over pool(4) (any subset, any order); sharded cases
 * split pool(r) itself. Program caches are pure, so sharing them
 * across cases changes speed, never numbers.
 */
const DevicePool &
pool(std::size_t replicas)
{
    static const std::vector<std::unique_ptr<DevicePool>> pools = [] {
        const workloads::ModelConfig model = workloads::gpt2("m");
        std::vector<std::unique_ptr<DevicePool>> v;
        for (std::size_t r = 0; r <= 4; ++r) {
            v.push_back(std::make_unique<DevicePool>());
            for (std::size_t d = 0; d < r; ++d)
                v.back()->addReplica(std::make_unique<CompiledModel>(
                    d % 2 == 0 ? SystemConfig::ianusDefault()
                               : SystemConfig::npuMem(),
                    model));
        }
        return v;
    }();
    return *pools.at(replicas);
}

const char *
replicaName(std::size_t d)
{
    return d % 2 == 0 ? "ianus" : "npu-mem";
}

enum class Load : std::uint8_t { Poisson, Sessions, Bursty, ClosedLoop, Mixed };

const char *
loadName(Load load)
{
    switch (load) {
      case Load::Poisson: return "poisson";
      case Load::Sessions: return "sessions";
      case Load::Bursty: return "bursty";
      case Load::ClosedLoop: return "closed-loop";
      case Load::Mixed: return "mixed";
    }
    return "?";
}

struct Case
{
    std::uint32_t seed = 0;
    /** Replicas of pool(4) in view order; a sharded case drains
     *  pool(replicas.size()) itself. */
    std::vector<std::size_t> replicas;
    std::size_t shards = 1; ///< > 1: drainSharded
    std::string policy;
    std::string router;
    ServingOptions opts;
    Load load = Load::Poisson;
    ArrivalTrace trace;        ///< rows submitted before the drain
    ClosedLoopOptions clients; ///< ClosedLoop and Mixed only
};

/** mt19937 draws, reduced by modulo so a seed means the same case
 *  under every standard library. */
class Draw
{
  public:
    explicit Draw(std::uint32_t seed) : rng_(seed) {}

    std::uint32_t below(std::uint32_t n) { return rng_() % n; }
    bool chance(std::uint32_t pct) { return below(100) < pct; }
    std::uint32_t seed() { return rng_(); }

    template <typename T>
    T
    oneOf(const std::vector<T> &v)
    {
        return v[below(static_cast<std::uint32_t>(v.size()))];
    }

    /** A non-empty random subset of @p v, in order. */
    template <typename T>
    std::vector<T>
    someOf(const std::vector<T> &v)
    {
        std::vector<T> out;
        for (const T &x : v)
            if (chance(50))
                out.push_back(x);
        if (out.empty())
            out.push_back(oneOf(v));
        return out;
    }

  private:
    std::mt19937 rng_;
};

const std::vector<std::uint64_t> kInputs = {16, 32, 64, 128, 200};
const std::vector<std::uint64_t> kOutputs = {1, 2, 4, 12, 40};

ArrivalTrace
drawRows(Draw &g, Load load)
{
    if (load == Load::Sessions) {
        SessionOptions s;
        s.seed = g.seed();
        s.sessions = 2 + g.below(30);
        s.meanTurns = g.oneOf<double>({1.5, 2.5, 4.0});
        s.maxTurns = 6;
        s.maxContextTokens = 256;
        s.meanThinkMs = g.oneOf<double>({5.0, 50.0, 300.0});
        s.sessionsPerSec = g.oneOf<double>({5.0, 40.0, 200.0});
        s.deltaTokenChoices = g.someOf<std::uint64_t>({16, 32, 64});
        s.outputTokenChoices = g.someOf<std::uint64_t>({1, 4, 16, 32});
        return generateSessionTrace(s);
    }
    ArrivalTrace t;
    if (load == Load::Bursty) {
        BurstyOptions b;
        b.seed = g.seed();
        b.durationMs = g.oneOf<double>({100.0, 300.0, 600.0});
        b.baseRate = g.oneOf<double>({20.0, 60.0});
        b.burstRateRatio = g.oneOf<double>({3.0, 8.0});
        b.meanBurstMs = 40.0;
        b.meanGapMs = 120.0;
        b.inputTokenChoices = g.someOf(kInputs);
        b.outputTokenChoices = g.someOf(kOutputs);
        t = generateBurstyTrace(b);
        if (t.requests.size() > 30)
            t.requests.resize(30);
        return t;
    }
    TraceOptions p;
    p.seed = g.seed();
    p.requests = 3 + g.below(40);
    p.arrivalsPerSec = g.oneOf<double>({20.0, 100.0, 400.0, 2000.0});
    p.startMs = g.chance(50) ? 0.0 : 50.0;
    p.inputTokenChoices = g.someOf(kInputs);
    p.outputTokenChoices = g.someOf(kOutputs);
    return generatePoissonTrace(p);
}

/** True iff @p roles leave each of @p shards contiguous slices a
 *  prefill-capable and a decode-capable replica: drainSharded's shard
 *  check. */
bool
rolesPartition(const std::vector<ReplicaRole> &roles, std::size_t shards)
{
    const std::size_t r = roles.size();
    for (std::size_t k = 0; r > 0 && k < shards; ++k) {
        std::vector<ReplicaRole> slice(
            roles.begin() + static_cast<long>(k * r / shards),
            roles.begin() + static_cast<long>((k + 1) * r / shards));
        if (missingRoleCapability(slice))
            return false;
    }
    return true;
}

/** Draw case @p seed. A sharded case splits pool(2-4) into 2 or more
 *  shards and carries an open-loop trace. */
Case
drawCase(std::uint32_t seed, Load load, bool sharded)
{
    Draw g(seed);
    Case c;
    c.seed = seed;
    c.load = load;

    const std::size_t r = 2 + g.below(3);
    if (sharded) {
        for (std::size_t d = 0; d < r; ++d)
            c.replicas.push_back(d);
        c.shards = 2 + g.below(static_cast<std::uint32_t>(r - 1));
    } else {
        std::vector<std::size_t> all = {0, 1, 2, 3};
        for (std::size_t i = all.size() - 1; i > 0; --i)
            std::swap(all[i], all[g.below(static_cast<std::uint32_t>(i + 1))]);
        c.replicas.assign(all.begin(), all.begin() + static_cast<long>(r));
    }

    ServingOptions &o = c.opts;
    // Typed roles are likelier in a plain case; a sharded case also
    // redraws them a few times so that most of its role lists
    // partition across the shards.
    if (g.chance(sharded ? 50 : 65)) {
        for (int tries = sharded ? 4 : 1; tries > 0; --tries) {
            o.roles.clear();
            for (std::size_t d = 0; d < r; ++d)
                o.roles.push_back(g.oneOf<ReplicaRole>(
                    {ReplicaRole::Prefill, ReplicaRole::Decode,
                     ReplicaRole::Unified}));
            if (rolesPartition(o.roles, c.shards))
                break;
        }
    }
    c.policy = g.oneOf<std::string>({"fcfs", "sjf", "edf"});
    c.router = g.oneOf<std::string>({"round-robin", "least-loaded",
                                     "queue-depth", "predicted-finish",
                                     "kv-affinity", "slo-budget"});
    o.batching = g.oneOf<BatchingMode>({BatchingMode::None,
                                        BatchingMode::Static,
                                        BatchingMode::Continuous});
    o.maxBatch = o.batching == BatchingMode::None ? 1 : 1 + g.below(6);
    o.prefillChunk = g.chance(50) ? 0 : g.oneOf<std::uint64_t>({16, 48, 96});
    // Static batching rejects preemption; draw that pair rarely.
    o.preempt = g.chance(o.batching == BatchingMode::Static ? 10 : 45);
    o.tokenStride = g.oneOf<unsigned>({1, 2, 4, 8});
    o.sloMsPerToken = g.oneOf<double>({6.0, 10.0, 25.0});
    o.prefixCache = g.chance(85);
    o.kvLinkGBs = g.oneOf<double>(
        {0.0, 16.0, std::numeric_limits<double>::infinity()});
    const bool kv = g.chance(65);
    if (kv) {
        o.kv.blockTokens = g.oneOf<std::uint64_t>({8, 16, 32});
        o.kv.admission = g.oneOf<KvAdmission>(
            {KvAdmission::None, KvAdmission::Queue, KvAdmission::Shed});
        o.kv.layout = g.oneOf<KvLayout>(
            {KvLayout::Unified, KvLayout::Partitioned});
    }

    if (load == Load::ClosedLoop || load == Load::Mixed) {
        c.clients.seed = g.seed();
        c.clients.clients = 1 + g.below(6);
        c.clients.requestsPerClient = 1 + g.below(8);
        c.clients.meanThinkMs = g.oneOf<double>({0.0, 2.0, 20.0});
        c.clients.inputTokenChoices = g.someOf(kInputs);
        c.clients.outputTokenChoices = g.someOf(kOutputs);
    }
    if (load != Load::ClosedLoop)
        c.trace = drawRows(g, load == Load::Mixed
                                  ? g.oneOf<Load>({Load::Poisson,
                                                   Load::Sessions})
                                  : load);

    if (kv) {
        // No smaller than the largest request's worst case (prompt +
        // every output token) in each layout region, times 1-4.
        std::uint64_t worst = 0;
        for (const TimedRequest &t : c.trace.requests)
            worst = std::max(worst, t.request.inputTokens +
                                        t.request.outputTokens);
        if (load == Load::ClosedLoop || load == Load::Mixed)
            worst = std::max(worst,
                             *std::max_element(
                                 c.clients.inputTokenChoices.begin(),
                                 c.clients.inputTokenChoices.end()) +
                                 *std::max_element(
                                     c.clients.outputTokenChoices.begin(),
                                     c.clients.outputTokenChoices.end()));
        const std::uint64_t b = o.kv.blockTokens;
        const std::uint64_t regions =
            o.kv.layout == KvLayout::Partitioned ? 2 : 1;
        o.kv.capacityTokens = (worst + b - 1) / b * b * regions *
                              g.oneOf<std::uint64_t>({1, 1, 2, 4});
    }
    return c;
}

std::string
describe(const Case &c)
{
    const ServingOptions &o = c.opts;
    std::ostringstream os;
    os << "case seed " << c.seed << ": " << loadName(c.load) << " load on "
       << c.replicas.size() << " replicas [";
    for (std::size_t i = 0; i < c.replicas.size(); ++i)
        os << (i ? " " : "") << replicaName(c.replicas[i]);
    os << "]";
    if (c.shards > 1)
        os << " in " << c.shards << " shards";
    if (!o.roles.empty()) {
        os << ", roles";
        for (ReplicaRole role : o.roles)
            os << " " << toString(role);
    }
    os << "\n  policy " << c.policy << ", router " << c.router
       << ", batching " << toString(o.batching) << " max " << o.maxBatch
       << ", chunk " << o.prefillChunk << ", preempt " << o.preempt
       << ", stride " << o.tokenStride << ", slo " << o.sloMsPerToken
       << " ms/token, prefix cache " << o.prefixCache << ", link "
       << o.kvLinkGBs << " GB/s";
    if (o.kv.enabled())
        os << "\n  kv " << o.kv.capacityTokens << " tokens, block "
           << o.kv.blockTokens << ", " << toString(o.kv.admission) << ", "
           << toString(o.kv.layout);
    if (c.load == Load::ClosedLoop || c.load == Load::Mixed) {
        os << "\n  clients " << c.clients.clients << " x "
           << c.clients.requestsPerClient << " requests, seed "
           << c.clients.seed << ", think " << c.clients.meanThinkMs
           << " ms, inputs";
        for (std::uint64_t v : c.clients.inputTokenChoices)
            os << " " << v;
        os << ", outputs";
        for (std::uint64_t v : c.clients.outputTokenChoices)
            os << " " << v;
    }
    return os.str();
}

/** One drain of a case and what its audit needs. */
struct Drained
{
    ServingReport report;
    std::uint64_t offered = 0;
    double firstArrivalMs = 0.0;
};

/** Drain @p c on a fresh engine over its replica view. Empty when the
 *  engine constructor rejects the options; a fatal error from the
 *  drain itself propagates. */
std::optional<Drained>
drainView(const Case &c)
{
    std::vector<const CompiledModel *> view;
    for (std::size_t d : c.replicas)
        view.push_back(&pool(4).replica(d));
    std::unique_ptr<ServingEngine> engine;
    try {
        engine = std::make_unique<ServingEngine>(
            view, c.opts, makePolicy(c.policy),
            makeRouter(c.router, c.opts.sloMsPerToken));
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
    Drained out;
    ArrivalTrace clients; // the closed-loop clients' realized arrivals
    if (c.load == Load::ClosedLoop) {
        ClosedLoopResult r = runClosedLoop(*engine, c.clients);
        out.report = std::move(r.report);
        clients = std::move(r.realized);
    } else if (c.load == Load::Mixed) {
        MixedResult r = runMixedDrain(*engine, c.clients, c.trace);
        out.report = std::move(r.report);
        clients = std::move(r.realizedInteractive);
    } else {
        submitAll(c.trace, *engine);
        out.report = engine->drain();
    }
    out.offered = c.trace.size() + clients.size();
    double first = std::numeric_limits<double>::infinity();
    const ArrivalTrace &realized = clients;
    for (const ArrivalTrace *t : {&c.trace, &realized})
        if (!t->requests.empty())
            first = std::min(first, t->requests.front().arrivalMs);
    out.firstArrivalMs = std::isinf(first) ? 0.0 : first;
    return out;
}

/** drainSharded over pool(r) on @p threads worker threads. */
ServingReport
drainShards(const Case &c, std::size_t threads)
{
    ShardOptions so;
    so.shards = c.shards;
    so.threads = threads;
    const double slo = c.opts.sloMsPerToken;
    const std::string &policy = c.policy, &router = c.router;
    return drainSharded(
        pool(c.replicas.size()), c.opts, c.trace, so,
        [&policy] { return makePolicy(policy); },
        [&router, slo] { return makeRouter(router, slo); });
}

/** What is wrong with case @p c, empty when it passes. Sets @p ran
 *  when a drain actually ran (the options were accepted). */
std::vector<std::string>
check(const Case &c, bool &ran)
{
    ran = false;
    std::vector<std::string> bad;
    try {
        if (c.shards > 1) {
            // The engine constructor judges the options; the shard
            // check judges the role partition. Both may refuse.
            try {
                ServingEngine probe(pool(c.replicas.size()), c.opts);
            } catch (const std::runtime_error &) {
                return bad;
            }
            if (!rolesPartition(c.opts.roles, c.shards)) {
                bool refused = false;
                try {
                    drainShards(c, 1);
                } catch (const std::runtime_error &) {
                    refused = true;
                }
                if (!refused)
                    bad.push_back("roles that do not partition across "
                                  "shards were not refused");
                return bad;
            }
            ran = true;
            const ServingReport one = drainShards(c, 1);
            bad = test::auditDrain(one, c.trace.size(),
                                   c.trace.requests.empty()
                                       ? 0.0
                                       : c.trace.requests.front().arrivalMs,
                                   test::ServiceScale::Finish);
            const std::string diff =
                test::reportDifference(one, drainShards(c, 2));
            if (!diff.empty())
                bad.push_back("threads 1 and threads 2 differ at " + diff);
            return bad;
        }
        std::optional<Drained> first = drainView(c);
        if (!first)
            return bad;
        ran = true;
        bad = test::auditDrain(first->report, first->offered,
                               first->firstArrivalMs,
                               test::ServiceScale::Finish);
        const std::string diff =
            test::reportDifference(first->report, drainView(c)->report);
        if (!diff.empty())
            bad.push_back("a second drain differs at " + diff);
    } catch (const std::exception &e) {
        bad.push_back(std::string("drain threw: ") + e.what());
    }
    return bad;
}

/** Drop row @p i of @p trace, and with a session turn every later
 *  turn of its session, so the rows still parse as a trace. */
ArrivalTrace
withoutRow(const ArrivalTrace &trace, std::size_t i)
{
    const TimedRequest &gone = trace.requests[i];
    ArrivalTrace out;
    for (std::size_t k = 0; k < trace.size(); ++k) {
        const TimedRequest &t = trace.requests[k];
        const bool drop =
            k == i || (gone.sessionId != 0 && t.sessionId == gone.sessionId &&
                       t.turnIndex > gone.turnIndex);
        if (!drop)
            out.requests.push_back(t);
    }
    return out;
}

/** Shrink a failing case greedily, then report it. */
void
reportFailure(Case c, std::vector<std::string> bad)
{
    bool ran = false;
    for (bool shrunk = true; shrunk;) {
        shrunk = false;
        for (std::size_t i = c.trace.size(); i-- > 0;) {
            Case smaller = c;
            smaller.trace = withoutRow(c.trace, i);
            std::vector<std::string> still = check(smaller, ran);
            if (!still.empty()) {
                c = std::move(smaller);
                bad = std::move(still);
                shrunk = true;
                i = std::min(i, c.trace.size());
            }
        }
    }
    std::ostringstream os;
    os << describe(c) << "\n";
    for (const std::string &v : bad)
        os << "  " << v << "\n";
    os << "rows left:\n" << formatTrace(c.trace);
    ADD_FAILURE() << os.str();
}

/** Run @p count cases of @p load from seed @p first; stop at the first
 *  failure. Most cases must get past the constructor. */
void
fuzz(Load load, std::uint32_t first, std::uint32_t count, bool sharded)
{
    std::uint32_t ran_cases = 0;
    for (std::uint32_t seed = first; seed < first + count; ++seed) {
        const Case c = drawCase(seed, load, sharded);
        bool ran = false;
        std::vector<std::string> bad = check(c, ran);
        ran_cases += ran;
        if (!bad.empty()) {
            reportFailure(c, std::move(bad));
            return;
        }
    }
    EXPECT_GE(ran_cases, count / 2)
        << "most drawn cases should be valid drains";
}

TEST(DrainFuzz, PoissonDrains) { fuzz(Load::Poisson, 1000, 50, false); }

TEST(DrainFuzz, SessionDrains) { fuzz(Load::Sessions, 2000, 90, false); }

TEST(DrainFuzz, BurstyDrains) { fuzz(Load::Bursty, 3000, 30, false); }

TEST(DrainFuzz, ClosedLoopDrains)
{
    fuzz(Load::ClosedLoop, 4000, 30, false);
}

TEST(DrainFuzz, MixedDrains) { fuzz(Load::Mixed, 5000, 50, false); }

TEST(DrainFuzz, ShardedThreadCountsAgree)
{
    fuzz(Load::Poisson, 6000, 25, true);
    fuzz(Load::Sessions, 7000, 25, true);
}

} // namespace
