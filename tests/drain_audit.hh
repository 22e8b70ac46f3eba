/**
 * @file The one audit every drain test holds a ServingReport to: the
 * conservation and accounting laws that must hold for any pool,
 * options and trace. It returns its violations as text, so a gtest
 * check and the drain fuzzer's shrinker use the same predicate. Next
 * to it, the one field-by-field comparison of two drains' reports.
 */

#ifndef IANUS_TESTS_DRAIN_AUDIT_HH
#define IANUS_TESTS_DRAIN_AUDIT_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/serving_engine.hh"

namespace ianus::test
{

/** True iff @p a and @p b are within 4 units in the last place, the
 *  tolerance gtest's EXPECT_DOUBLE_EQ applies. */
inline bool
almostEqual(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return false;
    auto biased = [](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        const std::uint64_t sign = std::uint64_t{1} << 63;
        return (bits & sign) ? ~bits + 1 : bits | sign;
    };
    const std::uint64_t x = biased(a), y = biased(b);
    return (x > y ? x - y : y - x) <= 4;
}

/** a <= b, allowing b the rounding of one addition of ms-scale times
 *  (arrival + TTFT re-adds the arrival TTFT was measured from). */
inline bool
notAfter(double a, double b)
{
    return a <= b || almostEqual(a, b);
}

/** The scale the audit holds serviceMs = finish - start - suspended
 *  to. The whole-request path sets finish = start + serviceMs, so
 *  finish - start carries the rounding of an addition at finish's
 *  scale; 4 ULPs of serviceMs cover it only while the start is small
 *  next to serviceMs (arrivals before ~50 ms). */
enum class ServiceScale : std::uint8_t
{
    Service, ///< within 4 ULPs of serviceMs (EXPECT_DOUBLE_EQ)
    Finish,  ///< within 4 ULPs of finishMs, for traces that run late
};

/**
 * Audit a drain of @p offered requests (submitted plus injected), the
 * earliest submitted at @p first_arrival_ms. Returns one line per
 * violation, empty when the drain is clean:
 *
 *  - every offered id completes or is shed, exactly once: result ids
 *    are distinct and in [0, offered), and results + shed = offered;
 *  - generated tokens sum to the report's total;
 *  - no replica ends with resident KV tokens or leaked KV blocks;
 *  - dispatches equal completed + preemptions + KV transfers;
 *  - every time is finite, arrival <= start <= arrival + TTFT <=
 *    finish, serviceMs = finish - start - suspended (at @p scale), and
 *    a request never evicted was never suspended;
 *  - per replica, busy + idle = makespan to 4 ULPs and utilization
 *    lies in [0, 1], and the makespan is the last finish minus the
 *    first arrival.
 */
inline std::vector<std::string>
auditDrain(const serve::ServingReport &rep, std::uint64_t offered,
           double first_arrival_ms,
           ServiceScale scale = ServiceScale::Service)
{
    std::vector<std::string> bad;
    auto fail = [&bad](const auto &...parts) {
        std::ostringstream os;
        os.precision(17); // violations can be one rounding wide
        (os << ... << parts);
        bad.push_back(os.str());
    };

    if (rep.results.size() + rep.kvShed != offered)
        fail(offered, " offered, ", rep.results.size(), " completed, ",
             rep.kvShed, " shed");
    std::vector<char> seen(offered, 0);
    std::uint64_t tokens = 0, preemptions = 0;
    double last_finish = first_arrival_ms;
    for (const serve::RequestResult &r : rep.results) {
        if (r.id >= offered)
            fail("result id ", r.id, " beyond the ", offered, " offered");
        else if (seen[r.id]++)
            fail("id ", r.id, " completed twice");
        tokens += r.request.outputTokens;
        preemptions += r.preemptions;
        last_finish = std::max(last_finish, r.finishMs);
        const double times[] = {r.arrivalMs,  r.startMs,
                                r.finishMs,   r.serviceMs,
                                r.firstTokenMs, r.suspendedMs,
                                r.msPerToken, r.kvTransferMs};
        for (double t : times)
            if (!std::isfinite(t)) {
                fail("id ", r.id, " has a non-finite time");
                break;
            }
        if (!(r.arrivalMs <= r.startMs))
            fail("id ", r.id, " starts at ", r.startMs,
                 " before its arrival at ", r.arrivalMs);
        if (!(r.startMs <= r.finishMs))
            fail("id ", r.id, " finishes at ", r.finishMs,
                 " before its start at ", r.startMs);
        const double first_token = r.arrivalMs + r.firstTokenMs;
        if (!notAfter(r.startMs, first_token) ||
            !notAfter(first_token, r.finishMs))
            fail("id ", r.id, " emits its first token at ", first_token,
                 " outside [start ", r.startMs, ", finish ", r.finishMs,
                 "]");
        const double resident = r.finishMs - r.startMs - r.suspendedMs;
        const double finish_ulp =
            std::nextafter(r.finishMs,
                           std::numeric_limits<double>::infinity()) -
            r.finishMs;
        const bool service_ok =
            scale == ServiceScale::Service
                ? almostEqual(r.serviceMs, resident)
                : std::abs(r.serviceMs - resident) <= 4 * finish_ulp;
        if (!service_ok)
            fail("id ", r.id, " serviceMs ", r.serviceMs,
                 " != finish - start - suspended ", resident);
        if (r.preemptions == 0 && r.suspendedMs != 0.0)
            fail("id ", r.id, " was suspended but never evicted");
    }
    if (tokens != rep.generatedTokens)
        fail("results generated ", tokens, " tokens, the report says ",
             rep.generatedTokens);

    std::uint64_t dispatched = 0;
    for (std::size_t d = 0; d < rep.replicas.size(); ++d) {
        const serve::ReplicaUtilization &u = rep.replicas[d];
        dispatched += u.dispatched;
        if (u.kvTokensEnd != 0 || u.kvBlocksLeaked != 0)
            fail("replica ", d, " ends with ", u.kvTokensEnd,
                 " KV tokens and ", u.kvBlocksLeaked, " leaked blocks");
        if (!almostEqual(u.busyMs + u.idleMs, rep.makespanMs))
            fail("replica ", d, " busy ", u.busyMs, " + idle ", u.idleMs,
                 " != makespan ", rep.makespanMs);
        if (!(u.utilization >= 0.0 && u.utilization <= 1.0))
            fail("replica ", d, " utilization ", u.utilization);
    }
    const std::uint64_t want =
        rep.results.size() + preemptions + rep.kvTransfers;
    if (dispatched != want)
        fail(dispatched, " dispatches != ", rep.results.size(),
             " completed + ", preemptions, " preemptions + ",
             rep.kvTransfers, " transfers");
    if (!almostEqual(rep.makespanMs, last_finish - first_arrival_ms))
        fail("makespan ", rep.makespanMs, " != last finish ", last_finish,
             " - first arrival ", first_arrival_ms);
    return bad;
}

/** Report every audit violation of @p rep as a gtest failure tagged
 *  with @p cell. */
inline void
expectCleanDrain(const serve::ServingReport &rep, std::uint64_t offered,
                 double first_arrival_ms, const std::string &cell,
                 ServiceScale scale = ServiceScale::Service)
{
    for (const std::string &v :
         auditDrain(rep, offered, first_arrival_ms, scale))
        ADD_FAILURE() << cell << ": " << v;
}

/**
 * The first measured field where @p a and @p b differ, named, or ""
 * when the two drains agree bit for bit: every result, every replica's
 * counters and the report's scalars and aggregate cost. Doubles must
 * hold the same bits and no NaN. The echoed options are not compared.
 */
inline std::string
reportDifference(const serve::ServingReport &a,
                 const serve::ServingReport &b)
{
    using Fields = std::initializer_list<std::pair<const char *, bool>>;
    auto same = [](double x, double y) {
        return x == y && std::signbit(x) == std::signbit(y);
    };
    auto first = [](Fields fields) -> std::string {
        for (const auto &[name, equal] : fields)
            if (!equal)
                return name;
        return "";
    };
    if (a.results.size() != b.results.size())
        return "result count " + std::to_string(a.results.size()) +
               " vs " + std::to_string(b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const serve::RequestResult &x = a.results[i], &y = b.results[i];
        const std::string field = first({
            {"id", x.id == y.id},
            {"inputTokens", x.request.inputTokens == y.request.inputTokens},
            {"outputTokens",
             x.request.outputTokens == y.request.outputTokens},
            {"arrivalMs", same(x.arrivalMs, y.arrivalMs)},
            {"startMs", same(x.startMs, y.startMs)},
            {"finishMs", same(x.finishMs, y.finishMs)},
            {"serviceMs", same(x.serviceMs, y.serviceMs)},
            {"firstTokenMs", same(x.firstTokenMs, y.firstTokenMs)},
            {"msPerToken", same(x.msPerToken, y.msPerToken)},
            {"sloMiss", x.sloMiss == y.sloMiss},
            {"deadlineMiss", x.deadlineMiss == y.deadlineMiss},
            {"prefixHit", x.prefixHit == y.prefixHit},
            {"source", x.source == y.source},
            {"deviceIndex", x.deviceIndex == y.deviceIndex},
            {"prefillIndex", x.prefillIndex == y.prefillIndex},
            {"kvTransferMs", same(x.kvTransferMs, y.kvTransferMs)},
            {"kvTransferTokens", x.kvTransferTokens == y.kvTransferTokens},
            {"meanBatchSize", same(x.meanBatchSize, y.meanBatchSize)},
            {"preemptions", x.preemptions == y.preemptions},
            {"suspendedMs", same(x.suspendedMs, y.suspendedMs)},
            {"prefillChunks", x.prefillChunks == y.prefillChunks},
            {"sessionId", x.sessionId == y.sessionId},
            {"turnIndex", x.turnIndex == y.turnIndex},
            {"prefixTokens", x.prefixTokens == y.prefixTokens},
            {"prefilledTokens", x.prefilledTokens == y.prefilledTokens},
            {"generationSteps", x.generationSteps == y.generationSteps},
        });
        if (!field.empty())
            return "result " + std::to_string(i) + " (id " +
                   std::to_string(x.id) + ") " + field;
    }
    if (a.replicas.size() != b.replicas.size())
        return "replica count";
    for (std::size_t d = 0; d < a.replicas.size(); ++d) {
        const serve::ReplicaUtilization &x = a.replicas[d],
                                        &y = b.replicas[d];
        const std::string field = first({
            {"dispatched", x.dispatched == y.dispatched},
            {"busyMs", same(x.busyMs, y.busyMs)},
            {"idleMs", same(x.idleMs, y.idleMs)},
            {"utilization", same(x.utilization, y.utilization)},
            {"kvTokensEnd", x.kvTokensEnd == y.kvTokensEnd},
            {"kvBlocksLeaked", x.kvBlocksLeaked == y.kvBlocksLeaked},
        });
        if (!field.empty())
            return "replica " + std::to_string(d) + " " + field;
    }
    const RunStats &s = a.aggregate, &t = b.aggregate;
    return first({
        {"makespanMs", same(a.makespanMs, b.makespanMs)},
        {"generatedTokens", a.generatedTokens == b.generatedTokens},
        {"simEvents", a.simEvents == b.simEvents},
        {"kvShed", a.kvShed == b.kvShed},
        {"kvPeakPressure", same(a.kvPeakPressure, b.kvPeakPressure)},
        {"kvMeanFragmentation",
         same(a.kvMeanFragmentation, b.kvMeanFragmentation)},
        {"kvFragWasteTokens", a.kvFragWasteTokens == b.kvFragWasteTokens},
        {"kvFragGrossTokens", a.kvFragGrossTokens == b.kvFragGrossTokens},
        {"kvSpilledSegments", a.kvSpilledSegments == b.kvSpilledSegments},
        {"kvMaxDilation", same(a.kvMaxDilation, b.kvMaxDilation)},
        {"kvTransfers", a.kvTransfers == b.kvTransfers},
        {"kvTransferMs", same(a.kvTransferMs, b.kvTransferMs)},
        {"kvTransferGB", same(a.kvTransferGB, b.kvTransferGB)},
        {"prefixHits", a.prefixHits == b.prefixHits},
        {"prefixMisses", a.prefixMisses == b.prefixMisses},
        {"prefillTokensSaved", a.prefillTokensSaved == b.prefillTokensSaved},
        {"aggregate.wallTicks", s.wallTicks == t.wallTicks},
        {"aggregate.commands", same(s.commands, t.commands)},
        {"aggregate.muFlops", same(s.muFlops, t.muFlops)},
        {"aggregate.vuElems", same(s.vuElems, t.vuElems)},
        {"aggregate.dramReadBytes", same(s.dramReadBytes, t.dramReadBytes)},
        {"aggregate.dramWriteBytes",
         same(s.dramWriteBytes, t.dramWriteBytes)},
        {"aggregate.pimWeightBytes",
         same(s.pimWeightBytes, t.pimWeightBytes)},
        {"aggregate.pimMacros", same(s.pimMacros, t.pimMacros)},
    });
}

/**
 * FNV-1a over simulated results, fed one named field at a time, never
 * a whole struct, whose padding bytes are unspecified. Integers and
 * the bits of doubles go in low byte first, so a digest means the same
 * on every host.
 */
struct ResultDigest
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    u(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8)
            value = (value ^ (v & 0xff)) * 0x100000001b3ull;
    }

    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u(bits);
    }

    void
    text(const std::string &s)
    {
        u(s.size());
        for (unsigned char c : s)
            u(c);
    }

    void
    add(const RunStats &s)
    {
        u(s.wallTicks);
        for (const auto *by : {&s.classBusy, &s.classSpan, &s.classExclusive})
            for (double v : *by)
                d(v);
        for (double v : s.unitBusy)
            d(v);
        for (double v : {s.commands, s.muFlops, s.vuElems, s.dramReadBytes,
                         s.dramWriteBytes, s.pimWeightBytes, s.pimMacros,
                         s.pimActivates, s.pimGbBursts, s.pimRdBursts})
            d(v);
    }

    void
    add(const InferenceReport &r)
    {
        u(r.inputTokens);
        u(r.outputTokens);
        add(r.summarization);
        add(r.generation);
        u(r.generationSteps);
    }

    void
    add(const serve::RequestResult &r)
    {
        u(r.id);
        u(r.request.inputTokens);
        u(r.request.outputTokens);
        for (double v : {r.arrivalMs, r.startMs, r.finishMs, r.serviceMs,
                         r.firstTokenMs, r.msPerToken})
            d(v);
        u(r.sloMiss);
        u(r.deadlineMiss);
        u(r.prefixHit);
        u(r.source);
        u(r.deviceIndex);
        u(r.prefillIndex);
        d(r.kvTransferMs);
        u(r.kvTransferTokens);
        d(r.meanBatchSize);
        u(r.preemptions);
        d(r.suspendedMs);
        u(r.prefillChunks);
        u(r.sessionId);
        u(r.turnIndex);
        u(r.prefixTokens);
        u(r.prefilledTokens);
        u(r.generationSteps);
    }

    /** Every result, the echoed options, each replica's counters, the
     *  report's scalars and its aggregate cost. simEvents stays out:
     *  it counts how the simulator got there, not what it simulated. */
    void
    add(const serve::ServingReport &rep)
    {
        for (const serve::RequestResult &r : rep.results)
            add(r);
        text(rep.policy);
        text(rep.router);
        text(rep.batching);
        u(rep.maxBatch);
        u(rep.prefillChunk);
        u(rep.preempt);
        u(rep.kv.capacityTokens);
        u(rep.kv.blockTokens);
        u(static_cast<std::uint64_t>(rep.kv.admission));
        u(static_cast<std::uint64_t>(rep.kv.layout));
        for (serve::ReplicaRole role : rep.roles)
            u(static_cast<std::uint64_t>(role));
        u(rep.shards);
        for (const serve::ReplicaUtilization &r : rep.replicas) {
            u(r.dispatched);
            d(r.busyMs);
            d(r.idleMs);
            d(r.utilization);
            u(r.kvTokensEnd);
            u(r.kvBlocksLeaked);
        }
        d(rep.sloMsPerToken);
        d(rep.makespanMs);
        u(rep.generatedTokens);
        u(rep.kvShed);
        d(rep.kvPeakPressure);
        d(rep.kvMeanFragmentation);
        u(rep.kvFragWasteTokens);
        u(rep.kvFragGrossTokens);
        u(rep.kvSpilledSegments);
        d(rep.kvMaxDilation);
        u(rep.kvTransfers);
        d(rep.kvTransferMs);
        d(rep.kvTransferGB);
        u(rep.prefixHits);
        u(rep.prefixMisses);
        u(rep.prefillTokensSaved);
        add(rep.aggregate);
    }
};

} // namespace ianus::test

#endif // IANUS_TESTS_DRAIN_AUDIT_HH
