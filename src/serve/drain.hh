/**
 * @file
 * What the serving drain (drain.cc), the engine, policies and routers
 * (serving_engine.cc), the sharded drain (sharded_drain.cc) and the
 * trace parser (trace_gen.cc) share. Internal to src/serve: no public
 * header includes it.
 */

#ifndef IANUS_SERVE_DRAIN_HH
#define IANUS_SERVE_DRAIN_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "serve/serving_engine.hh"

namespace ianus::serve
{

/** The EDF completion budget: one definition for the scheduler's
 *  urgency key, the SLO-budget router and deadlineMiss accounting. */
inline double
deadlineMs(double arrival_ms, const workloads::InferenceRequest &req,
           double slo_ms_per_token)
{
    return arrival_ms +
           slo_ms_per_token * static_cast<double>(req.outputTokens);
}

/** The rows a drain replays, read where they lie: the engine's own
 *  submit queue, or a shard's slice of the caller's trace. */
struct RequestRows
{
    const TimedRequest *rows = nullptr;
    /** Row k is rows[index[k]]; null reads rows[k]. */
    const std::size_t *index = nullptr;
    std::size_t size = 0;
    std::uint64_t firstId = 0; ///< row k's request id is firstId + k

    const TimedRequest &
    operator[](std::size_t k) const
    {
        return rows[index ? index[k] : k];
    }
};

/** Takes each result of a drain that keeps none in its report, in
 *  completion order. */
class ResultSink
{
  public:
    virtual void put(RequestResult &&result) = 0;

  protected:
    ~ResultSink() = default;
};

/**
 * The rules a request row meets wherever it enters a drain: submit(),
 * inject(), a trace file (parseTrace) and drainSharded's partition
 * pass. The row needs a shape a model can serve, a finite non-negative
 * arrival no earlier than @p last_arrival_ms (the previous row's), and
 * session tags that fit together. A broken rule is fatal, and its
 * message starts with what @p where() returns, called only then.
 */
template <typename Where>
void
checkRow(const TimedRequest &row, double last_arrival_ms, Where where)
{
    const auto fail = [&](const auto &...why) {
        IANUS_FATAL(where(), why...);
    };
    if (const char *why = shapeError(row.request))
        fail(why);
    if (!std::isfinite(row.arrivalMs) || row.arrivalMs < 0.0)
        fail("request arrival must be a finite non-negative time in ms, "
             "got ", row.arrivalMs);
    if (row.arrivalMs < last_arrival_ms)
        fail("request arrivals must be non-decreasing (got ", row.arrivalMs,
             " ms after ", last_arrival_ms, " ms)");
    if (row.sessionId == 0 && (row.turnIndex != 0 || row.prefixTokens != 0))
        fail("a single-turn request (session 0) cannot carry turn ",
             row.turnIndex, " / prefix ", row.prefixTokens);
    if (row.turnIndex == 0 && row.prefixTokens != 0)
        fail("session ", row.sessionId, " turn 0 cannot carry a prefix of ",
             row.prefixTokens, " tokens (nothing precedes it)");
    if (row.prefixTokens >= row.request.inputTokens)
        fail("session ", row.sessionId, " turn ", row.turnIndex,
             " has prefix ", row.prefixTokens, " >= input ",
             row.request.inputTokens,
             " (each turn must add new prompt tokens)");
}

/** Fatal unless @p opts can drive a drain over @p replicas replicas:
 *  the one option check of every engine and of drainSharded. */
void checkOptions(const ServingOptions &opts, std::size_t replicas);

/** @p opts typed by @p pool's own roles unless it already chooses
 *  some; an all-unified pool keeps the (bit-identical) empty default. */
inline ServingOptions
withPoolRoles(const DevicePool &pool, ServingOptions opts)
{
    if (opts.roles.empty() && pool.disaggregated())
        opts.roles = pool.roles();
    return opts;
}

/** @p policy, or FCFS when it is null: every drain's default. */
inline std::unique_ptr<SchedulingPolicy>
orDefault(std::unique_ptr<SchedulingPolicy> policy)
{
    return policy ? std::move(policy) : std::make_unique<FcfsPolicy>();
}

/** @p router, or round-robin when it is null: every drain's default. */
inline std::unique_ptr<Router>
orDefault(std::unique_ptr<Router> router)
{
    return router ? std::move(router) : std::make_unique<RoundRobinRouter>();
}

/** Drain @p rows on @p replicas under @p opts (checked), @p policy and
 *  @p router, handing every result to @p sink. The report keeps no
 *  results; its other fields are a plain drain's. */
ServingReport drainRows(const std::vector<const CompiledModel *> &replicas,
                        const ServingOptions &opts, SchedulingPolicy &policy,
                        Router &router, const RequestRows &rows,
                        ResultSink &sink);

/** Echo the policy, router and options a drain ran under into
 *  @p report (all but the roles, which the caller resolves). */
void echoOptions(ServingReport &report, const std::string &policy,
                 const std::string &router, const ServingOptions &opts);

/** Fill the report fields that follow from its final counters: the
 *  mean KV fragmentation, and each replica's idle time and utilization
 *  against the makespan. */
void closeReport(ServingReport &report);

} // namespace ianus::serve

#endif // IANUS_SERVE_DRAIN_HH
