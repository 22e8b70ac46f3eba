/**
 * @file
 * What the serving drain (drain.cc), the engine, policies and routers
 * (serving_engine.cc) and the sharded drain (sharded_drain.cc) share.
 * Internal to src/serve: no public header includes it.
 */

#ifndef IANUS_SERVE_DRAIN_HH
#define IANUS_SERVE_DRAIN_HH

#include <cstddef>
#include <cstdint>
#include <string>

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

/** submit()'s checks on @p row, queued after a row arriving at
 *  @p last_arrival_ms. */
void checkSubmit(const TimedRequest &row, double last_arrival_ms);

/** Drain @p rows on @p engine's replicas, policy and router, handing
 *  every result to @p sink. The report keeps no results; its other
 *  fields are a plain drain's. The engine's own queue is untouched. */
ServingReport drainRows(ServingEngine &engine, const RequestRows &rows,
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
