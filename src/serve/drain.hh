/**
 * @file
 * What the serving drain (drain.cc), the policies and routers
 * (serving_engine.cc) and the sharded merge (sharded_drain.cc) share.
 * Internal to src/serve: no public header includes it.
 */

#ifndef IANUS_SERVE_DRAIN_HH
#define IANUS_SERVE_DRAIN_HH

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
