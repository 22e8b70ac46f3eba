/**
 * @file
 * What the serving drain (drain.cc), the engine, policies and routers
 * (serving_engine.cc), the sharded drain (sharded_drain.cc) and the
 * trace parser (trace_gen.cc) share, including the task runner that
 * runs shards and the slices of large passes on threads. Internal to
 * src/serve: no public header includes it.
 */

#ifndef IANUS_SERVE_DRAIN_HH
#define IANUS_SERVE_DRAIN_HH

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "serve/serving_engine.hh"

namespace ianus::serve
{

struct ArrivalTrace;

/**
 * Run task(0), ..., task(@p tasks - 1) on up to min(@p tasks,
 * @p threads) threads, the calling thread among them; each thread takes
 * the next task not yet started. A task's exception must not escape its
 * thread (that would call std::terminate): each one is kept, and after
 * every thread has joined the lowest-indexed one is rethrown, whatever
 * the thread count. With one task or one thread no thread starts.
 */
template <typename Task>
void
runTasks(std::size_t tasks, std::size_t threads, const Task &task)
{
    std::vector<std::exception_ptr> failures(tasks);
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t t = next.fetch_add(1); t < tasks;
             t = next.fetch_add(1)) {
            try {
                task(t);
            } catch (...) {
                failures[t] = std::current_exception();
            }
        }
    };
    {
        // A jthread joins when the scope ends, so a thread that fails
        // to start cannot leave another running.
        std::vector<std::jthread> workers;
        for (std::size_t t = 1; t < std::min(tasks, threads); ++t)
            workers.emplace_back(work);
        work();
    }
    for (const std::exception_ptr &failure : failures)
        if (failure)
            std::rethrow_exception(failure);
}

/** How many slices a pass over @p n items cuts them into when a slice
 *  should hold at least @p per_slice of them: at most
 *  hardware_concurrency(), and 1 (the calling thread alone) below
 *  2 * @p per_slice. */
inline std::size_t
sliceCount(std::size_t n, std::size_t per_slice)
{
    const std::size_t wanted = n / per_slice;
    if (wanted < 2)
        return 1;
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                   wanted);
}

/** body(s, lo, hi) for each slice [lo, hi) of [0, @p n) cut into
 *  @p slices contiguous slices, one task per slice (runTasks). */
template <typename Body>
void
forEachSlice(std::size_t n, std::size_t slices, const Body &body)
{
    runTasks(slices, slices, [&](std::size_t s) {
        body(s, s * n / slices, (s + 1) * n / slices);
    });
}

/** parseTrace() with its rows cut into exactly @p slices slices (>= 1)
 *  at line starts. Every row, and every fatal message, is the one a
 *  single slice gives. (Not an overload: the parser fuzz tests take
 *  parseTrace's address.) */
ArrivalTrace parseTraceInSlices(std::string_view text, std::size_t slices);

/** Results per slice of a ServingReport pass: a report below twice
 *  this (fleet_cold keeps 100k results) runs each pass on the calling
 *  thread alone. */
constexpr std::size_t resultSliceRows = std::size_t{1} << 17;

/** What one of ServingReport's integer passes counts per result. */
enum class ResultCount
{
    SloMisses,      ///< sloMissRate()
    DeadlineMisses, ///< deadlineMissRate()
    Preemptions,    ///< preemptions()
    GoodputTokens   ///< sloGoodputTokensPerSec(): met-deadline tokens
};

/** The sum of @p what over @p results: the partial sums of @p slices
 *  slices, added in slice order. */
std::uint64_t countResults(const std::vector<RequestResult> &results,
                           ResultCount what, std::size_t slices);

/** What one of ServingReport's percentile calls reads per result. */
enum class ResultSample
{
    Latency, ///< latencyPercentiles(): totalMs()
    Ttft,    ///< ttftPercentiles(): firstTokenMs
    Service  ///< serviceTimePercentile(): serviceMs
};

/** ServingReport::percentiles() of @p what over @p results, gathered
 *  by @p slices slices into the calling thread's one sample buffer. */
std::vector<double> resultPercentiles(const std::vector<RequestResult> &results,
                                      ResultSample what,
                                      const std::vector<double> &ps,
                                      std::size_t slices);

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
