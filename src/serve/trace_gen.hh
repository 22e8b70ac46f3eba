/**
 * @file
 * Deterministic workload generation and replay for the serving engine.
 *
 * Three arrival regimes, all cross-platform deterministic (explicit
 * inverse-CDF sampling over seeded std::mt19937 — no
 * std::*_distribution, whose output is implementation-defined, and no
 * wall clock):
 *
 *  - open loop: generatePoissonTrace() draws Poisson inter-arrival
 *    gaps and uniform request shapes from caller-supplied choice
 *    lists; arrivals ignore the system's state (the load the paper's
 *    Section 6.1 regime assumes);
 *  - closed loop: runClosedLoop() simulates N clients, each submitting
 *    one request, waiting for its completion, thinking an exponential
 *    think time, and submitting the next — arrivals *depend on
 *    completions* through ServingEngine's completion hook, so a slow
 *    pool is offered less load (the self-throttling real client fleets
 *    exhibit);
 *  - file replay: saveTrace()/loadTrace() serialize an ArrivalTrace in
 *    a versioned text format whose doubles round-trip bit-exactly, so
 *    recorded traces (including a closed-loop run's realized arrivals)
 *    replay identically on any platform.
 */

#ifndef IANUS_SERVE_TRACE_GEN_HH
#define IANUS_SERVE_TRACE_GEN_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/serving_engine.hh"
#include "workloads/model_config.hh"

namespace ianus::serve
{

/** Source tags runMixedDrain assigns (see ServingReport::sourceSlices):
 *  the closed-loop interactive clients and the open-loop batch
 *  background trace. 0 stays the untagged single-source default. */
inline constexpr std::uint32_t kInteractiveSource = 1;
inline constexpr std::uint32_t kBatchSource = 2;

/** Knobs of the synthetic arrival process. */
struct TraceOptions
{
    std::uint64_t seed = 1;

    /** Number of requests to generate. */
    std::size_t requests = 100;

    /** Poisson arrival rate (requests per second of serving clock). */
    double arrivalsPerSec = 50.0;

    /** Clock origin: the first arrival lands one inter-arrival gap
     *  after this point, not at it. */
    double startMs = 0.0;

    /** Uniform choice lists for the request shape (paper Section 6.1
     *  evaluation ranges by default; keep in sync with llm_serving). */
    std::vector<std::uint64_t> inputTokenChoices = {128, 256, 512};
    std::vector<std::uint64_t> outputTokenChoices = {8, 16, 64, 128};

    /** Mixed context-length traffic: with this probability a request
     *  draws its shape from the long choice lists below instead (one
     *  extra seeded coin per request). 0 — the default — draws no coin
     *  at all, so the RNG stream and therefore the whole trace stay
     *  bit-identical to the knob-less generator. Must be in [0, 1]. */
    double longFraction = 0.0;

    /** Shape choices for the long-context fraction. Long prompts may
     *  need chunked prefill (--prefill-chunk) to fit the stock models'
     *  activation scratchpads; see SessionOptions::maxContextTokens. */
    std::vector<std::uint64_t> longInputTokenChoices = {768, 1024};
    std::vector<std::uint64_t> longOutputTokenChoices = {8, 16};
};

/** A generated trace: requests in non-decreasing arrival order. */
struct ArrivalTrace
{
    std::vector<TimedRequest> requests;

    std::size_t size() const { return requests.size(); }

    /** Last arrival time (0 for an empty trace). */
    double horizonMs() const;

    /** Offered generation load: output tokens per second of horizon. */
    double offeredTokensPerSec() const;

    /** True iff any request carries a session tag (sessionId != 0);
     *  selects the v2 on-disk format and session accounting. */
    bool hasSessions() const;
};

/** Generate a trace; rejects a non-positive rate or empty choice lists. */
ArrivalTrace generatePoissonTrace(const TraceOptions &opts);

// --- Production request logs (CSV import) -----------------------------------

/**
 * Parse a production request log in CSV form into an ArrivalTrace —
 * the schema of the published Azure LLM inference traces (and any log
 * shaped like them). The first row is a header naming the columns, in
 * any order, matched case-insensitively with '_', '-', and spaces
 * ignored:
 *
 *  - timestamp (alias: time, arrival, arrival_ms) — required. Either a
 *    plain number of milliseconds, or a calendar timestamp
 *    `YYYY-MM-DD hh:mm:ss[.frac]` (a 'T' separator and a trailing 'Z'
 *    are accepted). All rows must use one style or the other.
 *  - context_tokens (alias: prompt_tokens, input_tokens) — required,
 *    positive integer.
 *  - generated_tokens (alias: output_tokens, completion_tokens) —
 *    required, positive integer.
 *  - session_id (alias: conversation_id) — optional. Any non-empty
 *    string; distinct values map to dense session ids 1, 2, ... in
 *    first-appearance order (an empty cell means single-turn).
 *
 * Unknown columns are ignored. Rows are stably sorted by timestamp
 * (equal stamps keep file order) and rebased so the first arrival is
 * 0 ms. Session rows get their turn indices counted per session in
 * sorted order, and each turn's prefixTokens is inferred as the prior
 * turn's input + output when that fits under the turn's own input
 * (the conversation grew); otherwise 0 (a context reset — the log
 * recorded a shorter prompt than the history, so nothing is reusable).
 * The result satisfies the same contract parseTrace enforces, so an
 * imported log round-trips through the v1/v2 trace format.
 *
 * Fatal, with the 1-based row number, on: a missing required column,
 * an unparsable timestamp or token count, zero tokens, or an empty
 * log (no data rows).
 */
ArrivalTrace importRequestLog(std::string_view csv);

/** importRequestLog() from a file; fatal if the file cannot be read. */
ArrivalTrace loadRequestLog(const std::string &path);

// --- Non-stationary open-loop generators ------------------------------------

/**
 * A deterministic arrival-rate profile over a bounded horizon — the
 * intensity function the non-homogeneous generators thin against.
 * Built directly or via parseRateProfile()'s grammar:
 *
 *   const:RATE:DURATION_MS
 *   sin:BASE:AMPLITUDE:PERIOD_MS:DURATION_MS
 *   steps:DURATION_MS:R0,R1,...,Rk
 *
 * `const` is a flat RATE req/s; `sin` oscillates BASE ± AMPLITUDE
 * req/s with the given period (AMPLITUDE <= BASE keeps the rate
 * non-negative); `steps` splits the duration into equal slices at the
 * listed rates — the piecewise-constant diurnal day (e.g. a 24-entry
 * list is one rate per simulated hour).
 */
struct RateProfile
{
    enum class Kind : std::uint8_t
    {
        Constant,
        Sinusoid,
        Steps
    };

    Kind kind = Kind::Constant;

    /** Profile horizon; generation stops at this point. */
    double durationMs = 0.0;

    /** Constant rate, or the sinusoid midline (req/s). */
    double baseRate = 0.0;

    /** Sinusoid amplitude (req/s; <= baseRate). */
    double amplitudeRate = 0.0;

    /** Sinusoid period in ms. */
    double periodMs = 0.0;

    /** Piecewise-constant rates over equal duration/k slices. */
    std::vector<double> stepRates;

    /** Instantaneous rate at @p t_ms past the profile start (req/s);
     *  0 outside [0, durationMs). */
    double rateAt(double t_ms) const;

    /** Supremum of rateAt over the horizon — the thinning envelope. */
    double peakRate() const;
};

/** Parse the rate-profile grammar above; fatal, with the offending
 *  spec echoed, on an unknown kind, a malformed field, a non-positive
 *  duration or rate bound, or a sinusoid amplitude above its base. */
RateProfile parseRateProfile(const std::string &spec);

/** Knobs of the diurnal (non-homogeneous Poisson) generator. */
struct DiurnalOptions
{
    std::uint64_t seed = 1;

    /** The rate profile; must have a positive duration and peak. */
    RateProfile profile;

    /** Clock origin, as TraceOptions::startMs. */
    double startMs = 0.0;

    /** Shape choice lists, as TraceOptions. */
    std::vector<std::uint64_t> inputTokenChoices = {128, 256, 512};
    std::vector<std::uint64_t> outputTokenChoices = {8, 16, 64, 128};
};

/**
 * Generate a non-homogeneous Poisson trace by Lewis–Shedler thinning:
 * candidate arrivals come from a homogeneous Poisson stream at the
 * profile's peak rate, and each survives with probability
 * rate(t) / peak — so the accepted stream has exactly the profile's
 * intensity. The draw order is fixed (gap, then the thinning coin,
 * then shapes only on acceptance), which makes the trace a pure
 * function of (seed, profile): bit-reproducible on any platform, like
 * every other generator here. The request count is *not* a knob — it
 * is whatever the day produced (mean = integral of the profile).
 */
ArrivalTrace generateDiurnalTrace(const DiurnalOptions &opts);

/** Knobs of the bursty (Markov-modulated Poisson) generator. */
struct BurstyOptions
{
    std::uint64_t seed = 1;

    /** Trace horizon in ms. */
    double durationMs = 60'000.0;

    /** Arrival rate outside bursts (req/s, positive). */
    double baseRate = 20.0;

    /** Rate multiplier inside a burst (>= 1; 1 degenerates to a
     *  homogeneous Poisson at baseRate). */
    double burstRateRatio = 5.0;

    /** Mean burst dwell time (exponential, positive ms). */
    double meanBurstMs = 2'000.0;

    /** Mean calm-gap dwell time between bursts (exponential, positive
     *  ms; the process starts calm). */
    double meanGapMs = 8'000.0;

    /** Clock origin, as TraceOptions::startMs. */
    double startMs = 0.0;

    /** Shape choice lists, as TraceOptions. */
    std::vector<std::uint64_t> inputTokenChoices = {128, 256, 512};
    std::vector<std::uint64_t> outputTokenChoices = {8, 16, 64, 128};
};

/**
 * Generate a two-state Markov-modulated Poisson trace: an on/off
 * modulating chain (exponential dwells, starting off/calm) switches
 * the arrival rate between baseRate and baseRate x burstRateRatio.
 * Implemented by thinning at the burst rate against the chain's state,
 * with the whole on/off trajectory drawn before the arrival stream —
 * so, like the diurnal generator, the trace is a pure function of
 * (seed, options) and bit-reproducible anywhere.
 */
ArrivalTrace generateBurstyTrace(const BurstyOptions &opts);

// --- Multi-turn sessions ----------------------------------------------------

/** Knobs of the synthetic multi-turn session workload. */
struct SessionOptions
{
    std::uint64_t seed = 1;

    /** Number of sessions (conversations) to generate. */
    std::size_t sessions = 8;

    /** Mean turns per session: turn counts are a seeded geometric draw
     *  with this mean, clamped to [1, maxTurns]. */
    double meanTurns = 4.0;

    /** Hard cap on turns per session. */
    std::uint64_t maxTurns = 64;

    /** Context window: a session ends early (before its drawn turn
     *  count) rather than grow a turn whose input — inherited prefix
     *  plus delta — would exceed this. Must admit every delta choice
     *  as a first turn. The default keeps the growing context within
     *  what the stock models' activation scratchpads compile. */
    std::uint64_t maxContextTokens = 512;

    /** Mean think time between a turn's (synthetic) completion horizon
     *  and the next turn's arrival (exponential; must be positive so
     *  turns of a session arrive strictly later than their
     *  predecessors). */
    double meanThinkMs = 200.0;

    /** Poisson session-start rate (sessions per second). */
    double sessionsPerSec = 20.0;

    /** Uniform choice lists for the *new* prompt tokens each turn adds
     *  on top of the inherited prefix, and for the output tokens. */
    std::vector<std::uint64_t> deltaTokenChoices = {32, 64, 128};
    std::vector<std::uint64_t> outputTokenChoices = {16, 32, 64};
};

/**
 * Generate a multi-turn session trace. Each session s (ids start at 1)
 * draws its turn count, shapes, and think times from its own seeded
 * stream derived from (seed, s), so the draws are independent of how
 * many sessions precede it. Turn k's input is the full conversation so
 * far — prefixTokens (= turn k-1's input + output) plus a fresh delta
 * draw — and turn k arrives one think draw after turn k-1. The result
 * is sorted by (arrivalMs, sessionId, turnIndex), which keeps it a
 * valid non-decreasing arrival trace.
 */
ArrivalTrace generateSessionTrace(const SessionOptions &opts);

/** Submit every trace request with its session and source tags,
 *  sizing the engine's storage for them first (ServingEngine::reserve);
 *  returns the ids in trace order. */
std::vector<std::uint64_t> submitAll(const ArrivalTrace &trace,
                                     ServingEngine &engine);

// --- Closed-loop clients ----------------------------------------------------

/** Knobs of the closed-loop client fleet. */
struct ClosedLoopOptions
{
    std::uint64_t seed = 1;

    /** Concurrent clients; each holds at most one request in flight. */
    std::size_t clients = 4;

    /** Requests each client submits over the session. */
    std::size_t requestsPerClient = 8;

    /** Mean think time between a completion and the client's next
     *  arrival (exponential; 0 = re-submit at the completion instant).
     *  The first arrival of each client is one think draw after 0. */
    double meanThinkMs = 50.0;

    /** Uniform choice lists for the request shape (the TraceOptions
     *  defaults). */
    std::vector<std::uint64_t> inputTokenChoices = {128, 256, 512};
    std::vector<std::uint64_t> outputTokenChoices = {8, 16, 64, 128};
};

/** What a closed-loop session produced. */
struct ClosedLoopResult
{
    /** The drain's fleet report (every client request completed). */
    ServingReport report;

    /** The realized arrivals, sorted by arrival time — an open-loop
     *  trace that can be saved and replayed. */
    ArrivalTrace realized;
};

/**
 * Run a closed-loop session on @p engine (which must have no pending
 * requests): each of opts.clients clients draws shapes and think times
 * from its own seeded stream (so the draws are independent of
 * completion order), submits, and re-submits one think time after each
 * completion via the engine's completion hook, until it has sent
 * requestsPerClient requests. Deterministic: the same seed and engine
 * configuration produce the same realized trace and report. The
 * engine's completion hook is used during the run and cleared after
 * (also on a throwing drain).
 *
 * The realized trace replays the same *arrivals*, not necessarily the
 * same schedule: a live session delivers arrivals that tie to the
 * exact instant in completion order, while an open-loop replay of the
 * saved trace groups them into one burst (see ServingEngine::submit).
 * With a non-zero think time exact ties are vanishingly rare; both
 * runs are individually deterministic either way.
 */
ClosedLoopResult runClosedLoop(ServingEngine &engine,
                               const ClosedLoopOptions &opts);

// --- Mixed drains (interactive clients over a batch background) -------------

/** What a mixed drain produced. */
struct MixedResult
{
    /** The one fleet report covering both sources; slice it per
     *  source with report.sourceSlices() (interactive =
     *  kInteractiveSource, background = kBatchSource). */
    ServingReport report;

    /** The interactive clients' realized arrivals, sorted by arrival
     *  time (the background trace is the caller's — it replayed
     *  as-is). */
    ArrivalTrace realizedInteractive;
};

/**
 * Run a closed-loop interactive client population *over* an open-loop
 * batch background trace in one ServingEngine::drain — the
 * production mix of latency-sensitive chat traffic sharing a fleet
 * with throughput-oriented batch jobs. The two workloads merge at the
 * injection layer: background rows and the clients' first arrivals
 * submit in one non-decreasing arrival order before the drain, and
 * each client's follow-ups inject mid-drain one think time after its
 * previous completion, exactly as runClosedLoop. Interactive requests
 * are tagged kInteractiveSource, background rows kBatchSource, so the
 * report slices per source (TTFT/goodput for each — the numbers an
 * operator actually wants from a mixed fleet).
 *
 * The background trace may carry session tags (they work as in any
 * open-loop drain) and may be empty (degenerates to a tagged
 * closed-loop run). Deterministic end to end, with the same
 * realized-trace caveats as runClosedLoop. The engine must have no
 * pending requests; its completion hook is used during the run and
 * cleared after.
 */
MixedResult runMixedDrain(ServingEngine &engine,
                          const ClosedLoopOptions &interactive,
                          const ArrivalTrace &background);

// --- Versioned trace files --------------------------------------------------

/**
 * Serialize @p trace in the versioned text format. A trace with no
 * session tags emits v1 — byte-identical to every earlier PR's output:
 *
 *   ianus-arrival-trace v1
 *   <request count>
 *   <arrival_ms> <input_tokens> <output_tokens>      (one per request)
 *
 * A trace with session tags (hasSessions()) emits v2, which appends
 * the session columns:
 *
 *   ianus-arrival-trace v2
 *   <request count>
 *   <arrival_ms> <input_tokens> <output_tokens> \
 *       <session_id> <turn_index> <prefix_tokens>   (one per request)
 *
 * Arrival times print as %.17g, which round-trips IEEE doubles
 * bit-exactly — format(parse(format(t))) == format(t), the golden-file
 * anchor — and the format is platform-independent, so a trace recorded
 * on one machine replays identically on another.
 */
std::string formatTrace(const ArrivalTrace &trace);

/** Parse the text format, either version; v1 rows default to
 *  single-turn (session fields 0). Fatal on a bad header, malformed or
 *  out-of-order rows, a row count that contradicts the header, or v2
 *  session columns that violate the session contract (sessionId 0 with
 *  a non-zero turn/prefix, turn 0 with a non-zero prefix, prefix >=
 *  input, or a session's turn indices not counting 0,1,2,... in row
 *  order). */
ArrivalTrace parseTrace(std::string_view text);

/** formatTrace() to a file; fatal if the file cannot be written. */
void saveTrace(const ArrivalTrace &trace, const std::string &path);

/** parseTrace() from a file; fatal if the file cannot be read. */
ArrivalTrace loadTrace(const std::string &path);

} // namespace ianus::serve

#endif // IANUS_SERVE_TRACE_GEN_HH
