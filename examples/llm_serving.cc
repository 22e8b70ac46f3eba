/**
 * @file
 * Text-generation serving simulation: the paper's motivating datacenter
 * scenario (Section 1/6.1 — non-batched requests with OpenAI-style
 * input:output token ratios), on the serving API.
 *
 * Single-device mode (default) compiles the model once per system
 * (CompiledModel), replays a synthetic request mix through a
 * ServingEngine on IANUS and on NPU-MEM, and prints per-request latency
 * decompositions plus the fleet-level ServingReport.
 *
 * Cluster mode (--replicas N) builds a DevicePool of N IANUS replicas
 * and serves a deterministic workload under the chosen scheduling
 * policy, router, and batching mode, reporting per-replica utilization
 * and batch occupancy alongside the fleet report. The workload is one
 * of: a generated Poisson arrival trace (default), a trace replayed
 * from file (--trace-in), an imported CSV request log (--trace-csv), a
 * non-stationary diurnal day (--rate-profile) or bursty MMPP stream
 * (--burst), or a closed-loop client fleet (--clients N, think time
 * --think-ms) whose arrivals follow completions — optionally mixed
 * over an open-loop batch trace (--background-trace) with per-source
 * report slices; any of these can be recorded with --trace-out for
 * later replay. See docs/SERVING.md for the full option matrix.
 *
 *   ./llm_serving [model] [requests] [slo_ms_per_token] [options]
 *
 * `llm_serving --help` prints every option (the `usage` text below).
 * Usage errors exit 2, simulation errors exit 1.
 *
 * --shards N splits the cluster drain into N independent sub-cluster
 * simulations (serve/sharded_drain.hh) that run on N worker threads
 * and merge deterministically; see docs/PERFORMANCE.md.
 *
 * --roles types each replica for the disaggregated lifecycle (comma
 * list, one of unified|prefill|decode per replica): prefill-typed
 * replicas run prompts only, then hand the KV cache to a decode-typed
 * replica over a link costed at --kv-link-gbs GB/s (0 = derive from
 * the device's PCIe parameters; inf = free). The fleet report then
 * counts transfers and wire time. See docs/SERVING.md.
 *
 * --sessions N generates a multi-turn session workload (N sessions,
 * mean --turns turns each, think time --think-ms between turns; --rate
 * is the session start rate). Later turns share a growing prefix with
 * their predecessors; the engine's prefix cache (--prefix-cache,
 * default on) re-prefills only each turn's delta when the turn lands
 * on the replica still pinning its session KV. Saved/replayed session
 * traces use the "ianus-arrival-trace v2" format (docs/SERVING.md).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "serve/serving_engine.hh"
#include "serve/sharded_drain.hh"
#include "serve/trace_gen.hh"

namespace
{

const char *const usage =
    "usage: llm_serving [model] [requests] [slo_ms_per_token] [options]\n"
    "\n"
    "  model             GPT-2 size: m, l, xl (default) or 2.5b\n"
    "  requests          requests to serve (default 12)\n"
    "  slo_ms_per_token  report SLO in ms per token (default 10)\n"
    "\n"
    "Without --replicas, serves the mix on one IANUS and one NPU-MEM\n"
    "device. Cluster mode (--replicas N) takes:\n"
    "  [--policy fcfs|sjf|edf]\n"
    "  [--router round-robin|least-loaded|queue-depth|\n"
    "            predicted-finish|kv-affinity|slo-budget]\n"
    "  [--roles prefill,decode,...] [--kv-link-gbs G]\n"
    "  [--batching none|static|continuous] [--max-batch B]\n"
    "  [--prefill-chunk T] [--preempt]\n"
    "  [--kv-capacity auto|TOKENS] [--kv-block T]\n"
    "  [--kv-admission none|queue|shed]\n"
    "  [--kv-layout unified|partitioned]\n"
    "  [--rate req_per_s] [--seed S]\n"
    "  [--clients N] [--think-ms T]\n"
    "  [--sessions N] [--turns T] [--prefix-cache on|off]\n"
    "  [--trace-in path] [--trace-out path]\n"
    "  [--trace-csv path] [--rate-profile SPEC]\n"
    "  [--burst BASE:RATIO:ON_MS:OFF_MS:DUR_MS]\n"
    "  [--background-trace path] [--slo MS_PER_TOKEN]\n"
    "  [--shards N]\n"
    "\n"
    "Exit status: 0 on success, 1 on a simulation error, 2 on a usage\n"
    "error. See docs/SERVING.md for the option matrix.\n";

struct Args
{
    std::string model = "xl";
    unsigned requests = 12;
    double slo = 10.0;
    unsigned replicas = 0; ///< 0 = classic single-device comparison
    std::string policy = "fcfs";
    std::string router = "round-robin";
    std::string batching = "none";
    unsigned maxBatch = 1;
    unsigned prefillChunk = 0; ///< prompt tokens per prefill segment
    bool preempt = false;      ///< token-boundary preemption
    std::string kvCapacity;    ///< "" = unbounded; "auto" or tokens
    unsigned kvBlock = 16;     ///< tokens per paged KV block
    std::string kvAdmission = "none";  ///< none | queue | shed
    std::string kvLayout = "unified";  ///< unified | partitioned
    bool kvBlockFlag = false;     ///< --kv-block given explicitly
    bool kvAdmissionFlag = false; ///< --kv-admission given explicitly
    bool kvLayoutFlag = false;    ///< --kv-layout given explicitly
    double rate = 0.0; ///< req/s; 0 = auto (saturate the pool)
    std::uint64_t seed = 7;
    unsigned clients = 0; ///< 0 = open loop; N = closed-loop clients
    double thinkMs = 50.0; ///< mean think time (clients or sessions)
    unsigned sessions = 0; ///< 0 = single-turn; N = multi-turn sessions
    double turns = 4.0;    ///< mean turns per session (--sessions)
    bool prefixCache = true; ///< engine prefix cache for session turns
    unsigned shards = 1;  ///< sub-cluster drains merged deterministically
    std::string traceIn;  ///< replay arrivals from this trace file
    std::string traceOut; ///< record the served arrivals here
    std::string roles;    ///< comma list: unified|prefill|decode each
    double kvLinkGBs = 0.0; ///< KV handoff link; 0 = derive from PCIe
    bool kvLinkFlag = false; ///< --kv-link-gbs given explicitly
    std::string traceCsv;   ///< import a CSV request log as the trace
    std::string rateProfile; ///< diurnal rate-profile spec (trace_gen.hh)
    std::string burst;       ///< bursty MMPP spec BASE:RATIO:ON:OFF:DUR
    std::string backgroundTrace; ///< batch trace under --clients (mixed)
    bool sloFlag = false;    ///< --slo given explicitly (router budget)
};

unsigned
parseCount(const std::string &what, const char *value, long max)
{
    char *end = nullptr;
    long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed < 1 || parsed > max) {
        std::fprintf(stderr,
                     "%s wants an integer in [1, %ld], got '%s'\n",
                     what.c_str(), max, value);
        std::exit(2);
    }
    return static_cast<unsigned>(parsed);
}

double
parsePositive(const std::string &what, const char *value)
{
    char *end = nullptr;
    double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || !(parsed > 0.0)) {
        std::fprintf(stderr, "%s wants a positive number, got '%s'\n",
                     what.c_str(), value);
        std::exit(2);
    }
    return parsed;
}

/** A non-negative double (0 allowed — e.g. think-free clients). */
double
parseNonNegative(const std::string &what, const char *value)
{
    char *end = nullptr;
    double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || !(parsed >= 0.0)) {
        std::fprintf(stderr,
                     "%s wants a non-negative number, got '%s'\n",
                     what.c_str(), value);
        std::exit(2);
    }
    return parsed;
}

/** Like parseCount but admits 0 (= disabled / whole prefill). */
unsigned
parseCountOrZero(const std::string &what, const char *value, long max)
{
    char *end = nullptr;
    long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed < 0 || parsed > max) {
        std::fprintf(stderr,
                     "%s wants an integer in [0, %ld], got '%s'\n",
                     what.c_str(), max, value);
        std::exit(2);
    }
    return static_cast<unsigned>(parsed);
}

std::uint64_t
parseSeed(const std::string &what, const char *value)
{
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(value, &end, 10);
    // strtoull wraps negative input modulo 2^64 instead of failing.
    if (end == value || *end != '\0' || value[0] == '-') {
        std::fprintf(stderr, "%s wants an integer, got '%s'\n",
                     what.c_str(), value);
        std::exit(2);
    }
    return parsed;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    int positional = 0;
    bool cluster_flag = false;
    bool think_flag = false;
    bool turns_flag = false;
    bool prefix_flag = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "-h" || a == "--help") {
            std::fputs(usage, stdout);
            std::exit(0);
        } else if (a == "--replicas")
            args.replicas = parseCount(a, next(), 1024);
        else if (a == "--policy")
            args.policy = next(), cluster_flag = true;
        else if (a == "--router")
            args.router = next(), cluster_flag = true;
        else if (a == "--batching")
            args.batching = next(), cluster_flag = true;
        else if (a == "--max-batch")
            args.maxBatch = parseCount(a, next(), 64),
            cluster_flag = true;
        else if (a == "--prefill-chunk")
            args.prefillChunk = parseCountOrZero(a, next(), 1 << 20),
            cluster_flag = true;
        else if (a == "--preempt")
            args.preempt = true, cluster_flag = true;
        else if (a == "--kv-capacity") {
            args.kvCapacity = next();
            cluster_flag = true;
            if (args.kvCapacity != "auto")
                parseCount(a, args.kvCapacity.c_str(),
                           1L << 40); // validated here, parsed below
        } else if (a == "--kv-block")
            args.kvBlock = parseCount(a, next(), 1 << 20),
            cluster_flag = true, args.kvBlockFlag = true;
        else if (a == "--kv-admission")
            args.kvAdmission = next(), cluster_flag = true,
            args.kvAdmissionFlag = true;
        else if (a == "--kv-layout")
            args.kvLayout = next(), cluster_flag = true,
            args.kvLayoutFlag = true;
        else if (a == "--rate")
            args.rate = parsePositive(a, next()), cluster_flag = true;
        else if (a == "--seed")
            args.seed = parseSeed(a, next()), cluster_flag = true;
        else if (a == "--clients")
            args.clients = parseCount(a, next(), 4096),
            cluster_flag = true;
        else if (a == "--think-ms")
            args.thinkMs = parseNonNegative(a, next()),
            cluster_flag = true, think_flag = true;
        else if (a == "--sessions")
            args.sessions = parseCount(a, next(), 100000),
            cluster_flag = true;
        else if (a == "--turns")
            args.turns = parsePositive(a, next()), cluster_flag = true,
            turns_flag = true;
        else if (a == "--prefix-cache") {
            std::string v = next();
            cluster_flag = true;
            prefix_flag = true;
            if (v == "on")
                args.prefixCache = true;
            else if (v == "off")
                args.prefixCache = false;
            else {
                std::fprintf(stderr,
                             "--prefix-cache wants on or off, got "
                             "'%s'\n",
                             v.c_str());
                std::exit(2);
            }
        } else if (a == "--trace-in")
            args.traceIn = next(), cluster_flag = true;
        else if (a == "--trace-out")
            args.traceOut = next(), cluster_flag = true;
        else if (a == "--shards")
            args.shards = parseCount(a, next(), 1024),
            cluster_flag = true;
        else if (a == "--roles")
            args.roles = next(), cluster_flag = true;
        else if (a == "--kv-link-gbs") {
            std::string v = next();
            cluster_flag = true;
            args.kvLinkFlag = true;
            // "inf" models a free link (transfers cost exactly 0 ms).
            args.kvLinkGBs =
                v == "inf" ? std::numeric_limits<double>::infinity()
                           : parseNonNegative(a, v.c_str());
        }
        else if (a == "--trace-csv")
            args.traceCsv = next(), cluster_flag = true;
        else if (a == "--rate-profile")
            args.rateProfile = next(), cluster_flag = true;
        else if (a == "--burst")
            args.burst = next(), cluster_flag = true;
        else if (a == "--background-trace")
            args.backgroundTrace = next(), cluster_flag = true;
        else if (a == "--slo")
            args.slo = parsePositive(a, next()), cluster_flag = true,
            args.sloFlag = true;
        else if (positional == 0)
            args.model = a, ++positional;
        else if (positional == 1)
            args.requests = parseCount("request count", a.c_str(), 100000),
            ++positional;
        else if (positional == 2)
            args.slo = parsePositive("slo_ms_per_token", a.c_str()),
            ++positional;
        else {
            std::fprintf(stderr, "unexpected argument %s\n", a.c_str());
            std::exit(2);
        }
    }
    try {
        ianus::workloads::gpt2(args.model);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\nsee llm_serving --help\n", e.what());
        std::exit(2);
    }
    if (cluster_flag && args.replicas == 0) {
        std::fprintf(stderr,
                     "--policy/--router/--batching/--max-batch/"
                     "--prefill-chunk/--preempt/--kv-capacity/"
                     "--kv-block/--kv-admission/--kv-layout/--rate/"
                     "--seed/--clients/--think-ms/--sessions/--turns/"
                     "--prefix-cache/--trace-in/--trace-out/"
                     "--shards/--roles/--kv-link-gbs/--trace-csv/"
                     "--rate-profile/--burst/--background-trace/--slo "
                     "only apply to cluster mode; add --replicas N\n");
        std::exit(2);
    }
    if (args.sessions > 0 && args.clients > 0) {
        std::fprintf(stderr,
                     "--sessions generates an open-loop multi-turn "
                     "trace; --clients generates closed-loop arrivals "
                     "— use one or the other\n");
        std::exit(2);
    }
    if (args.sessions > 0 && !args.traceIn.empty()) {
        std::fprintf(stderr,
                     "--trace-in replays a recorded trace (session "
                     "tags included if it is v2); --sessions generates "
                     "a fresh one — use one or the other\n");
        std::exit(2);
    }
    if (turns_flag && args.sessions == 0) {
        std::fprintf(stderr, "--turns is a session-workload knob; add "
                             "--sessions N\n");
        std::exit(2);
    }
    if (turns_flag && args.turns < 1.0) {
        std::fprintf(stderr, "--turns wants a mean of at least 1 turn "
                             "per session\n");
        std::exit(2);
    }
    if (prefix_flag && args.replicas == 0) {
        std::fprintf(stderr, "--prefix-cache is a cluster-mode knob; "
                             "add --replicas N\n");
        std::exit(2);
    }
    if (args.sessions > 0 && think_flag && args.thinkMs <= 0.0) {
        std::fprintf(stderr, "--sessions needs a positive --think-ms "
                             "(the gap between a turn's completion-"
                             "sized arrival and the next)\n");
        std::exit(2);
    }
    if (args.kvCapacity.empty() &&
        (args.kvBlockFlag || args.kvAdmissionFlag || args.kvLayoutFlag)) {
        std::fprintf(stderr,
                     "--kv-block/--kv-admission/--kv-layout shape the KV "
                     "capacity model; nothing bounds KV without "
                     "--kv-capacity auto|TOKENS\n");
        std::exit(2);
    }
    if (args.kvAdmission == "shed" && args.clients > 0) {
        std::fprintf(stderr,
                     "--kv-admission shed drops requests, but "
                     "closed-loop clients wait for completions that "
                     "would never come; use queue or none with "
                     "--clients\n");
        std::exit(2);
    }
    if (!args.traceIn.empty() && args.clients > 0) {
        std::fprintf(stderr,
                     "--trace-in replays recorded arrivals; --clients "
                     "generates its own from completions — use one or "
                     "the other\n");
        std::exit(2);
    }
    if (think_flag && args.clients == 0 && args.sessions == 0) {
        std::fprintf(stderr, "--think-ms is a closed-loop client or "
                             "session-workload knob; add --clients N "
                             "or --sessions N\n");
        std::exit(2);
    }
    if (args.clients > 0 && args.rate > 0.0) {
        std::fprintf(stderr, "--rate has no effect with --clients "
                             "(closed-loop arrivals follow "
                             "completions)\n");
        std::exit(2);
    }
    if (!args.traceIn.empty() && args.rate > 0.0) {
        std::fprintf(stderr, "--rate has no effect with --trace-in "
                             "(the file fixes the arrivals)\n");
        std::exit(2);
    }
    if (args.shards > 1 && args.clients > 0) {
        std::fprintf(stderr,
                     "--shards partitions an open-loop trace; "
                     "closed-loop clients are cross-shard feedback — "
                     "drop --clients or --shards\n");
        std::exit(2);
    }
    if (args.shards > args.replicas && args.replicas > 0) {
        std::fprintf(stderr,
                     "--shards %u cannot exceed --replicas %u (each "
                     "shard owns at least one replica)\n",
                     args.shards, args.replicas);
        std::exit(2);
    }
    if (args.kvLinkFlag && args.roles.empty()) {
        std::fprintf(stderr,
                     "--kv-link-gbs prices the prefill->decode KV "
                     "handoff; nothing transfers without --roles\n");
        std::exit(2);
    }
    if (!args.roles.empty() && args.batching == "static") {
        std::fprintf(stderr,
                     "--roles needs --batching none or continuous "
                     "(a sealed static batch cannot migrate mid-"
                     "request)\n");
        std::exit(2);
    }
    if (args.preempt && args.batching == "static") {
        std::fprintf(stderr, "--preempt cannot evict from a sealed "
                             "static batch; use --batching none or "
                             "continuous\n");
        std::exit(2);
    }
    if (args.maxBatch > 1 && args.batching == "none") {
        std::fprintf(stderr, "--max-batch %u needs --batching static or "
                             "continuous\n",
                     args.maxBatch);
        std::exit(2);
    }
    if (args.maxBatch == 1 && args.batching != "none") {
        // The engine treats max batch 1 as the legacy batch-1 path in
        // any mode; don't let a report claim batching that never ran.
        std::fprintf(stderr, "--batching %s needs --max-batch B with "
                             "B >= 2 (batch 1 is the unbatched path; "
                             "use --batching none)\n",
                     args.batching.c_str());
        std::exit(2);
    }
    // At most one workload selector: each of these picks where the
    // arrivals come from, so combining them would silently ignore one.
    {
        struct Selector
        {
            const char *flag;
            bool set;
        };
        const Selector sel[] = {
            {"--trace-in", !args.traceIn.empty()},
            {"--trace-csv", !args.traceCsv.empty()},
            {"--rate-profile", !args.rateProfile.empty()},
            {"--burst", !args.burst.empty()},
            {"--sessions", args.sessions > 0},
            {"--clients", args.clients > 0},
        };
        const Selector *chosen = nullptr;
        for (const Selector &s : sel) {
            if (!s.set)
                continue;
            if (chosen) {
                std::fprintf(stderr,
                             "%s and %s each pick the workload; use "
                             "one or the other\n",
                             chosen->flag, s.flag);
                std::exit(2);
            }
            chosen = &s;
        }
    }
    if (args.rate > 0.0 &&
        (!args.traceCsv.empty() || !args.rateProfile.empty() ||
         !args.burst.empty())) {
        std::fprintf(stderr,
                     "--rate has no effect with --trace-csv/"
                     "--rate-profile/--burst (they fix the arrival "
                     "process)\n");
        std::exit(2);
    }
    if (!args.backgroundTrace.empty() && args.clients == 0) {
        std::fprintf(stderr,
                     "--background-trace layers a batch trace under a "
                     "closed-loop client fleet; add --clients N\n");
        std::exit(2);
    }
    if (args.sloFlag && args.router != "slo-budget" &&
        args.router != "slo") {
        std::fprintf(stderr,
                     "--slo sets the slo-budget router's deadline "
                     "budget; router '%s' never reads it — use "
                     "--router slo-budget, or set the report SLO via "
                     "the slo_ms_per_token positional\n",
                     args.router.c_str());
        std::exit(2);
    }
    return args;
}

/** "prefill,decode,unified" -> roles, one per replica. */
std::vector<ianus::serve::ReplicaRole>
parseRoles(const std::string &list, unsigned replicas)
{
    using ianus::serve::ReplicaRole;
    std::vector<ReplicaRole> roles;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        try {
            roles.push_back(ianus::serve::makeReplicaRole(
                list.substr(start, comma - start)));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "--roles: %s\n", e.what());
            std::exit(2);
        }
        start = comma + 1;
    }
    if (roles.size() != replicas) {
        std::fprintf(stderr,
                     "--roles lists %zu roles for %u replicas (one "
                     "per replica, comma-separated)\n",
                     roles.size(), replicas);
        std::exit(2);
    }
    return roles;
}

ianus::serve::ServingReport
replay(const ianus::serve::CompiledModel &model,
       const std::vector<ianus::workloads::InferenceRequest> &mix,
       double slo_ms)
{
    ianus::serve::ServingOptions opts;
    opts.sloMsPerToken = slo_ms;
    opts.tokenStride = 8;
    ianus::serve::ServingEngine engine(model, opts);
    for (const auto &req : mix)
        engine.submit(req);
    return engine.drain();
}

/** The classic PR-1 output: one device, IANUS vs NPU-MEM. */
int
singleDeviceMode(const Args &args)
{
    using namespace ianus;
    workloads::ModelConfig model = workloads::gpt2(args.model);
    std::printf("serving mix on %s, batch 1 (datacenter non-batched "
                "regime)\n\n",
                model.describe().c_str());

    // Synthetic mix: prompt sizes and completion lengths from the
    // paper's evaluation ranges — the single source is the
    // TraceOptions defaults (also used by bench/micro_compile_cache.cc).
    std::mt19937 rng(7);
    const serve::TraceOptions shapes;
    const auto &ins = shapes.inputTokenChoices;
    const auto &outs = shapes.outputTokenChoices;
    std::vector<workloads::InferenceRequest> mix;
    for (unsigned i = 0; i < args.requests; ++i)
        mix.push_back({ins[rng() % ins.size()],
                       outs[rng() % outs.size()]});

    // Compile once per system; the ServingEngine replays the whole mix
    // against the cached programs.
    serve::CompiledModel ianus_model(SystemConfig::ianusDefault(), model);
    serve::CompiledModel npu_model(SystemConfig::npuMem(), model);

    serve::ServingReport ianus_rep = replay(ianus_model, mix, args.slo);
    serve::ServingReport npu_rep = replay(npu_model, mix, args.slo);

    std::printf("%-10s %-10s %12s %14s %12s\n", "request", "system",
                "total(ms)", "first-token", "ms/token");
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const serve::RequestResult &ir = ianus_rep.results[i];
        const serve::RequestResult &nr = npu_rep.results[i];
        char tag[32];
        std::snprintf(tag, sizeof(tag), "(%llu,%llu)",
                      (unsigned long long)ir.request.inputTokens,
                      (unsigned long long)ir.request.outputTokens);
        std::printf("%-10s %-10s %12.1f %14.1f %12.2f\n", tag, "IANUS",
                    ir.totalMs(), ir.firstTokenMs, ir.msPerToken);
        std::printf("%-10s %-10s %12.1f %14.1f %12.2f\n", "", "NPU-MEM",
                    nr.totalMs(), nr.firstTokenMs, nr.msPerToken);
    }
    std::printf("\n");
    std::printf("IANUS    %s\n", ianus_rep.summary().c_str());
    std::printf("NPU-MEM  %s\n", npu_rep.summary().c_str());
    std::printf("\nprogram cache: IANUS compiled %llu programs for %zu "
                "requests (%llu cache hits)\n",
                (unsigned long long)ianus_model.cacheStats().builds(),
                mix.size(),
                (unsigned long long)ianus_model.cacheStats().hits());
    return 0;
}

/** Cluster mode: a DevicePool under an open-loop trace (generated or
 *  replayed from file) or a closed-loop client fleet. */
int
clusterMode(const Args &args)
{
    using namespace ianus;
    workloads::ModelConfig model = workloads::gpt2(args.model);

    serve::PoolOptions pool_opts;
    pool_opts.replicas = args.replicas;
    serve::DevicePool pool(SystemConfig::ianusDefault(), model,
                           pool_opts);

    std::printf("cluster serving on %s: %u replicas, policy %s, "
                "router %s, batching %s (max %u)%s",
                model.describe().c_str(), args.replicas,
                args.policy.c_str(), args.router.c_str(),
                args.batching.c_str(), args.maxBatch,
                args.preempt ? ", preemption on" : "");
    if (args.prefillChunk > 0)
        std::printf(", prefill chunk %u", args.prefillChunk);
    std::printf("\n");

    serve::ServingOptions opts;
    opts.sloMsPerToken = args.slo;
    opts.tokenStride = 8;
    opts.batching = serve::makeBatchingMode(args.batching);
    opts.maxBatch = args.maxBatch;
    opts.prefillChunk = args.prefillChunk;
    opts.preempt = args.preempt;
    opts.prefixCache = args.prefixCache;
    if (!args.roles.empty()) {
        opts.roles = parseRoles(args.roles, args.replicas);
        opts.kvLinkGBs = args.kvLinkGBs;
        std::printf("disaggregated lifecycle: roles");
        for (std::size_t i = 0; i < opts.roles.size(); ++i)
            std::printf("%s %s", i ? "," : "",
                        serve::toString(opts.roles[i]));
        if (args.kvLinkGBs == 0.0)
            std::printf(" | kv link derived from PCIe\n");
        else
            std::printf(" | kv link %.2f GB/s\n", args.kvLinkGBs);
    }
    if (!args.kvCapacity.empty()) {
        // "auto" derives the per-replica budget from the device's DRAM
        // channel geometry minus one copy of the weights.
        opts.kv.capacityTokens =
            args.kvCapacity == "auto"
                ? serve::deriveKvCapacityTokens(
                      SystemConfig::ianusDefault(), model)
                : std::strtoull(args.kvCapacity.c_str(), nullptr, 10);
        opts.kv.blockTokens = args.kvBlock;
        opts.kv.admission = serve::makeKvAdmission(args.kvAdmission);
        opts.kv.layout = serve::makeKvLayout(args.kvLayout);
        std::printf("kv capacity %llu tokens/replica (%llu-token blocks, "
                    "admission %s, layout %s, %.1f GB/s kv reads)\n",
                    (unsigned long long)opts.kv.capacityTokens,
                    (unsigned long long)opts.kv.blockTokens,
                    serve::toString(opts.kv.admission),
                    serve::toString(opts.kv.layout),
                    serve::KvBlockManager::readBandwidthGBs(
                        SystemConfig::ianusDefault(), opts.kv.layout));
    }
    serve::ServingEngine engine(pool, opts,
                                serve::makePolicy(args.policy),
                                serve::makeRouter(args.router,
                                                  args.slo));

    serve::ServingReport rep;
    serve::ArrivalTrace trace; // served (or realized) arrivals

    // Open-loop drains can split into --shards independent sub-cluster
    // simulations with a deterministic merge (docs/PERFORMANCE.md).
    auto serveTrace = [&]() {
        if (args.shards > 1) {
            serve::ShardOptions sh;
            sh.shards = args.shards;
            // Shard s owns replicas [s*R/S, (s+1)*R/S).
            std::string sizes;
            for (unsigned s = 0; s < args.shards; ++s)
                sizes += (s ? ", " : "") +
                         std::to_string((s + 1) * args.replicas / args.shards -
                                        s * args.replicas / args.shards);
            std::printf("sharded drain: %u sub-clusters (%s replicas), "
                        "one worker thread each\n\n",
                        args.shards, sizes.c_str());
            rep = serve::drainSharded(
                pool, opts, trace, sh,
                [&] { return serve::makePolicy(args.policy); },
                [&] {
                    return serve::makeRouter(args.router, args.slo);
                });
            return;
        }
        serve::submitAll(trace, engine);
        rep = engine.drain();
    };

    if (args.clients > 0 && !args.backgroundTrace.empty()) {
        // Mixed drain: closed-loop interactive clients over an
        // open-loop batch background trace, merged at the injection
        // layer; the report slices per source below.
        serve::ClosedLoopOptions copts;
        copts.seed = args.seed;
        copts.clients = args.clients;
        copts.requestsPerClient =
            (args.requests + args.clients - 1) / args.clients;
        copts.meanThinkMs = args.thinkMs;
        serve::ArrivalTrace background =
            serve::loadTrace(args.backgroundTrace);
        std::printf("mixed drain: %u interactive clients x %zu requests "
                    "(mean think %.1f ms, seed %llu) over %zu batch "
                    "background requests from %s\n\n",
                    args.clients, copts.requestsPerClient, args.thinkMs,
                    (unsigned long long)args.seed, background.size(),
                    args.backgroundTrace.c_str());
        serve::MixedResult res =
            serve::runMixedDrain(engine, copts, background);
        rep = std::move(res.report);
        trace = std::move(res.realizedInteractive);
        std::printf("realized interactive: %zu arrivals over %.1f "
                    "ms\n\n",
                    trace.size(), trace.horizonMs());
    } else if (args.clients > 0) {
        // Closed loop: arrivals follow completions, so the offered
        // load throttles itself to what the pool sustains.
        serve::ClosedLoopOptions copts;
        copts.seed = args.seed;
        copts.clients = args.clients;
        copts.requestsPerClient =
            (args.requests + args.clients - 1) / args.clients;
        copts.meanThinkMs = args.thinkMs;
        std::printf("closed loop: %u clients x %zu requests, mean think "
                    "%.1f ms (seed %llu)\n\n",
                    args.clients, copts.requestsPerClient, args.thinkMs,
                    (unsigned long long)args.seed);
        serve::ClosedLoopResult res = serve::runClosedLoop(engine, copts);
        rep = std::move(res.report);
        trace = std::move(res.realized);
        std::printf("realized: %zu arrivals over %.1f ms\n\n",
                    trace.size(), trace.horizonMs());
    } else if (args.sessions > 0) {
        serve::SessionOptions sopts;
        sopts.seed = args.seed;
        sopts.sessions = args.sessions;
        sopts.meanTurns = args.turns;
        sopts.meanThinkMs = args.thinkMs;
        if (args.rate > 0.0)
            sopts.sessionsPerSec = args.rate;
        trace = serve::generateSessionTrace(sopts);
        std::printf("sessions: %u sessions, mean %.1f turns, think "
                    "%.1f ms, %.1f sessions/s (seed %llu) -> %zu "
                    "turns, horizon %.1f ms | prefix cache %s\n\n",
                    args.sessions, args.turns, args.thinkMs,
                    sopts.sessionsPerSec,
                    (unsigned long long)args.seed, trace.size(),
                    trace.horizonMs(),
                    args.prefixCache ? "on" : "off");
        serveTrace();
    } else if (!args.traceIn.empty()) {
        trace = serve::loadTrace(args.traceIn);
        std::printf("trace: %zu requests replayed from %s%s, horizon "
                    "%.1f ms\n\n",
                    trace.size(), args.traceIn.c_str(),
                    trace.hasSessions() ? " (session-tagged v2)" : "",
                    trace.horizonMs());
        serveTrace();
    } else if (!args.traceCsv.empty()) {
        trace = serve::loadRequestLog(args.traceCsv);
        std::printf("request log: %zu rows imported from %s%s, horizon "
                    "%.1f ms\n\n",
                    trace.size(), args.traceCsv.c_str(),
                    trace.hasSessions() ? " (session-tagged)" : "",
                    trace.horizonMs());
        serveTrace();
    } else if (!args.rateProfile.empty()) {
        serve::DiurnalOptions dopts;
        dopts.seed = args.seed;
        dopts.profile = serve::parseRateProfile(args.rateProfile);
        trace = serve::generateDiurnalTrace(dopts);
        std::printf("diurnal trace: profile %s (peak %.1f req/s, seed "
                    "%llu) -> %zu requests, horizon %.1f ms\n\n",
                    args.rateProfile.c_str(), dopts.profile.peakRate(),
                    (unsigned long long)args.seed, trace.size(),
                    trace.horizonMs());
        serveTrace();
    } else if (!args.burst.empty()) {
        serve::BurstyOptions bopts;
        bopts.seed = args.seed;
        double base = 0.0, ratio = 0.0, on = 0.0, off = 0.0, dur = 0.0;
        char tail = '\0';
        if (std::sscanf(args.burst.c_str(), "%lf:%lf:%lf:%lf:%lf%c",
                        &base, &ratio, &on, &off, &dur, &tail) != 5) {
            std::fprintf(stderr,
                         "--burst wants BASE:RATIO:ON_MS:OFF_MS:DUR_MS "
                         "(e.g. 20:5:2000:8000:60000), got '%s'\n",
                         args.burst.c_str());
            return 2;
        }
        bopts.baseRate = base;
        bopts.burstRateRatio = ratio;
        bopts.meanBurstMs = on;
        bopts.meanGapMs = off;
        bopts.durationMs = dur;
        trace = serve::generateBurstyTrace(bopts);
        std::printf("bursty trace: base %.1f req/s x%.1f bursts "
                    "(mean on %.0f ms, off %.0f ms) over %.0f ms "
                    "(seed %llu) -> %zu requests\n\n",
                    base, ratio, on, off, dur,
                    (unsigned long long)args.seed, trace.size());
        serveTrace();
    } else {
        // Auto rate: offer ~2x the pool's single-request service rate
        // so the cluster stays busy without the queue diverging
        // unboundedly.
        double rate = args.rate;
        if (rate <= 0.0) {
            double svc_ms = pool.replica(0).run({256, 16}, 8).totalMs();
            rate = 2.0 * static_cast<double>(args.replicas) * 1000.0 /
                   svc_ms;
        }
        serve::TraceOptions trace_opts;
        trace_opts.seed = args.seed;
        trace_opts.requests = args.requests;
        trace_opts.arrivalsPerSec = rate;
        trace = serve::generatePoissonTrace(trace_opts);
        std::printf("trace: %zu requests, %.1f req/s Poisson (seed "
                    "%llu), horizon %.1f ms\n\n",
                    trace.size(), rate, (unsigned long long)args.seed,
                    trace.horizonMs());
        serveTrace();
    }

    if (!args.traceOut.empty()) {
        serve::saveTrace(trace, args.traceOut);
        std::printf("saved %zu arrivals to %s (replay with "
                    "--trace-in)\n\n",
                    trace.size(), args.traceOut.c_str());
    }

    std::printf("%-8s %10s %12s %12s %8s\n", "replica", "dispatched",
                "busy(ms)", "idle(ms)", "util");
    for (std::size_t d = 0; d < rep.replicas.size(); ++d) {
        const serve::ReplicaUtilization &u = rep.replicas[d];
        std::printf("%-8zu %10llu %12.1f %12.1f %7.1f%%\n", d,
                    (unsigned long long)u.dispatched, u.busyMs, u.idleMs,
                    100.0 * u.utilization);
    }
    std::printf("\nfleet    %s\n", rep.summary().c_str());
    std::printf("ttft p50/p99 %.1f/%.1f ms | service p50/p99 "
                "%.1f/%.1f ms | deadline miss %.1f%%\n",
                rep.ttftPercentile(50), rep.ttftPercentile(99),
                rep.serviceTimePercentile(50),
                rep.serviceTimePercentile(99),
                100.0 * rep.deadlineMissRate());
    if (opts.batching != serve::BatchingMode::None)
        std::printf("batch occupancy %.2f (token-weighted mean over "
                    "generation steps)\n",
                    rep.meanBatchOccupancy());
    if (opts.preempt)
        std::printf("preemption: %llu evictions, %.1f%% of requests "
                    "preempted at least once\n",
                    (unsigned long long)rep.preemptions(),
                    100.0 * rep.preemptionRate());
    if (opts.kv.enabled())
        std::printf("kv: peak pressure %.2f | fragmentation %.1f%% | "
                    "shed %llu (%.1f%% of offered) | spilled segments "
                    "%llu (max dilation %.2fx) | slo-goodput %.1f "
                    "tok/s\n",
                    rep.kvPeakPressure, 100.0 * rep.kvMeanFragmentation,
                    (unsigned long long)rep.kvShed,
                    100.0 * rep.kvShedRate(),
                    (unsigned long long)rep.kvSpilledSegments,
                    rep.kvMaxDilation, rep.sloGoodputTokensPerSec());
    if (rep.kvTransfers > 0)
        std::printf("kv handoff: %llu transfers | %.3f GB over the "
                    "link | %.1f ms wire time | slo-goodput %.1f "
                    "tok/s\n",
                    (unsigned long long)rep.kvTransfers,
                    rep.kvTransferGB, rep.kvTransferMs,
                    rep.sloGoodputTokensPerSec());
    if (trace.hasSessions())
        std::printf("sessions: %zu served | prefix hit rate %.1f%% "
                    "(%llu hits, %llu misses) | prefill tokens saved "
                    "%llu | session latency p50/p95 %.1f/%.1f ms\n",
                    rep.sessions(), 100.0 * rep.prefixHitRate(),
                    (unsigned long long)rep.prefixHits,
                    (unsigned long long)rep.prefixMisses,
                    (unsigned long long)rep.prefillTokensSaved,
                    rep.sessionLatencyPercentile(50),
                    rep.sessionLatencyPercentile(95));
    std::vector<serve::SourceSlice> slices = rep.sourceSlices();
    if (slices.size() > 1) {
        std::printf("\n%-12s %9s %10s %14s %14s %9s %9s\n", "source",
                    "requests", "tokens", "ttft p50/p95", "lat p50/p95",
                    "slo miss", "goodput");
        for (const serve::SourceSlice &s : slices) {
            const char *name =
                s.source == serve::kInteractiveSource ? "interactive"
                : s.source == serve::kBatchSource     ? "batch"
                                                      : "untagged";
            std::printf("%-12s %9zu %10llu %6.1f/%-7.1f %6.1f/%-7.1f "
                        "%8.1f%% %9.1f\n",
                        name, s.requests,
                        (unsigned long long)s.generatedTokens,
                        s.ttftP50Ms, s.ttftP95Ms, s.latencyP50Ms,
                        s.latencyP95Ms, 100.0 * s.sloMissRate,
                        s.goodputTokensPerSec);
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        return args.replicas > 0 ? clusterMode(args)
                                 : singleDeviceMode(args);
    } catch (const std::exception &e) {
        // A fatal error (IANUS_FATAL) the flags did not rule out, such
        // as an unreadable trace file: report it instead of aborting.
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
