/** @file Example command lines: every rejected llm_serving flag
 *  combination must exit 2 with a usage message on stderr, not start a
 *  simulation; a fatal simulation error exits 1 with its message, and
 *  --help exits 0. The other examples (quickstart,
 *  design_space_explorer, bert_qa_throughput, pim_microcode_trace)
 *  keep the same exit-status contract, the benches with a CI floor
 *  reject a bad --floor the same way, and every bench rejects an
 *  argument it does not know. The tests run the real binaries (paths
 *  baked in as <NAME>_BIN) so the parse-and-validate layer is
 *  exercised end to end. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>

namespace
{

#if !defined(LLM_SERVING_BIN) || !defined(QUICKSTART_BIN) ||             \
    !defined(DESIGN_SPACE_EXPLORER_BIN) ||                                 \
    !defined(BERT_QA_THROUGHPUT_BIN) || !defined(PIM_MICROCODE_TRACE_BIN) || \
    !defined(MICRO_COMPILE_CACHE_BIN) ||                                   \
    !defined(MICRO_SERVING_THROUGHPUT_BIN) || !defined(MICRO_DISAGG_BIN) || \
    !defined(SWEEP_FLEET_BIN)
#error "<NAME>_BIN must name each example and each bench tested here"
#endif

/** Run `<binary> <args>`, capturing stdout and, with @p with_stderr,
 *  stderr too; returns the exit code and fills @p output. */
int
runExample(const char *binary, const std::string &args,
           std::string &output, bool with_stderr = true)
{
    const std::string cmd = std::string(binary) + " " + args +
                            (with_stderr ? " 2>&1" : " 2>/dev/null");
    std::FILE *pipe = ::popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (!pipe)
        return -1;
    output.clear();
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe))
        output += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** runExample() on llm_serving. */
int
runCli(const std::string &args, std::string &output,
       bool with_stderr = true)
{
    return runExample(LLM_SERVING_BIN, args, output, with_stderr);
}

void
expectUsageError(const std::string &args, const std::string &needle)
{
    std::string out;
    const int code = runCli(args, out);
    EXPECT_EQ(code, 2) << "args: " << args << "\noutput: " << out;
    EXPECT_NE(out.find(needle), std::string::npos)
        << "args: " << args << "\nwanted '" << needle
        << "' in:\n" << out;
}

TEST(CliValidation, RateRejectsZeroAndNegatives)
{
    expectUsageError("m 4 --replicas 2 --rate 0", "--rate");
    expectUsageError("m 4 --replicas 2 --rate -3", "--rate");
    expectUsageError("m 4 --replicas 2 --rate nope", "--rate");
}

TEST(CliValidation, SloFlagNeedsTheSloBudgetRouter)
{
    expectUsageError("m 4 --replicas 2 --slo 5", "slo-budget");
    expectUsageError(
        "m 4 --replicas 2 --router least-loaded --slo 5", "slo-budget");
}

TEST(CliValidation, WorkloadSelectorsAreMutuallyExclusive)
{
    expectUsageError("m 4 --replicas 2 --trace-in t --trace-csv c",
                     "pick the workload");
    expectUsageError("m 4 --replicas 2 --trace-csv c --rate-profile "
                     "const:5:1000",
                     "pick the workload");
    expectUsageError("m 4 --replicas 2 --rate-profile const:5:1000 "
                     "--burst 20:5:1:1:1",
                     "pick the workload");
    expectUsageError("m 4 --replicas 2 --burst 20:5:1:1:1 --clients 2",
                     "pick the workload");
    expectUsageError("m 4 --replicas 2 --trace-csv c --sessions 2",
                     "pick the workload");
}

TEST(CliValidation, RateConflictsWithTheGeneratorKnobs)
{
    expectUsageError("m 4 --replicas 2 --trace-csv c --rate 5",
                     "--rate");
    expectUsageError(
        "m 4 --replicas 2 --rate-profile const:5:1000 --rate 5",
        "--rate");
    expectUsageError("m 4 --replicas 2 --burst 20:5:1:1:1 --rate 5",
                     "--rate");
}

TEST(CliValidation, BackgroundTraceNeedsClients)
{
    expectUsageError("m 4 --replicas 2 --background-trace t",
                     "--clients");
}

TEST(CliValidation, NewFlagsAreClusterModeOnly)
{
    // Without --replicas the cluster-only flags must be rejected, not
    // silently ignored in single-device mode.
    expectUsageError("m 4 --trace-csv c", "--replicas");
    expectUsageError("m 4 --rate-profile const:5:1000", "--replicas");
    expectUsageError("m 4 --burst 20:5:1:1:1", "--replicas");
    expectUsageError("m 4 --background-trace t", "--replicas");
    expectUsageError("m 4 --slo 5", "--replicas");
}

TEST(CliValidation, MalformedSpecsFailBeforeServing)
{
    // A bad profile spec dies in parseRateProfile (IANUS_FATAL), a bad
    // burst spec in the CLI's own validation — either way the process
    // must fail loudly before simulating anything.
    std::string out;
    EXPECT_NE(runCli("m 4 --replicas 2 --rate-profile ramp:1:2", out), 0)
        << out;
    EXPECT_NE(out.find("rate profile"), std::string::npos) << out;
    EXPECT_EQ(runCli("m 4 --replicas 2 --burst 20:5", out), 2) << out;
    EXPECT_NE(out.find("--burst"), std::string::npos) << out;
}

TEST(CliValidation, HelpPrintsUsageToStdout)
{
    for (const char *flag : {"--help", "-h", "m 4 --replicas 2 --help"}) {
        std::string out;
        EXPECT_EQ(runCli(flag, out, false), 0) << flag << "\n" << out;
        EXPECT_NE(out.find("usage: llm_serving"), std::string::npos)
            << flag << "\n" << out;
        EXPECT_NE(out.find("--replicas"), std::string::npos) << out;
    }
}

TEST(CliValidation, UnknownModelSizeIsAUsageError)
{
    expectUsageError("nope 4", "unknown GPT-2 size 'nope'");
    expectUsageError("3b 4 --replicas 2", "unknown GPT-2 size '3b'");
}

TEST(CliValidation, FatalErrorsExitOneWithTheirMessage)
{
    std::string out;
    EXPECT_EQ(runCli("m 4 --replicas 2 --trace-in /nonexistent/trace",
                     out),
              1)
        << out;
    EXPECT_NE(out.find("cannot open arrival trace"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("terminate called"), std::string::npos) << out;
    EXPECT_EQ(runCli("m 4 --replicas 2 --rate-profile ramp:1:2", out), 1)
        << out;
    EXPECT_NE(out.find("rate profile"), std::string::npos) << out;
}

// --- Session drains that once lost turns ------------------------------------

/** The count printed right after @p needle in @p out, or -1. */
long long
countAfter(const std::string &out, const std::string &needle)
{
    const std::size_t at = out.find(needle);
    return at == std::string::npos
               ? -1
               : std::atoll(out.c_str() + at + needle.size());
}

/** `llm_serving <args>` exits 0 having offered @p turns session turns
 *  and completed or shed every one of them; returns its output. */
std::string
expectEveryTurnAccounted(const std::string &args, long long turns)
{
    std::string out;
    EXPECT_EQ(runCli(args, out), 0) << args << "\n" << out;
    EXPECT_EQ(countAfter(out, "-> "), turns) << out;
    EXPECT_EQ(countAfter(out, "\nfleet    ") + countAfter(out, "| shed "),
              turns)
        << out;
    return out;
}

// The sharded banner names the partition drainSharded runs: shard s
// owns replicas [s*R/S, (s+1)*R/S), so 4 replicas in 3 shards are 1, 1
// and 2, not three shards of one.
TEST(CliValidation, ShardedBannerNamesEachShardsReplicas)
{
    std::string out;
    EXPECT_EQ(runCli("m 40 --replicas 4 --shards 3", out), 0) << out;
    EXPECT_NE(out.find("sharded drain: 3 sub-clusters (1, 1, 2 replicas)"),
              std::string::npos)
        << out;
}

// Session drains with typed roles, the prefix cache and a KV capacity
// used to park KV handoffs behind session pins that no reclaim could
// drop, and lost turns (a lossy drain is fatal, exit 1). A handoff now
// reclaims pins by the same rule as any admission before it parks.
// Here the decode side is a unified replica.
TEST(CliValidation, UnifiedDecodeSessionDrainServesEveryTurn)
{
    const std::string out = expectEveryTurnAccounted(
        "m 30 10 --replicas 3 --seed 518 "
        "--roles prefill,unified,prefill --policy sjf "
        "--router slo-budget --kv-capacity 4000 --kv-admission queue "
        "--sessions 60 --prefix-cache on --rate 5",
        181);
    EXPECT_EQ(countAfter(out, "\nfleet    "), 181) << out;
    EXPECT_NE(out.find("sessions: 60 served"), std::string::npos) << out;
}

// Shed admission drops turns on purpose; no other turn may vanish.
TEST(CliValidation, ShedSessionDrainAccountsForEveryTurn)
{
    const std::string out = expectEveryTurnAccounted(
        "m 60 10 --replicas 2 --seed 368 --roles unified,prefill "
        "--policy fcfs --router round-robin --prefill-chunk 32 "
        "--kv-capacity 2000 --kv-admission shed --sessions 60 "
        "--prefix-cache on --rate 200",
        187);
    EXPECT_GT(countAfter(out, "| shed "), 0) << out;
}

// Two prefill and two decode replicas at 1x the derived KV capacity.
TEST(CliValidation, DecodeRoleSessionDrainServesEveryTurn)
{
    const std::string out = expectEveryTurnAccounted(
        "m 1 10 --replicas 4 --roles prefill,prefill,decode,decode "
        "--sessions 2000 --rate 20 --kv-capacity auto "
        "--kv-admission queue --router kv-affinity",
        5868);
    EXPECT_EQ(countAfter(out, "\nfleet    "), 5868) << out;
}

// Prefix hits hand off to the decode replica holding their session's
// pin; with the KV full there, the handoff must reclaim other pins.
TEST(CliValidation, ClaimedPinHandoffSessionDrainServesEveryTurn)
{
    const std::string out = expectEveryTurnAccounted(
        "m 30 10 --replicas 3 --seed 554 --roles prefill,decode,decode "
        "--policy sjf --router kv-affinity --kv-capacity 1500 "
        "--kv-admission queue --sessions 60 --prefix-cache on --rate 5 "
        "--batching continuous --max-batch 4",
        156);
    EXPECT_EQ(countAfter(out, "\nfleet    "), 156) << out;
}

// --- The other examples ---------------------------------------------------

/** `<binary> <args>` exits @p code, prints @p needle, and never dies
 *  of an uncaught exception. */
void
expectExit(const char *binary, const std::string &args, int code,
           const std::string &needle)
{
    std::string out;
    EXPECT_EQ(runExample(binary, args, out), code)
        << binary << " " << args << "\noutput: " << out;
    EXPECT_NE(out.find(needle), std::string::npos)
        << binary << " " << args << "\nwanted '" << needle << "' in:\n"
        << out;
    EXPECT_EQ(out.find("terminate called"), std::string::npos) << out;
}

/** --help and -h print @p binary's usage to stdout and exit 0. */
void
expectHelp(const char *binary, const std::string &usage_head)
{
    for (const char *flag : {"--help", "-h"}) {
        std::string out;
        EXPECT_EQ(runExample(binary, flag, out, false), 0)
            << binary << " " << flag << "\n" << out;
        EXPECT_EQ(out.rfind(usage_head, 0), 0u)
            << binary << " " << flag << "\n" << out;
    }
}

TEST(CliValidation, QuickstartFailsCleanly)
{
    expectExit(QUICKSTART_BIN, "q", 2, "unknown GPT-2 size 'q'");
    expectExit(QUICKSTART_BIN, "m 0 4", 2, "input wants a positive");
    expectExit(QUICKSTART_BIN, "m 64 four", 2, "output wants a positive");
    expectExit(QUICKSTART_BIN, "m -3 4", 2, "input wants a positive");
    expectHelp(QUICKSTART_BIN, "usage: quickstart");
    expectExit(QUICKSTART_BIN, "m 5000 4", 1, "fatal: activation");
}

TEST(CliValidation, DesignSpaceExplorerFailsCleanly)
{
    expectExit(DESIGN_SPACE_EXPLORER_BIN, "zz", 2,
               "unknown GPT-2 size 'zz'");
    expectExit(DESIGN_SPACE_EXPLORER_BIN, "m 256 0", 2,
               "output wants a positive");
    expectHelp(DESIGN_SPACE_EXPLORER_BIN, "usage: design_space_explorer");
    expectExit(DESIGN_SPACE_EXPLORER_BIN, "m 5000 4", 1,
               "fatal: activation");
}

TEST(CliValidation, BertQaThroughputFailsCleanly)
{
    expectExit(BERT_QA_THROUGHPUT_BIN, "0", 2,
               "input_tokens wants a positive");
    expectExit(BERT_QA_THROUGHPUT_BIN, "128 abc", 2,
               "input_tokens wants a positive");
    expectHelp(BERT_QA_THROUGHPUT_BIN, "usage: bert_qa_throughput");
    expectExit(BERT_QA_THROUGHPUT_BIN, "100000", 1, "fatal: activation");
}

TEST(CliValidation, PimMicrocodeTraceFailsCleanly)
{
    expectExit(PIM_MICROCODE_TRACE_BIN, "0 0", 2, "rows wants a positive");
    expectExit(PIM_MICROCODE_TRACE_BIN, "384 x", 2,
               "cols wants a positive");
    expectExit(PIM_MICROCODE_TRACE_BIN, "384 1536 7", 2,
               "unexpected argument 7");
    expectHelp(PIM_MICROCODE_TRACE_BIN, "usage: pim_microcode_trace");
    // A lone flag is not a row count.
    expectExit(PIM_MICROCODE_TRACE_BIN, "--gelu", 0, "GEMV[384x1536]+bias+gelu");
}

TEST(CliValidation, BenchFloorsRejectABadValue)
{
    // strtod read these as 0, which skipped the gate. Each must exit 2
    // before the bench starts (--fast keeps a regression short).
    for (const char *bin :
         {MICRO_COMPILE_CACHE_BIN, MICRO_SERVING_THROUGHPUT_BIN})
        for (const char *args :
             {"--fast --floor", "--floor --fast", "--fast --floor abc",
              "--fast --floor 12x", "--fast --floor 0",
              "--fast --floor -5", "--fast --floor nan"})
            expectExit(bin, args, 2, "--floor wants a positive number");
}

TEST(CliValidation, BenchesRejectUnknownArguments)
{
    // Each of these used to run the whole bench and exit 0; the last
    // one silently skipped its CI gate.
    expectExit(MICRO_DISAGG_BIN, "--bogus", 2,
               "unknown argument '--bogus'\nusage: micro_disagg");
    expectExit(SWEEP_FLEET_BIN, "--model zz", 2,
               "unknown argument '--model'\nusage: sweep_fleet");
    expectExit(MICRO_COMPILE_CACHE_BIN, "--fast --flor 900", 2,
               "unknown argument '--flor'\nusage: micro_compile_cache "
               "[--fast] [--csv] [--floor PROGRAMS_PER_S]");
    // A bench without a gate takes no --floor either.
    expectExit(MICRO_DISAGG_BIN, "--fast --floor 5", 2,
               "unknown argument '--floor'");
    expectHelp(MICRO_DISAGG_BIN, "usage: micro_disagg [--fast] [--csv]\n");
}

} // namespace
