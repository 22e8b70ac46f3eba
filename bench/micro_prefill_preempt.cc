/**
 * @file
 * Token-boundary scheduling microbenchmark: chunked prefill and
 * preemption on one continuously batched replica.
 *
 * Section 1 — chunked prefill. A constructed, fully deterministic
 * head-of-line-blocking trace: every group submits one long prompt
 * (1024 tokens), three short prompts arriving *mid-prefill* of the
 * long one, and a drained stream of filler shorts that dilute the
 * percentile ranks. Cells: {fcfs, sjf} x {monolithic, chunk 512,
 * chunk 256}. Chunking lets the policy reorder pending prefills at
 * chunk boundaries, so under SJF the colliding shorts stop waiting
 * out the whole long summarization — the p95 TTFT drops — while the
 * long prompt itself pays the documented tax (visible at p99). Under
 * FCFS (urgency = arrival order) chunking cannot reorder and only
 * costs, which the table shows honestly.
 *
 * Section 2 — preemption. A seeded Poisson mix of tight-deadline
 * short generations and long 256-token generations on a small batch
 * (EDF, max-batch 2): without preemption the longs hold the batch
 * slots and the shorts blow their completion budgets; with it, the
 * shorts evict the loosest-deadline residents at token boundaries.
 *
 * Gates (exit 1 on violation):
 *  - SJF chunked p95 TTFT strictly below SJF monolithic p95 TTFT, for
 *    both chunk sizes;
 *  - EDF deadline-miss rate strictly lower with preemption on, with
 *    at least one eviction;
 *  - FCFS with preempt=true is bit-identical to preempt=false with
 *    zero evictions (preemption is policy-inert by construction), and
 *    the preemption cell replays bit-identically (determinism).
 *
 *   ./micro_prefill_preempt [--fast] [--csv]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "serve/serving_engine.hh"
#include "serve/trace_gen.hh"

namespace
{

using namespace ianus;

/** One long prompt + mid-prefill shorts + drained filler shorts. */
void
submitCollisionTrace(serve::ServingEngine &engine, unsigned groups,
                     double filler_spacing_ms)
{
    for (unsigned g = 0; g < groups; ++g) {
        double t = g * (80.0 + 17.0 * filler_spacing_ms);
        engine.submit({1024, 16}, t);
        engine.submit({64, 16}, t + 3.0);
        engine.submit({64, 16}, t + 5.0);
        engine.submit({64, 16}, t + 7.0);
        for (int i = 0; i < 17; ++i)
            engine.submit({64, 16}, t + 40.0 + i * filler_spacing_ms);
    }
}

serve::ServingReport
drainCollisions(const serve::CompiledModel &model, const std::string &pol,
                std::uint64_t chunk, unsigned groups, double spacing)
{
    serve::ServingOptions opts;
    opts.batching = serve::BatchingMode::Continuous;
    opts.maxBatch = 8;
    opts.tokenStride = 2;
    opts.prefillChunk = chunk;
    serve::ServingEngine engine(model, opts, serve::makePolicy(pol));
    submitCollisionTrace(engine, groups, spacing);
    return engine.drain();
}

serve::ServingReport
drainPreempt(const serve::CompiledModel &model,
             const serve::ArrivalTrace &trace, const std::string &pol,
             bool preempt, double slo)
{
    serve::ServingOptions opts;
    opts.batching = serve::BatchingMode::Continuous;
    opts.maxBatch = 2;
    opts.tokenStride = 4;
    opts.preempt = preempt;
    opts.sloMsPerToken = slo;
    serve::ServingEngine engine(model, opts, serve::makePolicy(pol));
    serve::submitAll(trace, engine);
    return engine.drain();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("micro: chunked prefill + preemption",
                  "head-of-line prefill blocking x {fcfs, sjf} x chunk "
                  "size, and EDF deadline misses with token-boundary "
                  "preemption (gated)");

    workloads::ModelConfig model = workloads::gpt2("m");
    SystemConfig cfg = SystemConfig::ianusDefault();
    bool ok = true;

    // --- Section 1: chunked prefill under head-of-line blocking -------
    serve::CompiledModel probe(cfg, model);
    // Filler spacing that keeps the filler stream drained, so the TTFT
    // tail is the collision mechanism and not queue depth.
    const double spacing = 1.25 * probe.run({64, 16}, 2).totalMs();
    const unsigned groups = opts.fast ? 3 : 4;

    bench::Table chunk_table({"policy", "prefill_chunk", "ttft_p50",
                              "ttft_p95", "ttft_p99", "tok_per_s",
                              "prefill_chunks"});
    const std::vector<std::uint64_t> chunks = {0, 512, 256};
    for (const std::string &pol : {std::string("fcfs"),
                                   std::string("sjf")}) {
        double mono_p95 = 0.0;
        for (std::uint64_t chunk : chunks) {
            serve::CompiledModel m(cfg, model);
            serve::ServingReport rep =
                drainCollisions(m, pol, chunk, groups, spacing);
            double p95 = rep.ttftPercentile(95);
            if (chunk == 0)
                mono_p95 = p95;
            std::uint64_t segs = 0;
            for (const auto &r : rep.results)
                segs = std::max(segs, r.prefillChunks);
            chunk_table.addRow(
                {pol, bench::Table::num(chunk, 0),
                 bench::Table::num(rep.ttftPercentile(50), 2),
                 bench::Table::num(p95, 2),
                 bench::Table::num(rep.ttftPercentile(99), 2),
                 bench::Table::num(rep.tokensPerSecond(), 0),
                 bench::Table::num(segs, 0)});
            // The gate: chunking must buy back the p95 TTFT tail when
            // the policy can reorder at chunk boundaries (SJF). FCFS
            // rows are informational — no reordering, only the tax.
            if (pol == "sjf" && chunk != 0 && !(p95 < mono_p95)) {
                std::printf("FAIL: sjf prefill chunk %llu did not lower "
                            "p95 TTFT (%.2f vs monolithic %.2f)\n",
                            (unsigned long long)chunk, p95, mono_p95);
                ok = false;
            }
        }
    }
    chunk_table.print(opts);

    // --- Section 2: preemption vs EDF deadline misses ------------------
    serve::TraceOptions topts;
    topts.seed = 11;
    topts.requests = opts.fast ? 32 : 48;
    topts.inputTokenChoices = {64, 128};
    topts.outputTokenChoices = {8, 8, 8, 256};
    topts.arrivalsPerSec = 60.0;
    serve::ArrivalTrace trace = serve::generatePoissonTrace(topts);
    const double slo = 4.0;

    bench::Table pre_table({"policy", "preempt", "deadline_miss",
                            "slo_miss", "evictions", "ttft_p95",
                            "lat_p95"});
    double miss_off = 0.0;
    for (bool preempt : {false, true}) {
        serve::CompiledModel m(cfg, model);
        serve::ServingReport rep =
            drainPreempt(m, trace, "edf", preempt, slo);
        if (!preempt)
            miss_off = rep.deadlineMissRate();
        pre_table.addRow({"edf", preempt ? "on" : "off",
                          bench::Table::num(rep.deadlineMissRate(), 3),
                          bench::Table::num(rep.sloMissRate(), 3),
                          bench::Table::num(rep.preemptions(), 0),
                          bench::Table::num(rep.ttftPercentile(95), 1),
                          bench::Table::num(rep.latencyPercentile(95),
                                            1)});
        if (preempt) {
            if (!(rep.deadlineMissRate() < miss_off)) {
                std::printf("FAIL: preemption did not lower the EDF "
                            "deadline-miss rate (%.3f vs %.3f)\n",
                            rep.deadlineMissRate(), miss_off);
                ok = false;
            }
            if (rep.preemptions() == 0) {
                std::printf("FAIL: preemption enabled but nothing was "
                            "ever evicted\n");
                ok = false;
            }
            // Determinism: the preemption cell replays bit for bit.
            serve::CompiledModel m2(cfg, model);
            serve::ServingReport rep2 =
                drainPreempt(m2, trace, "edf", true, slo);
            if (!bench::identicalResults(rep, rep2)) {
                std::printf("FAIL: preemption drain is not "
                            "deterministic across replays\n");
                ok = false;
            }
        }
    }
    pre_table.print(opts);

    // --- Section 3: the disabled configuration is the PR-3 loop --------
    // FCFS urgency is arrival order, so preempt=true can never evict;
    // the whole preemption machinery must be bit-inert.
    {
        serve::CompiledModel a(cfg, model);
        serve::CompiledModel b(cfg, model);
        serve::ServingReport off =
            drainPreempt(a, trace, "fcfs", false, slo);
        serve::ServingReport on =
            drainPreempt(b, trace, "fcfs", true, slo);
        if (!bench::identicalResults(off, on) || on.preemptions() != 0) {
            std::printf("FAIL: FCFS with preempt=true diverged from "
                        "preempt=false (%llu evictions)\n",
                        (unsigned long long)on.preemptions());
            ok = false;
        }
    }

    std::printf("\nprefill/preempt sanity: %s\n",
                ok ? "chunked prefill cuts the p95 TTFT tail, "
                     "preemption cuts EDF deadline misses, disabled "
                     "config is bit-identical"
                   : "VIOLATED — BUG");
    return ok ? 0 : 1;
}
