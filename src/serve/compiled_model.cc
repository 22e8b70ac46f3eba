#include "serve/compiled_model.hh"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "serve/drain.hh"

namespace ianus::serve
{

namespace
{

/** Fatal unless @p kv_lens can take a generation step: at least one
 *  request, each with a non-empty KV cache. */
void
checkStepBatch(const std::vector<std::uint64_t> &kv_lens)
{
    if (kv_lens.empty())
        IANUS_FATAL("a generation step needs at least one request");
    for (std::uint64_t kv : kv_lens)
        if (kv == 0)
            IANUS_FATAL("a generation step needs a non-empty KV cache "
                        "for every request");
}

/** Visit the KV-length multisets a segment of @p steps batched
 *  generation steps from @p kv_lens samples, each sorted: its entry,
 *  and for more than one step its exit, every length plus @p steps.
 *  The one rule both generationStepStats's trapezoid and the keys
 *  buildStepsAhead builds follow. */
template <class Visit>
void
segmentSamples(std::vector<std::uint64_t> &kv_lens, std::uint64_t steps,
               const Visit &visit)
{
    std::sort(kv_lens.begin(), kv_lens.end());
    visit(std::as_const(kv_lens));
    if (steps == 1)
        return;
    for (std::uint64_t &kv : kv_lens)
        kv += steps;
    visit(std::as_const(kv_lens));
}

} // namespace

CompiledModel::CompiledModel(const SystemConfig &sys,
                             const workloads::ModelConfig &model,
                             const compiler::BuildOptions &opts)
    // Validate before the WorkloadBuilder sees the config, so an
    // unsatisfiable configuration fails with a clear error instead of a
    // compiler panic.
    : cfg_((sys.validate(), sys)), model_(model), opts_(opts),
      builder_(cfg_, model_, opts_), store_(std::make_shared<Store>())
{
}

std::size_t
CompiledModel::cachedPrograms() const
{
    std::lock_guard<std::mutex> lock(store_->mutex);
    return store_->summarization.size() + store_->generation.size() +
           store_->batch.size() + store_->chunk.size();
}

std::vector<std::vector<std::uint64_t>>
CompiledModel::batchedKeys() const
{
    std::lock_guard<std::mutex> lock(store_->mutex);
    return store_->batch.keys();
}

std::uint64_t
CompiledModel::stepsBuiltAhead() const
{
    std::lock_guard<std::mutex> lock(store_->mutex);
    return store_->aheadBuilds;
}

std::size_t
CompiledModel::stepsWaitingAhead() const
{
    std::lock_guard<std::mutex> lock(store_->mutex);
    return store_->ahead.size();
}

void
CompiledModel::FrontIndex::add(std::uint64_t tokens, const RunStats &stats)
{
    if (tokens >= maxIndexedTokens)
        return;
    if (tokens >= at.size())
        at.resize(tokens + 1, nullptr);
    at[tokens] = &stats;
}

template <class Build>
RunStats
CompiledModel::execute(Worker &worker, const Build &build) const
{
    if (!worker.engine)
        worker.engine.emplace(cfg_, opts_.devices);
    ExecutionEngine &engine = *worker.engine;
    isa::Program &prog = worker.spare;
    const std::uint64_t blocks = model_.nBlocks;
    if (blocks < 3 || !builder_.uniformBlocks()) {
        prog = build(blocks, std::move(prog));
        return engine.run(prog);
    }
    // Every block ends at a barrier that drains the machine, so each
    // block after the first costs exactly what the 2-block run spends
    // between its two block ends. The first block is run, not
    // composed: it may overlap the ungated embedding load.
    std::vector<RunStats> ends;
    ends.reserve(2);
    prog = build(2, std::move(prog));
    const RunStats two = engine.run(prog, &ends);
    IANUS_ASSERT(ends.size() == 2, "a 2-block program recorded ",
                 ends.size(), " block ends");
    return RunStats::blockPeriodic(two, ends[0], ends[1], blocks);
}

template <class Key, class Build>
const RunStats &
CompiledModel::cached(Table<Key> Store::*table, const Key &key,
                      std::uint64_t &hits, std::uint64_t &builds,
                      const Build &build, const RunStats *ready) const
{
    Table<Key> &shared = (*store_).*table;
    if (const RunStats *entry = shared.find(key)) {
        ++hits;
        return *entry;
    }
    // Only the batched table is bounded, so only it evicts.
    if (shared.insert(key, ready ? *ready
                                 : execute(store_->workers.front(), build)))
        ++cache_.batchEvictions;
    ++builds;
    return *shared.find(key);
}

template <class Build>
const RunStats &
CompiledModel::indexed(FrontIndex &index,
                       Table<std::uint64_t> Store::*table,
                       std::uint64_t tokens, std::uint64_t &hits,
                       std::uint64_t &builds, const Build &build) const
{
    if (const RunStats *stats = index.find(tokens)) {
        ++hits;
        return *stats;
    }
    std::lock_guard<std::mutex> lock(store_->mutex);
    const RunStats &stats = cached(table, tokens, hits, builds, build);
    index.add(tokens, stats);
    return stats;
}

const RunStats &
CompiledModel::summarization(std::uint64_t input_tokens) const
{
    return indexed(summarizationIndex_, &Store::summarization,
                   input_tokens, cache_.summarizationHits,
                   cache_.summarizationBuilds,
                   [&](std::uint64_t blocks, isa::Program storage) {
                       return builder_.buildSummarizationChunk(
                           0, input_tokens, true, blocks,
                           std::move(storage));
                   });
}

const RunStats &
CompiledModel::generation(std::uint64_t kv_len) const
{
    return indexed(generationIndex_, &Store::generation, kv_len,
                   cache_.generationHits, cache_.generationBuilds,
                   [&](std::uint64_t blocks, isa::Program storage) {
                       return builder_.buildGenerationBatch(
                           {kv_len}, blocks, std::move(storage));
                   });
}

const RunStats &
CompiledModel::prefillChunkStats(std::uint64_t prior_tokens,
                                std::uint64_t chunk_tokens,
                                bool last_chunk) const
{
    if (chunk_tokens == 0)
        IANUS_FATAL("a prefill chunk needs at least one token");
    // A whole-prompt chunk IS the monolithic summarization: share its
    // cache entry so the fallback is structural, not numerical.
    if (prior_tokens == 0 && last_chunk)
        return summarization(chunk_tokens);

    std::lock_guard<std::mutex> lock(store_->mutex);
    return cached(&Store::chunk,
                  ChunkKey(prior_tokens, chunk_tokens, last_chunk),
                  cache_.chunkHits, cache_.chunkBuilds,
                  [&](std::uint64_t blocks, isa::Program storage) {
                      return builder_.buildSummarizationChunk(
                          prior_tokens, chunk_tokens, last_chunk, blocks,
                          std::move(storage));
                  });
}

RunStats
CompiledModel::batchStep(const std::vector<std::uint64_t> &key) const
{
    // A batch of one is the scalar entry — sharing the cache makes
    // batch-1 equivalence structural rather than numerical.
    if (key.size() == 1)
        return generation(key.front());

    // Copied into the return value before the lock is released: the
    // store evicts its oldest batched entry beyond the cap, on any
    // replica's insert. An evicted entry is a pure function of its key,
    // so a re-miss just recomputes the same bits.
    std::lock_guard<std::mutex> lock(store_->mutex);
    // A key built ahead is not in the table, so this lookup misses and
    // takes it instead of executing.
    auto ahead = store_->ahead.extract(key);
    return cached(
        &Store::batch, key, cache_.batchHits, cache_.batchBuilds,
        [&](std::uint64_t blocks, isa::Program storage) {
            return builder_.buildGenerationBatch(key, blocks,
                                                 std::move(storage));
        },
        ahead ? &ahead.mapped() : nullptr);
}

void
CompiledModel::buildStepsAhead(std::vector<std::uint64_t> kv_lens,
                               std::uint64_t steps,
                               unsigned token_stride) const
{
    checkStepBatch(kv_lens);
    if (token_stride == 0)
        IANUS_FATAL("token stride must be positive (1 = exact)");
    if (kv_lens.size() < 2)
        return;
    std::vector<std::vector<std::uint64_t>> keys;
    for (std::uint64_t done = 0; done < steps;) {
        const std::uint64_t g =
            std::min<std::uint64_t>(token_stride, steps - done);
        std::vector<std::uint64_t> entry = kv_lens;
        for (std::uint64_t &kv : entry)
            kv += done;
        segmentSamples(entry, g, [&](const std::vector<std::uint64_t> &key) {
            keys.push_back(key);
        });
        done += g;
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    std::lock_guard<std::mutex> lock(store_->mutex);
    Store &store = *store_;
    std::erase_if(keys, [&](const std::vector<std::uint64_t> &key) {
        return store.batch.find(key) || store.ahead.contains(key);
    });
    if (keys.empty())
        return;
    const std::size_t threads = std::min<std::size_t>(
        keys.size(), std::max(1u, std::thread::hardware_concurrency()));
    while (store.workers.size() < threads)
        store.workers.emplace_back();
    // Task w runs on worker w, taking keys until none is left; runTasks
    // runs no task on two threads at once, so no worker is shared.
    std::vector<RunStats> built(keys.size());
    std::atomic<std::size_t> next{0};
    runTasks(threads, threads, [&](std::size_t w) {
        for (std::size_t k = next.fetch_add(1); k < keys.size();
             k = next.fetch_add(1))
            built[k] = execute(
                store.workers[w],
                [&](std::uint64_t blocks, isa::Program storage) {
                    return builder_.buildGenerationBatch(
                        keys[k], blocks, std::move(storage));
                });
    });
    for (std::size_t k = 0; k < keys.size(); ++k)
        store.ahead.emplace(std::move(keys[k]), built[k]);
    store.aheadBuilds += keys.size();
}

RunStats
CompiledModel::generationStepStats(std::vector<std::uint64_t> kv_lens,
                                   std::uint64_t steps) const
{
    checkStepBatch(kv_lens);
    if (steps == 0)
        IANUS_FATAL("a generation segment needs at least one step");

    // One step is its entry sample. More are a trapezoid over the
    // segment: its steps cost from the entry and exit samples (KV
    // lengths all advance together, so only those two entries differ).
    // The exit sample sits at kv + steps — the next segment's entry — so
    // back-to-back segments with unchanged membership share cache
    // entries, like run()'s strided samples.
    RunStats segment;
    segmentSamples(kv_lens, steps,
                   [&](const std::vector<std::uint64_t> &key) {
                       const RunStats sample = batchStep(key);
                       if (steps == 1)
                           segment = sample;
                       else
                           segment.scaleAdd(sample,
                                            static_cast<double>(steps) / 2.0);
                   });
    return segment;
}

double
CompiledModel::estimateGenerationMs(
    const workloads::InferenceRequest &request) const
{
    if (const char *why = shapeError(request))
        IANUS_FATAL(why);
    if (!model_.decoder())
        return 0.0;
    std::uint64_t steps = request.outputTokens - 1;
    if (steps == 0)
        return 0.0;
    std::uint64_t mid_kv = request.inputTokens + 1 + steps / 2;
    return static_cast<double>(steps) * generation(mid_kv).wallMs();
}

InferenceReport
CompiledModel::run(const workloads::InferenceRequest &request,
                   unsigned token_stride) const
{
    if (const char *why = shapeError(request))
        IANUS_FATAL(why);
    if (token_stride == 0)
        IANUS_FATAL("token stride must be positive (1 = exact)");

    const RequestKey key(request.inputTokens, request.outputTokens,
                         token_stride);
    if (const InferenceReport *hit = requests_.find(key)) {
        ++cache_.requestHits;
        return *hit;
    }
    // Inserted only once cost() returns: a fatal leaves no entry.
    InferenceReport report = cost(request, token_stride);
    requests_.insert(key, report);
    return report;
}

InferenceReport
CompiledModel::cost(const workloads::InferenceRequest &request,
                    unsigned token_stride) const
{
    InferenceReport report;
    report.inputTokens = request.inputTokens;
    report.outputTokens = request.outputTokens;

    report.summarization = summarization(request.inputTokens);

    // Encoders have no generation stage at all; for decoders the first
    // output token is produced by the summarization LM head and
    // generation steps produce the rest.
    if (!model_.decoder())
        return report;
    const std::uint64_t steps = request.outputTokens - 1;
    report.generationSteps = steps;
    if (steps == 0)
        return report;

    // Step t runs at KV length input + 1 + t.
    const std::uint64_t kv0 = request.inputTokens + 1;
    if (token_stride == 1 || steps <= 2 * std::uint64_t{token_stride}) {
        for (std::uint64_t t = 0; t < steps; ++t)
            report.generation.merge(generation(kv0 + t));
        return report;
    }

    // Strided sampling with trapezoidal integration: token latency is a
    // smooth function of KV length (only attention terms grow). The
    // samples are t = 0, stride, 2 * stride, ... below steps, plus the
    // last step; each sample's weight is half the distance between its
    // neighbours, and an end sample's also covers itself. steps >
    // 2 * stride, so there are at least three samples.
    const std::uint64_t last = steps - 1;
    std::uint64_t prev = 0;
    for (std::uint64_t t = 0;;) {
        const std::uint64_t next =
            last - t > token_stride ? t + token_stride : last;
        double w = 0.0;
        if (t == 0)
            w = static_cast<double>(next - t) / 2.0 + 0.5;
        else if (t == last)
            w = static_cast<double>(t - prev) / 2.0 + 0.5;
        else
            w = static_cast<double>(next - prev) / 2.0;
        report.generation.scaleAdd(generation(kv0 + t), w);
        if (t == last)
            return report;
        prev = t;
        t = next;
    }
}

} // namespace ianus::serve
