#include "serve/compiled_model.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "ianus/execution_engine.hh"

namespace ianus::serve
{

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
    return front_.summarization.size() + front_.generation.size() +
           batchCache_.size() + front_.chunk.size();
}

void
CompiledModel::clearCache() const
{
    {
        std::lock_guard<std::mutex> lock(store_->mutex);
        store_->caches = ScalarCaches{};
    }
    front_ = ScalarCaches{};
    batchCache_.clear();
    batchOrder_.clear();
    cache_ = CacheStats{};
}

template <class Key>
const RunStats &
CompiledModel::cached(std::map<Key, RunStats> ScalarCaches::*table,
                      const Key &key, std::uint64_t &hits,
                      std::uint64_t &builds, const Build &build) const
{
    std::map<Key, RunStats> &front = front_.*table;
    auto it = front.find(key);
    if (it != front.end()) {
        ++hits;
        return it->second;
    }
    // Build under the lock, so that a pool builds each key once even
    // when shards on several threads miss it together.
    std::lock_guard<std::mutex> lock(store_->mutex);
    std::map<Key, RunStats> &shared = store_->caches.*table;
    auto entry = shared.find(key);
    if (entry != shared.end()) {
        ++hits;
    } else {
        entry = shared.emplace(key, execute(build)).first;
        ++builds;
    }
    return front.emplace(key, entry->second).first->second;
}

RunStats
CompiledModel::execute(const Build &build) const
{
    ExecutionEngine engine(cfg_, opts_.devices);
    const std::uint64_t blocks = model_.nBlocks;
    if (blocks < 3 || !builder_.uniformBlocks())
        return engine.run(build(blocks));
    // Every block ends at a barrier that drains the machine, so each
    // block after the first costs exactly the same; the first is
    // measured, since it may overlap the ungated embedding load.
    RunStats one = engine.run(build(1));
    RunStats two = engine.run(build(2));
    return RunStats::blockPeriodic(one, two, blocks);
}

const RunStats &
CompiledModel::summarization(std::uint64_t input_tokens) const
{
    return cached(&ScalarCaches::summarization, input_tokens,
                  cache_.summarizationHits, cache_.summarizationBuilds,
                  [&](std::uint64_t blocks) {
                      return builder_.buildSummarizationChunk(
                          0, input_tokens, true, blocks);
                  });
}

const RunStats &
CompiledModel::generation(std::uint64_t kv_len) const
{
    return cached(&ScalarCaches::generation, kv_len,
                  cache_.generationHits, cache_.generationBuilds,
                  [&](std::uint64_t blocks) {
                      return builder_.buildGenerationBatch({kv_len},
                                                           blocks);
                  });
}

const RunStats &
CompiledModel::summarizationStats(std::uint64_t input_tokens) const
{
    if (input_tokens == 0)
        IANUS_FATAL("summarization needs at least one input token");
    return summarization(input_tokens);
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

    return cached(&ScalarCaches::chunk,
                  ChunkKey(prior_tokens, chunk_tokens, last_chunk),
                  cache_.chunkHits, cache_.chunkBuilds,
                  [&](std::uint64_t blocks) {
                      return builder_.buildSummarizationChunk(
                          prior_tokens, chunk_tokens, last_chunk, blocks);
                  });
}

RunStats
CompiledModel::generationStepStats(
    std::vector<std::uint64_t> kv_lens) const
{
    if (kv_lens.empty())
        IANUS_FATAL("a generation step needs at least one request");
    for (std::uint64_t kv : kv_lens)
        if (kv == 0)
            IANUS_FATAL("a generation step needs a non-empty KV cache "
                        "for every request");
    // A batch of one is the scalar entry — sharing the cache makes
    // batch-1 equivalence structural rather than numerical.
    if (kv_lens.size() == 1)
        return generation(kv_lens.front());

    std::sort(kv_lens.begin(), kv_lens.end());
    auto it = batchCache_.find(kv_lens);
    if (it != batchCache_.end()) {
        ++cache_.batchHits;
        return it->second;
    }
    // The oldest entry is evicted beyond the cap: batched keys rarely
    // recur (all KV lengths advance together), so only recent stats
    // are worth the memory. Eviction is deterministic — a re-miss just
    // recomputes the same pure function.
    RunStats stats = execute([&](std::uint64_t blocks) {
        return builder_.buildGenerationBatch(kv_lens, blocks);
    });
    ++cache_.batchBuilds;
    if (batchCache_.size() >= maxBatchEntries) {
        batchCache_.erase(batchOrder_.front());
        batchOrder_.pop_front();
        ++cache_.batchEvictions;
    }
    batchOrder_.push_back(kv_lens);
    batchCache_.emplace(std::move(kv_lens), stats);
    return stats;
}

double
CompiledModel::estimatedStepMs() const
{
    if (!model_.decoder())
        return 0.0;
    return generation(routingProbeKv).wallMs();
}

double
CompiledModel::estimatePrefillMs(std::uint64_t input_tokens) const
{
    return summarizationStats(input_tokens).wallMs();
}

double
CompiledModel::estimateResumePrefillMs(std::uint64_t prior_tokens,
                                       std::uint64_t chunk_tokens) const
{
    return prefillChunkStats(prior_tokens, chunk_tokens, true).wallMs();
}

double
CompiledModel::estimateGenerationMs(
    const workloads::InferenceRequest &request) const
{
    if (request.inputTokens == 0)
        IANUS_FATAL("inference request needs at least one input token");
    if (request.outputTokens == 0)
        IANUS_FATAL("inference request needs at least one output token");
    if (!model_.decoder())
        return 0.0;
    std::uint64_t steps = request.outputTokens - 1;
    if (steps == 0)
        return 0.0;
    std::uint64_t mid_kv = request.inputTokens + 1 + steps / 2;
    return static_cast<double>(steps) * generation(mid_kv).wallMs();
}

double
CompiledModel::estimateServiceMs(
    const workloads::InferenceRequest &request) const
{
    return estimatePrefillMs(request.inputTokens) +
           estimateGenerationMs(request);
}

InferenceReport
CompiledModel::run(const workloads::InferenceRequest &request,
                   unsigned token_stride) const
{
    if (request.inputTokens == 0)
        IANUS_FATAL("inference request needs at least one input token");
    if (request.outputTokens == 0)
        IANUS_FATAL("inference request needs at least one output token "
                    "(encoders emit their single result as token 1)");
    if (token_stride == 0)
        IANUS_FATAL("token stride must be positive (1 = exact)");

    InferenceReport report;
    report.inputTokens = request.inputTokens;
    report.outputTokens = request.outputTokens;

    report.summarization = summarization(request.inputTokens);

    // Encoders have no generation stage at all; for decoders the first
    // output token is produced by the summarization LM head and
    // generation steps produce the rest.
    if (!model_.decoder())
        return report;
    std::uint64_t steps = request.outputTokens - 1;
    report.generationSteps = steps;
    if (steps == 0)
        return report;

    auto step_stats = [&](std::uint64_t t) -> const RunStats & {
        return generation(request.inputTokens + 1 + t);
    };

    if (token_stride == 1 || steps <= 2 * token_stride) {
        for (std::uint64_t t = 0; t < steps; ++t)
            report.generation.merge(step_stats(t));
        return report;
    }

    // Strided sampling with trapezoidal integration: token latency is a
    // smooth function of KV length (only attention terms grow).
    std::vector<std::uint64_t> samples;
    for (std::uint64_t t = 0; t < steps; t += token_stride)
        samples.push_back(t);
    if (samples.back() != steps - 1)
        samples.push_back(steps - 1);

    std::vector<const RunStats *> stats;
    stats.reserve(samples.size());
    for (std::uint64_t t : samples)
        stats.push_back(&step_stats(t));

    for (std::size_t j = 0; j < samples.size(); ++j) {
        double w = 0.0;
        if (j == 0)
            w = static_cast<double>(samples[1] - samples[0]) / 2.0 + 0.5;
        else if (j + 1 == samples.size())
            w = static_cast<double>(samples[j] - samples[j - 1]) / 2.0 +
                0.5;
        else
            w = static_cast<double>(samples[j + 1] - samples[j - 1]) / 2.0;
        report.generation.scaleAdd(*stats[j], w);
    }
    return report;
}

} // namespace ianus::serve
