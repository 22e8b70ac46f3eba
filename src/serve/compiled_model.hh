/**
 * @file
 * Compile-once / serve-many front end.
 *
 * CompiledModel binds one (SystemConfig, ModelConfig, BuildOptions)
 * triple to a WorkloadBuilder and memoizes the RunStats of every
 * program it serves: summarizations keyed by input length, resumed
 * prefill *chunks* keyed by (prior, chunk, has-LM-head), generation
 * steps keyed by KV length, and *batched* generation steps keyed by
 * the sorted KV-length multiset of the batch. The device model is
 * deterministic, so a serving workload that replays a request mix —
 * or a strided generation that revisits the same KV samples — pays for
 * each distinct program exactly once, and keeps only its statistics.
 *
 * A cache miss does not simulate the whole program either. Every
 * transformer block ends at a barrier that drains the machine, so when
 * all blocks compile alike (WorkloadBuilder::uniformBlocks) the stats
 * of the L-block program follow exactly from those of its 1-block and
 * 2-block prefixes (RunStats::blockPeriodic). Models with fewer than
 * three blocks, or with two kinds of block, run the full program.
 *
 * IanusSystem::run is a thin wrapper over run(), which combines the
 * cached samples by trapezoidal stride integration. Every cached entry
 * equals, bit for bit, the engine run of the full program the builder
 * emits for its key (tests/test_block_periodic.cc).
 *
 * Equal triples build equal programs, so a DevicePool lets its equal
 * replicas share one mutex-guarded store of summarization, chunk and
 * generation stats, and each key is built once per pool. Every replica
 * keeps its own unlocked copy of the entries it has served in front of
 * that store: only a first lookup on a replica takes the lock. A
 * standalone CompiledModel's store is private. Batched-step entries
 * stay per replica.
 */

#ifndef IANUS_SERVE_COMPILED_MODEL_HH
#define IANUS_SERVE_COMPILED_MODEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "compiler/workload_builder.hh"
#include "ianus/report.hh"
#include "ianus/system_config.hh"
#include "workloads/model_config.hh"

namespace ianus::serve
{

/**
 * Cache accounting of one replica (bench/test introspection). A lookup
 * that this replica has not served before but its pool's shared store
 * has counts as a hit; only a program actually executed counts as a
 * build, so builds summed over a pool equal its distinct programs.
 */
struct CacheStats
{
    std::uint64_t summarizationBuilds = 0;
    std::uint64_t summarizationHits = 0;
    std::uint64_t generationBuilds = 0;
    std::uint64_t generationHits = 0;
    std::uint64_t batchBuilds = 0; ///< batched steps (>= 2 requests)
    std::uint64_t batchHits = 0;
    std::uint64_t batchEvictions = 0; ///< FIFO-evicted batched entries
    std::uint64_t chunkBuilds = 0; ///< resumed prefill chunks (prior > 0)
    std::uint64_t chunkHits = 0;

    std::uint64_t
    builds() const
    {
        return summarizationBuilds + generationBuilds + batchBuilds +
               chunkBuilds;
    }

    std::uint64_t
    hits() const
    {
        return summarizationHits + generationHits + batchHits + chunkHits;
    }
};

/** One model compiled onto one device configuration, ready to serve. */
class CompiledModel
{
  public:
    /** Validates @p sys and rejects unsatisfiable configurations. */
    CompiledModel(const SystemConfig &sys,
                  const workloads::ModelConfig &model,
                  const compiler::BuildOptions &opts =
                      compiler::BuildOptions{});

    /**
     * Simulate one inference request end to end, reusing any cached
     * programs. Identical semantics (and identical numbers) to
     * IanusSystem::run, which is a thin wrapper over this.
     *
     * Rejects invalid requests (zero input or output tokens) and a zero
     * @p token_stride with a fatal error.
     */
    InferenceReport run(const workloads::InferenceRequest &request,
                        unsigned token_stride = 1) const;

    /**
     * Executed statistics of the summarization (prefill) stage over
     * @p input_tokens, from the same cache run() uses.
     */
    const RunStats &summarizationStats(std::uint64_t input_tokens) const;

    /**
     * Executed statistics of one chunked-prefill segment: resume the
     * summarization with @p prior_tokens already in the KV cache and
     * process the next @p chunk_tokens of the prompt; only the
     * @p last_chunk runs the LM head and emits the first output token
     * (see WorkloadBuilder::buildSummarizationChunk for the program).
     *
     * Chunk entries are memoized by (prior, chunk, last): serving
     * traces revisit the same chunk-aligned resume offsets across
     * requests of equal prompt length, so chunk keys recur the way
     * summarization keys do (unlike batched-step keys). A whole-prompt
     * chunk (prior == 0, last) resolves to the monolithic
     * summarization entry that run() uses, so `prefillChunk = 0` and
     * chunk-covers-the-prompt serving produce bit-identical stats —
     * the chunked-prefill fallback anchor.
     */
    const RunStats &prefillChunkStats(std::uint64_t prior_tokens,
                                      std::uint64_t chunk_tokens,
                                      bool last_chunk) const;

    /**
     * Executed statistics of one *batched* generation step: each entry
     * of @p kv_lens is one request's current KV length and the step
     * emits one token per request. The entry is memoized under the
     * sorted KV-length multiset — request order never changes the cost
     * — in a bounded FIFO cache (batched keys rarely recur within a
     * drain, since every member's KV length advances each step).
     * Returned by value: an entry may be evicted at any later call.
     *
     * A batch of one resolves to the scalar generation-step entry that
     * run() uses, so batch-1 numbers equal the unbatched path bit for
     * bit (the batching cost model's regression anchor).
     */
    RunStats generationStepStats(std::vector<std::uint64_t> kv_lens) const;

    /** Most batched-step entries retained (FIFO eviction; safe because
     *  entries are pure recomputable functions of the key). */
    static constexpr std::size_t maxBatchEntries = 1024;

    // --- Routing estimates --------------------------------------------------
    //
    // Heterogeneity-aware routers need to know how fast *this* replica
    // is, not how busy it has been. These estimates are derived from the
    // same cached program stats run() uses — every term is executed on
    // this replica's own device model, so an NPU-MEM replica or a
    // different tensor-parallel degree honestly reports different
    // numbers. They are pure functions of the replica configuration and
    // the request shape (never of cache history), so routing decisions
    // do not depend on what a replica happened to serve earlier.

    /** KV length of the canonical probe step behind estimatedStepMs()
     *  (the default trace's median 256-token prompt plus its first
     *  output token). */
    static constexpr std::uint64_t routingProbeKv = 257;

    /**
     * Per-token service-time estimate of this replica: the wall ms of
     * one generation step at routingProbeKv, from the scalar
     * generation-step cache (built on first use, a hit afterwards).
     * 0 for encoder models, which have no generation stage.
     */
    double estimatedStepMs() const;

    /**
     * Estimated wall ms of @p request's prefill on this replica: the
     * memoized summarization entry itself (exact, and shared with the
     * entry a dispatch would build anyway).
     */
    double estimatePrefillMs(std::uint64_t input_tokens) const;

    /**
     * Estimated wall ms of resuming @p request's prefill from a warm
     * prefix cache: process the @p chunk_tokens-token delta with
     * @p prior_tokens already in the KV cache, LM head included — the
     * memoized chunk entry a prefix-cache hit would execute anyway.
     * The session-sticky router's re-prefill penalty: a hit candidate
     * is priced with this on its bound replica and with the full
     * estimatePrefillMs() everywhere else.
     */
    double estimateResumePrefillMs(std::uint64_t prior_tokens,
                                   std::uint64_t chunk_tokens) const;

    /**
     * Estimated wall ms of @p request's generation stage served alone
     * on this replica: (output - 1) steps charged at the midpoint-KV
     * step cost (token latency is smooth in KV length, so the midpoint
     * sample is the one-point trapezoid). 0 for encoders and
     * single-token outputs.
     */
    double
    estimateGenerationMs(const workloads::InferenceRequest &request) const;

    /** Prefill + generation estimate of the whole request served alone. */
    double
    estimateServiceMs(const workloads::InferenceRequest &request) const;

    const SystemConfig &config() const { return cfg_; }
    const workloads::ModelConfig &model() const { return model_; }
    const compiler::BuildOptions &options() const { return opts_; }
    const compiler::WorkloadBuilder &builder() const { return builder_; }

    const CacheStats &cacheStats() const { return cache_; }

    /** Cached entry count of this replica: one per distinct program it
     *  has served (summarization, chunk, generation and batched-step
     *  stats), whether it built the entry or its pool's store did. */
    std::size_t cachedPrograms() const;

    /** Drop all memoized statistics and this replica's accounting. A
     *  store shared with a pool's equal replicas is emptied too; their
     *  own entries and accounting stay. */
    void clearCache() const;

  private:
    friend class DevicePool;

    using Build = std::function<isa::Program(std::uint64_t blocks)>;
    using ChunkKey = std::tuple<std::uint64_t, std::uint64_t, bool>;

    // The device model is deterministic, so memoizing a program's stats
    // makes a replayed request nearly free.
    struct ScalarCaches
    {
        std::map<std::uint64_t, RunStats> summarization;
        std::map<std::uint64_t, RunStats> generation;
        // Resumed prefill chunks, keyed by (prior, chunk, has LM head).
        // Unbounded like the summarization cache: requests of equal
        // prompt length resume at the same chunk-aligned offsets, so
        // these keys recur across a serving trace.
        std::map<ChunkKey, RunStats> chunk;
    };

    /** The entries every replica of one triple in a pool shares. */
    struct Store
    {
        std::mutex mutex; ///< guards caches
        ScalarCaches caches;
    };

    /** Use @p peer's store from now on (DevicePool, equal triples). */
    void shareStore(const CompiledModel &peer) { store_ = peer.store_; }

    /** The entry of @p key in @p table: from this replica's front, else
     *  from the store under its lock, executing @p build on a store
     *  miss; counts a hit or a build in @p hits / @p builds. */
    template <class Key>
    const RunStats &cached(std::map<Key, RunStats> ScalarCaches::*table,
                           const Key &key, std::uint64_t &hits,
                           std::uint64_t &builds, const Build &build) const;

    const RunStats &summarization(std::uint64_t input_tokens) const;
    const RunStats &generation(std::uint64_t kv_len) const;
    /** Executed statistics of the full program build(nBlocks), from
     *  build(1) and build(2) when the model's blocks are uniform. */
    RunStats execute(const Build &build) const;

    SystemConfig cfg_;
    workloads::ModelConfig model_;
    compiler::BuildOptions opts_;
    compiler::WorkloadBuilder builder_;

    // This replica's copies of the store entries it has served: read
    // without a lock, since a replica is driven by one thread at a time.
    mutable ScalarCaches front_;
    std::shared_ptr<Store> store_;
    // Batched steps stay per replica (their keys rarely recur across
    // replicas either), keyed by the sorted KV-length multiset, bounded
    // to maxBatchEntries FIFO: every member's KV length advances each
    // step, so keys rarely recur within a drain, and an unbounded
    // cache would grow linearly with simulated tokens. The bound keeps
    // the hit pattern that matters — consecutive segments share
    // trapezoid endpoints — while capping memory.
    mutable std::map<std::vector<std::uint64_t>, RunStats> batchCache_;
    mutable std::deque<std::vector<std::uint64_t>> batchOrder_;
    mutable CacheStats cache_;
};

} // namespace ianus::serve

#endif // IANUS_SERVE_COMPILED_MODEL_HH
