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
 * all blocks compile alike (WorkloadBuilder::uniformBlocks) a miss
 * runs the 2-block prefix once, with the engine's snapshots at its two
 * block-closing barriers, and the stats of the L-block program follow
 * exactly: the run plus L - 2 copies of its second block
 * (RunStats::blockPeriodic). Models with fewer than three blocks, or
 * with two kinds of block, run the full program. The build callables
 * are template parameters, so a lookup that hits constructs nothing.
 *
 * It is the one place that prices work, with one call per kind:
 * prefillChunkStats for any prefill (a whole prompt is the chunk
 * (0, n, true)), generationStepStats for a run of batched generation
 * steps, run() for a whole request, and estimateGenerationMs for the
 * routers' generation estimate. The serving drain schedules and
 * attributes what these return but integrates nothing itself. Both
 * strided rules live here, side by side: run()'s trapezoid over step
 * samples, and generationStepStats's over a segment's entry and exit.
 * Every cached entry equals, bit for bit, the engine run of the full
 * program the builder emits for its key
 * (tests/test_block_periodic.cc).
 *
 * Serving traces draw their requests from a small grid of shapes, so
 * run() also memoizes whole requests: the InferenceReport of each
 * (input, output, stride) in a FIFO bounded to maxRequestEntries. A
 * memo hit is one map lookup and a copy; it allocates nothing and
 * looks up no program. A miss sums the samples in one pass, and finds
 * each summarization and generation entry it has served before by an
 * O(1) index on the token count. The memo is per replica, takes no
 * lock, and is never shared through the pool's store.
 *
 * Equal triples build equal programs, so a DevicePool lets its equal
 * replicas share one mutex-guarded store of summarization, chunk,
 * generation and batched-step stats, and each key is built once per
 * pool. The store holds the pool's only copy of each entry, and a
 * lookup takes its lock, except a summarization or generation entry
 * the replica has served before: the token-count index points straight
 * into the store, whose scalar tables never move, evict or clear an
 * entry. A standalone CompiledModel's store is private. The request
 * memo stays per replica. Every miss builds and runs under the store's
 * lock, into the storage of the store's previous program and on the
 * store's first ExecutionEngine, so a miss allocates no program and no
 * engine buffer once that storage fits.
 *
 * A batch whose membership cannot change until its first member
 * finishes looks up step keys that are fixed in advance, so the drain
 * hands them to buildStepsAhead: it builds and runs the missing ones on
 * several threads, each with its own engine and program storage kept
 * in the store, and the results wait there unpublished until the miss
 * that takes each one. Tables, counters and results stay those of the
 * serial path.
 */

#ifndef IANUS_SERVE_COMPILED_MODEL_HH
#define IANUS_SERVE_COMPILED_MODEL_HH

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "compiler/workload_builder.hh"
#include "ianus/execution_engine.hh"
#include "ianus/report.hh"
#include "ianus/system_config.hh"
#include "workloads/model_config.hh"

namespace ianus::serve
{

/**
 * Cache accounting of one replica (bench/test introspection). A lookup
 * that its pool's shared store answers counts as a hit, whichever
 * replica built the entry; only a program actually executed counts as
 * a build, so builds summed over a pool equal its distinct programs. A
 * run() answered by the request memo counts one request hit and looks
 * up no program, so the per-program counters count only the lookups
 * actually made.
 */
struct CacheStats
{
    std::uint64_t summarizationBuilds = 0;
    std::uint64_t summarizationHits = 0;
    std::uint64_t generationBuilds = 0;
    std::uint64_t generationHits = 0;
    std::uint64_t batchBuilds = 0; ///< batched steps (>= 2 requests)
    std::uint64_t batchHits = 0;
    /** Batched entries the store's FIFO evicted to make room for this
     *  replica's inserts. */
    std::uint64_t batchEvictions = 0;
    std::uint64_t chunkBuilds = 0; ///< resumed prefill chunks (prior > 0)
    std::uint64_t chunkHits = 0;
    std::uint64_t requestHits = 0; ///< run() calls the memo answered

    std::uint64_t
    builds() const
    {
        return summarizationBuilds + generationBuilds + batchBuilds +
               chunkBuilds;
    }

    std::uint64_t
    hits() const
    {
        return summarizationHits + generationHits + batchHits + chunkHits +
               requestHits;
    }
};

/**
 * A map bounded to a fixed number of entries (by default, none),
 * evicting the oldest first. Its entries must be pure functions of
 * their keys, so an evicted entry is simply computed again. Once full,
 * an insertion reuses the evicted entry's node and allocates nothing;
 * an entry stays at its address until it is evicted. Not copyable:
 * the insertion order is kept as iterators into the map, which a move
 * carries along and a copy would not.
 */
template <class Key, class Value> class FifoMap
{
  public:
    FifoMap() = default;
    explicit FifoMap(std::size_t capacity) : capacity_(capacity) {}
    FifoMap(const FifoMap &) = delete;
    FifoMap &operator=(const FifoMap &) = delete;
    FifoMap(FifoMap &&) = default;
    FifoMap &operator=(FifoMap &&) = default;

    /** The entry of @p key, or nullptr. */
    const Value *
    find(const Key &key) const
    {
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second;
    }

    /** Add an entry for @p key, which must be absent; returns whether
     *  the oldest entry was evicted to make room. */
    bool
    insert(Key key, const Value &value)
    {
        if (order_.size() < capacity_) {
            order_.push_back(map_.emplace(std::move(key), value).first);
            return false;
        }
        auto node = map_.extract(order_[oldest_]);
        node.key() = std::move(key);
        node.mapped() = value;
        order_[oldest_] = map_.insert(std::move(node)).position;
        oldest_ = (oldest_ + 1) % capacity_;
        return true;
    }

    std::size_t size() const { return map_.size(); }

    /** Every key held, in key order. */
    std::vector<Key>
    keys() const
    {
        std::vector<Key> out;
        out.reserve(map_.size());
        for (const auto &entry : map_)
            out.push_back(entry.first);
        return out;
    }

  private:
    using Map = std::map<Key, Value>;

    std::size_t capacity_ = std::numeric_limits<std::size_t>::max();
    Map map_;
    /** Entries in insertion order, a ring once full. */
    std::vector<typename Map::iterator> order_;
    std::size_t oldest_ = 0;
};

/** Why no model can serve @p request, or null when it can: the one
 *  shape rule of CompiledModel::run, its generation estimate, and every
 *  request that enters a drain. */
inline const char *
shapeError(const workloads::InferenceRequest &request)
{
    if (request.inputTokens == 0)
        return "inference request needs at least one input token";
    if (request.outputTokens == 0)
        return "inference request needs at least one output token "
               "(encoders emit their single result as token 1)";
    return nullptr;
}

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
     * programs. Identical numbers to a fresh CompiledModel's run():
     * the caches only skip work that would repeat.
     *
     * The report is memoized per (input, output, stride) in a FIFO of
     * maxRequestEntries; an entry is added only once its computation
     * returns, so a fatal error leaves none behind.
     *
     * Rejects a request shapeError() names, and a zero @p token_stride,
     * with a fatal error.
     */
    InferenceReport run(const workloads::InferenceRequest &request,
                        unsigned token_stride = 1) const;

    /** Most whole-request reports run() retains (FIFO eviction, about
     *  0.75 MB per replica when full). */
    static constexpr std::size_t maxRequestEntries = 1024;

    /**
     * Executed statistics of one prefill segment: resume the
     * summarization with @p prior_tokens already in the KV cache and
     * process the next @p chunk_tokens of the prompt; only the
     * @p last_chunk runs the LM head and emits the first output token
     * (see WorkloadBuilder::buildSummarizationChunk for the program).
     * A whole prompt is the chunk (0, n, true), and it is the entry
     * run() costs the summarization stage with. The entry lives in this
     * replica's store, which DevicePool::addReplica may swap for an
     * equal replica's.
     *
     * Chunk entries are memoized by (prior, chunk, last): serving
     * traces revisit the same chunk-aligned resume offsets across
     * requests of equal prompt length, so chunk keys recur the way
     * summarization keys do (unlike batched-step keys). A whole-prompt
     * chunk resolves to the monolithic summarization entry that run()
     * uses, so `prefillChunk = 0` and chunk-covers-the-prompt serving
     * produce bit-identical stats — the chunked-prefill fallback
     * anchor.
     */
    const RunStats &prefillChunkStats(std::uint64_t prior_tokens,
                                      std::uint64_t chunk_tokens,
                                      bool last_chunk) const;

    /**
     * Executed statistics of @p steps batched generation steps: each
     * entry of @p kv_lens is one request's KV length at the first step,
     * and every step emits one token per request.
     *
     * One step is its cached entry, memoized under the sorted KV-length
     * multiset — request order never changes the cost — in the pool's
     * store, a FIFO bounded to maxBatchEntries (a replica's keys rarely
     * recur within a drain, since every member's KV length advances
     * each step, but equal replicas serving one batch mix meet the same
     * multisets). Returned by value, copied under the store's lock:
     * another replica's insert may evict the entry as soon as that lock
     * is released. A batch of one resolves to the scalar
     * generation-step entry that run() uses, so batch-1 numbers equal
     * the unbatched path bit for bit (the batching cost model's
     * regression anchor).
     *
     * More steps are a trapezoid over the segment: its entry step and
     * the step at every KV length plus @p steps, each weighted
     * steps / 2. The exit sample is the next segment's entry, so
     * back-to-back segments with unchanged membership share entries.
     */
    RunStats generationStepStats(std::vector<std::uint64_t> kv_lens,
                                 std::uint64_t steps = 1) const;

    /**
     * Build ahead the batched steps that @p steps generation steps of a
     * batch at KV lengths @p kv_lens will look up, when no member can
     * join or leave before they are done: the samples of segments of
     * @p token_stride steps, the last one shorter, as
     * generationStepStats takes them. Under the store's lock it builds
     * and runs every such key that the store neither holds nor has
     * built ahead already, on up to hardware_concurrency() threads that
     * take no lock. The results wait in the store, out of its table and
     * uncounted, until a generationStepStats miss on the key takes one
     * instead of executing and then inserts and counts it as it always
     * does: table contents, FIFO evictions, every CacheStats counter and
     * every result stay those of the serial path, since an entry is a
     * pure function of its key. A batch of one builds nothing. Rejects
     * the batches generationStepStats rejects, and a zero
     * @p token_stride, with a fatal error.
     */
    void buildStepsAhead(std::vector<std::uint64_t> kv_lens,
                         std::uint64_t steps, unsigned token_stride) const;

    /** Batched steps the store this replica reads has built ahead, in
     *  total (test introspection). */
    std::uint64_t stepsBuiltAhead() const;

    /** Batched steps built ahead that no miss has taken yet (test
     *  introspection). */
    std::size_t stepsWaitingAhead() const;

    /** Most batched-step entries the pool's store retains (FIFO
     *  eviction; safe because entries are pure recomputable functions
     *  of the key). */
    static constexpr std::size_t maxBatchEntries = 1024;

    /**
     * Estimated wall ms of @p request's generation stage served alone
     * on this replica: (output - 1) steps charged at the midpoint-KV
     * step cost (token latency is smooth in KV length, so the midpoint
     * sample is the one-point trapezoid). 0 for encoders and
     * single-token outputs.
     *
     * Heterogeneity-aware routers need to know how fast *this* replica
     * serves the candidate request, not how busy it has been: the drain
     * fills ReplicaStatus::estGenMs from this, and estPrefillMs from
     * the prefillChunkStats entry the dispatch would run. Both are
     * executed on this replica's own device model, so an NPU-MEM
     * replica or a different tensor-parallel degree honestly reports
     * different numbers, and both are pure functions of the replica
     * configuration and the request shape (never of cache history), so
     * routing decisions do not depend on what a replica happened to
     * serve earlier.
     */
    double
    estimateGenerationMs(const workloads::InferenceRequest &request) const;

    const SystemConfig &config() const { return cfg_; }
    const workloads::ModelConfig &model() const { return model_; }
    const compiler::BuildOptions &options() const { return opts_; }
    const compiler::WorkloadBuilder &builder() const { return builder_; }

    const CacheStats &cacheStats() const { return cache_; }

    /** Cached entry count of the store this replica reads: one per
     *  distinct program that it or an equal replica of its pool has
     *  served (summarization, chunk, generation and batched-step
     *  stats). The request memo holds no programs and is not
     *  counted. */
    std::size_t cachedPrograms() const;

    /** The sorted KV-length multiset of every batched-step entry in the
     *  store this replica reads (test introspection). */
    std::vector<std::vector<std::uint64_t>> batchedKeys() const;

  private:
    friend class DevicePool;

    using ChunkKey = std::tuple<std::uint64_t, std::uint64_t, bool>;
    /** run()'s memo key: (input tokens, output tokens, stride). */
    using RequestKey = std::tuple<std::uint64_t, std::uint64_t, unsigned>;

    template <class Key> using Table = FifoMap<Key, RunStats>;

    /** What one thread builds and runs a miss with. */
    struct Worker
    {
        /** The last program this worker ran, kept for its storage. */
        isa::Program spare;
        /** Built by the worker's first miss; it keeps its buffers from
         *  miss to miss. */
        std::optional<ExecutionEngine> engine;
    };

    /** The entries every replica of one triple in a pool shares. The
     *  device model is deterministic, so memoizing a program's stats
     *  makes a replayed request nearly free. */
    struct Store
    {
        std::mutex mutex; ///< guards everything below
        Table<std::uint64_t> summarization;
        Table<std::uint64_t> generation;
        // Resumed prefill chunks, keyed by (prior, chunk, has LM head).
        // Unbounded like the summarization cache: requests of equal
        // prompt length resume at the same chunk-aligned offsets, so
        // these keys recur across a serving trace.
        Table<ChunkKey> chunk;
        // Batched steps, keyed by the sorted KV-length multiset and
        // bounded to maxBatchEntries FIFO: every member's KV length
        // advances each step, so keys rarely recur within a drain, and
        // an unbounded cache would grow linearly with simulated tokens.
        // The bound keeps the hit patterns that matter — consecutive
        // segments share trapezoid endpoints, and equal replicas meet
        // the same multisets — while capping memory.
        Table<std::vector<std::uint64_t>> batch{maxBatchEntries};
        /** Batched steps buildStepsAhead ran that no lookup has taken
         *  yet. A key here is never in the batched table: it enters
         *  only through the miss that takes it from here. */
        std::map<std::vector<std::uint64_t>, RunStats> ahead;
        std::uint64_t aheadBuilds = 0; ///< keys buildStepsAhead ran
        /** One per thread that builds at once: the first serves every
         *  miss, and buildStepsAhead's threads one each. A deque, since
         *  an engine cannot move. */
        std::deque<Worker> workers = std::deque<Worker>(1);
    };

    /** Use @p peer's store from now on (DevicePool, equal triples). The
     *  indexes pointed into the old store, so they start over. */
    void
    shareStore(const CompiledModel &peer)
    {
        store_ = peer.store_;
        summarizationIndex_ = FrontIndex{};
        generationIndex_ = FrontIndex{};
    }

    /**
     * A dense index by token count into the store's summarization or
     * generation table, so that a hit on an entry this replica has
     * served before is one array read, without the lock. Those tables
     * are unbounded and never cleared, and a map entry never moves, so
     * a pointer stays valid as long as the store; the entry was written
     * before this replica found it under the lock, and is never written
     * again. Token counts from maxIndexedTokens on stay unindexed.
     */
    struct FrontIndex
    {
        static constexpr std::uint64_t maxIndexedTokens = 1 << 14;

        std::vector<const RunStats *> at;

        const RunStats *
        find(std::uint64_t tokens) const
        {
            return tokens < at.size() ? at[tokens] : nullptr;
        }

        void add(std::uint64_t tokens, const RunStats &stats);
    };

    /** The entry of @p key in the store's @p table, on a miss taking
     *  @p ready when given, else executing @p build; counts a hit or a
     *  build in @p hits / @p builds, and in batchEvictions an entry the
     *  insert evicted. The caller holds the store's lock, so a pool
     *  builds each key once even when shards on several threads miss it
     *  together. An entry of an unbounded table stays valid as long as
     *  the store; a batched entry only while the lock is held. */
    template <class Key, class Build>
    const RunStats &cached(Table<Key> Store::*table, const Key &key,
                           std::uint64_t &hits, std::uint64_t &builds,
                           const Build &build,
                           const RunStats *ready = nullptr) const;

    /** cached() for a table keyed by token count: through @p index,
     *  else under the store's lock. */
    template <class Build>
    const RunStats &indexed(FrontIndex &index,
                            Table<std::uint64_t> Store::*table,
                            std::uint64_t tokens, std::uint64_t &hits,
                            std::uint64_t &builds,
                            const Build &build) const;

    const RunStats &summarization(std::uint64_t input_tokens) const;
    const RunStats &generation(std::uint64_t kv_len) const;
    /** One batched step over the sorted KV-length multiset @p key. */
    RunStats batchStep(const std::vector<std::uint64_t> &key) const;
    /** run() without the memo: the request costed from program stats. */
    InferenceReport cost(const workloads::InferenceRequest &request,
                         unsigned token_stride) const;
    /** Executed statistics of the full program build(nBlocks), from
     *  one run of build(2) when the model's blocks are uniform;
     *  @p build maps a block count and storage to fill to a Program.
     *  It builds into @p worker's spare program, keeps the result
     *  there, and runs it on @p worker's engine, which no other thread
     *  may use meanwhile: a miss holds the store's lock, and each of
     *  buildStepsAhead's threads has a worker of its own. */
    template <class Build>
    RunStats execute(Worker &worker, const Build &build) const;

    SystemConfig cfg_;
    workloads::ModelConfig model_;
    compiler::BuildOptions opts_;
    compiler::WorkloadBuilder builder_;

    std::shared_ptr<Store> store_;
    // This replica's indexes into the store, read without a lock, since
    // a replica is driven by one thread at a time.
    mutable FrontIndex summarizationIndex_;
    mutable FrontIndex generationIndex_;
    // run()'s whole-request memo, per replica and unlocked like the
    // indexes.
    mutable FifoMap<RequestKey, InferenceReport> requests_{
        maxRequestEntries};
    mutable CacheStats cache_;
};

} // namespace ianus::serve

#endif // IANUS_SERVE_COMPILED_MODEL_HH
