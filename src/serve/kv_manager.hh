/**
 * @file
 * KV-cache memory as a first-class serving resource.
 *
 * Without this layer nothing bounds a replica's resident KV: replicas
 * admit by batch-slot count alone, so a long-context burst costs
 * nothing. KvBlockManager turns the DRAM geometry the simulator
 * already owns (`SystemConfig::mem`: channels x banks x rows x row
 * bytes) into a per-replica KV *block* budget and charges every
 * resident — and every parked evictee — against it:
 *
 *  - **Capacity** derives from the channel geometry: the device's DRAM
 *    bytes minus one copy of the model weights, divided by the model's
 *    per-token KV footprint (2 x nBlocks x nHeads x headDim x BF16 for
 *    K and V). `deriveKvCapacityTokens()` is that arithmetic;
 *    `KvOptions::capacityTokens` may also be set explicitly (0 keeps
 *    the pre-PR-6 unbounded behavior, bit for bit).
 *
 *  - **Paged allocation** (vLLM-style): KV occupies fixed-size blocks
 *    of `blockTokens` tokens; a request's reservation is
 *    ceil(tokens / block) blocks, so internal fragmentation is modeled
 *    rather than assumed away (`fragWasteTokens()` counts the waste at
 *    release). Admission reserves the request's *worst-case* KV
 *    (prompt + all output tokens): under the PR-4 eviction contract a
 *    parked evictee's KV stays on-replica — eviction can never free a
 *    resident's cache — so worst-case reservation is what guarantees
 *    every admitted request can always grow to completion. Parking
 *    *shrinks* the charge to the blocks actually written (the unused
 *    headroom goes back to the pool, which is the throughput point of
 *    evicting), and resuming re-reserves it — blocked until blocks
 *    free up.
 *
 *  - **Admission control** (`KvAdmission`): `none` keeps slot-count
 *    admission — reservations overcommit, and KV beyond capacity
 *    spills to host memory over PCIe, dilating every segment on the
 *    over-committed replica by the spilled fraction of its KV traffic
 *    (`dilation()`; the DRAM-vs-PCIe bandwidth ratio from the same
 *    SystemConfig). `queue` holds a request in the ready queue until
 *    some replica has blocks; `shed` drops it at the admission attempt
 *    instead (load shedding).
 *
 *  - **Address-mapping layout** (`KvLayout`, after UMDAM's unified vs
 *    partitioned DRAM mappings): `unified` places KV blocks anywhere
 *    in the device's channels — one pool, full aggregate read
 *    bandwidth (`readBandwidthGBs`). `partitioned` splits the block
 *    pool into an NPU-DRAM region and a PIM region (half the channels
 *    each, mirroring MemoryMode::Partitioned); a request's blocks live
 *    entirely in one region, chosen emptier-first at admission, so its
 *    KV reads see half the channels and a skewed region fills — and
 *    spills or sheds — while the other still has room. The bandwidth
 *    and overflow cost of partitioning is thereby measurable
 *    (bench/micro_kv_capacity gates on it).
 *
 * The manager is deterministic arithmetic over the engine's
 * deterministic events — no clock, no randomness — so capacity-bounded
 * drains replay bit-identically, and `capacityTokens == 0` leaves the
 * engine's numbers untouched.
 */

#ifndef IANUS_SERVE_KV_MANAGER_HH
#define IANUS_SERVE_KV_MANAGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ianus/system_config.hh"
#include "workloads/model_config.hh"

namespace ianus::serve
{

/** What happens when a request's KV reservation does not fit. */
enum class KvAdmission : std::uint8_t
{
    None,  ///< slot-count admission; overcommitted KV spills over PCIe
    Queue, ///< hold the request in the ready queue until blocks free
    Shed   ///< drop the request at the admission attempt
};

/** KV block placement across the device's DRAM channels (UMDAM). */
enum class KvLayout : std::uint8_t
{
    Unified,    ///< one pool over all channels, full read bandwidth
    Partitioned ///< NPU / PIM half-pools; a request lives in one region
};

const char *toString(KvAdmission admission);
const char *toString(KvLayout layout);

/** Admission by name: "none", "queue", "shed". Unknown is fatal. */
KvAdmission makeKvAdmission(const std::string &name);

/** Layout by name: "unified", "partitioned". Unknown is fatal. */
KvLayout makeKvLayout(const std::string &name);

/** KV-capacity knobs (ServingOptions::kv). */
struct KvOptions
{
    /** Per-replica KV capacity in tokens. 0 = unbounded: the whole KV
     *  layer is off and the engine's numbers are bit-identical to the
     *  pre-capacity behavior. */
    std::uint64_t capacityTokens = 0;

    /** Tokens per KV block (the paging granularity; reservations are
     *  ceil(tokens / blockTokens) blocks). Must be positive. */
    std::uint64_t blockTokens = 16;

    /** What to do when a reservation does not fit (needs capacity). */
    KvAdmission admission = KvAdmission::None;

    /** Address mapping of KV blocks across DRAM channels. */
    KvLayout layout = KvLayout::Unified;

    bool enabled() const { return capacityTokens > 0; }

    /** Fatal unless these knobs make sense together: a positive block
     *  size, an admission mode other than none only with a capacity, and
     *  a capacity of at least one block (two, partitioned). */
    void check() const;
};

/** Bytes of KV cache one token occupies for @p model (K and V across
 *  all blocks and heads, BF16). */
std::uint64_t kvBytesPerToken(const workloads::ModelConfig &model);

/**
 * Per-replica KV capacity in tokens, derived from the DRAM channel
 * geometry: channels x banks x rows-per-bank x row bytes of @p sys
 * gives the device's DRAM bytes; one copy of the model weights comes
 * off the top; the rest divided by kvBytesPerToken() is the token
 * budget. Fatal if the weights alone exceed the device's DRAM.
 */
std::uint64_t deriveKvCapacityTokens(const SystemConfig &sys,
                                     const workloads::ModelConfig &model);

// --- Prefill -> decode KV transfer cost --------------------------------------

/** Bytes a @p tokens-token KV occupies on the prefill->decode link for
 *  @p model: tokens x kvBytesPerToken() — exactly the cache the decode
 *  side must hold before generation can start. */
std::uint64_t kvTransferBytes(const workloads::ModelConfig &model,
                              std::uint64_t tokens);

/**
 * Default prefill->decode link bandwidth in GB/s, derived from the
 * *source* replica's PCIe parameters: the per-tick PCIe byte rate
 * scaled to GB/s (ticks are ps, so GB/s = bytesPerTick x 1000), times
 * the DMA efficiency the spill model already charges. This is the
 * honest "host-mediated handoff" cost when ServingOptions::kvLinkGBs
 * is left at 0.
 */
double deriveKvLinkGBs(const SystemConfig &sys);

/** Milliseconds @p bytes take at @p link_gbs GB/s. Monotone and linear
 *  in bytes at fixed bandwidth; +infinity bandwidth is the exact-zero
 *  cost link (bytes still counted). Fatal if @p link_gbs is not
 *  positive. */
double kvTransferMs(std::uint64_t bytes, double link_gbs);

/**
 * One replica's KV block pool. The ServingEngine drives it at the same
 * event boundaries it already schedules at: admit() at dispatch,
 * setUsed() as segments advance KV, park()/resume() around the PR-4
 * eviction contract, release() at completion. All quantities are exact
 * integers (blocks, tokens); the only doubles are the derived metrics.
 */
class KvBlockManager
{
  public:
    /** @p opts must be enabled and pass check(); @p sys supplies the
     *  DRAM-vs-PCIe bandwidth ratio the spill model charges. */
    KvBlockManager(const KvOptions &opts, const SystemConfig &sys);

    /** Blocks a @p tokens-token KV occupies (ceil — the internal
     *  fragmentation paging models). */
    std::uint64_t blocksFor(std::uint64_t tokens) const;

    /** Pool size in blocks (floor(capacityTokens / blockTokens),
     *  summed over regions). */
    std::uint64_t totalBlocks() const;

    /** Unreserved blocks; negative under `none`-admission overcommit. */
    std::int64_t freeBlocks() const;

    /** Reserved / total blocks. > 1 means overcommitted (spilling). */
    double pressure() const;

    /** High-water pressure over the manager's lifetime. */
    double peakPressure() const { return peakPressure_; }

    /** Could a fresh request with @p max_tokens worst-case KV reserve
     *  now? Some single region must fit it (a partitioned request
     *  cannot straddle regions). Always true under `none` admission
     *  (overcommit is the policy). */
    bool canAdmit(std::uint64_t max_tokens) const { return fits(max_tokens); }

    /** Whether @p max_tokens can fit an *empty* pool — the admissible
     *  ceiling (region size under partitioned). A request beyond it
     *  can never dispatch under `queue` admission. */
    bool canEverAdmit(std::uint64_t max_tokens) const;

    /** Reserve worst-case blocks for request @p id (fatal if the id is
     *  already resident, or if the reservation does not fit and the
     *  admission mode is not `none`). Partitioned placement picks the
     *  region with more free blocks (ties: the NPU region). */
    void admit(std::uint64_t id, std::uint64_t max_tokens);

    /** Record the KV tokens request @p id has actually written
     *  (monotone; clamped to the admitted worst case). Drives the
     *  spill model and the fragmentation metric. */
    void setUsed(std::uint64_t id, std::uint64_t tokens);

    /** Park an evicted resident: its written KV stays charged (the
     *  PR-4 contract keeps the cache on-replica) but the un-grown
     *  headroom returns to the pool. */
    void park(std::uint64_t id);

    /** Can the parked request @p id re-reserve its headroom now? */
    bool canResume(std::uint64_t id) const;

    /** Would parking running resident @p victim free enough blocks for
     *  a fresh @p max_tokens admission? Gates eviction-for-KV: an
     *  eviction that would not unblock its beneficiary is pure churn.
     *  Always true under `none` admission. */
    bool parkWouldAdmit(std::uint64_t victim,
                        std::uint64_t max_tokens) const;

    /** Would parking running resident @p victim free enough blocks for
     *  the parked request @p cand to resume? */
    bool parkWouldResume(std::uint64_t victim, std::uint64_t cand) const;

    /** Would releasing resident @p old_id (running or parked — a
     *  pinned session prefix is a parked resident) free enough blocks
     *  for a fresh @p max_tokens admission? Gates the prefix-cache hit
     *  path, where the pinned prior turn's KV is released in the same
     *  dispatch that admits the new turn. Always true under `none`
     *  admission. */
    bool releaseWouldAdmit(std::uint64_t old_id,
                           std::uint64_t max_tokens) const;

    /** Re-reserve the parked request's worst case (fatal if it does
     *  not fit and admission is not `none`). */
    void resume(std::uint64_t id);

    /** Release request @p id's blocks (completion) and sample its
     *  internal fragmentation. */
    void release(std::uint64_t id);

    /** Resident KV tokens (written, including parked evictees). */
    std::uint64_t residentTokens() const;

    /** Segment-time dilation of the spill model: KV written beyond a
     *  region's capacity lives in host memory, so the spilled fraction
     *  of the replica's KV traffic runs at PCIe instead of DRAM
     *  bandwidth. 1.0 exactly when nothing spills. */
    double dilation() const;

    /** Fragmentation numerator/denominator for fleet-level merging. */
    std::uint64_t fragWasteTokens() const { return fragWaste_; }
    std::uint64_t fragGrossTokens() const { return fragGross_; }

    /**
     * Effective KV *read* bandwidth of @p layout on @p sys in GB/s:
     * unified KV stripes over every channel; a partitioned request's
     * blocks live in one half-pool, so its attention reads see half
     * the channels. (DMA efficiency applies to both — the UMDAM
     * bandwidth cost of partitioning, reported by the bench.)
     */
    static double readBandwidthGBs(const SystemConfig &sys,
                                   KvLayout layout);

  private:
    struct Region
    {
        std::uint64_t capBlocks = 0;
        std::int64_t freeBlocks = 0; ///< negative when overcommitted
        std::uint64_t usedTokens = 0;
    };

    struct Resident
    {
        std::size_t region = 0;
        std::uint64_t reservedBlocks = 0;
        std::uint64_t maxTokens = 0;
        std::uint64_t usedTokens = 0;
        bool parked = false;
    };

    void notePressure();

    /** Could a fresh @p max_tokens reservation fit some single region
     *  once @p freed blocks return to region @p region? Always true
     *  under `none` admission. */
    bool fits(std::uint64_t max_tokens, std::size_t region = 0,
              std::uint64_t freed = 0) const;

    KvOptions opts_;
    double spillFactor_ = 1.0; ///< DRAM / PCIe bandwidth ratio
    std::vector<Region> regions_;
    std::map<std::uint64_t, Resident> requests_;
    double peakPressure_ = 0.0;
    std::uint64_t fragWaste_ = 0;
    std::uint64_t fragGross_ = 0;
};

} // namespace ianus::serve

#endif // IANUS_SERVE_KV_MANAGER_HH
