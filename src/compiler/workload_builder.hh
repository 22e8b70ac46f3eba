/**
 * @file
 * The compiler: lowers a transformer configuration onto IANUS as a
 * command DAG, implementing PIM Access Scheduling (Section 5).
 *
 * Workload mapping (Fig 6):
 *  - Q/K/V FC weights are partitioned head-wise across PIM chips; core i
 *    works with chip i so KV traffic parallelizes across the memory.
 *  - All other FCs (attention output, FFN, LM head) are partitioned
 *    column-wise across cores (and devices), so no reduction is needed —
 *    only activation allgathers at the four per-block sync points (after
 *    multi-head attention, after each residual addition, after GELU).
 *  - Layer normalization and residual addition run on the vector unit.
 *
 * Scheduling (Fig 7):
 *  - Summarization: FCs on the matrix unit with weight prefetching;
 *    key transpose through the on-chip streaming path overlapped with
 *    value generation; values moved to the weight scratchpad during
 *    softmax; inter-head weight prefetch.
 *  - Generation: FCs on the PIM (per Algorithm 1); QKᵀ/SV on the matrix
 *    unit (default) with key concat on the VU overlapped with PIM query
 *    generation, KV stores + V_cat load during softmax, K_pre prefetch of
 *    the next head during SV — or on the PIM (the Fig 7b ablation).
 *  - Naive mode serializes each core's commands in program order: no
 *    prefetch, no transpose overlap, no PIM/NPU parallelism. This is the
 *    Fig 13 "no scheduling" baseline.
 *
 * Memory modes: unified (weights live once, in PIM memory) vs partitioned
 * (weights duplicated across the DRAM and PIM halves when capacity
 * allows; spilled weights live in the DRAM half only and their FCs run on
 * the matrix unit — the GPT-2 2.5B case of Fig 13).
 */

#ifndef IANUS_COMPILER_WORKLOAD_BUILDER_HH
#define IANUS_COMPILER_WORKLOAD_BUILDER_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "compiler/adaptive_mapper.hh"
#include "ianus/system_config.hh"
#include "isa/program.hh"
#include "workloads/model_config.hh"

namespace ianus::compiler
{

/** PAS (Fig 7 structures) vs naive serialization (Fig 13 baseline). */
enum class SchedulingPolicy : std::uint8_t { Naive, Pas };

const char *toString(SchedulingPolicy policy);

/** Where QKᵀ and SV execute in the generation stage (Section 5.3). */
enum class AttnMapping : std::uint8_t { MatrixUnit, Pim };

const char *toString(AttnMapping mapping);

/** Compiler options selecting the paper's design points. */
struct BuildOptions
{
    SchedulingPolicy policy = SchedulingPolicy::Pas;
    AttnMapping attnMapping = AttnMapping::MatrixUnit;
    FcPlacement fcPlacement = FcPlacement::Adaptive;
    unsigned devices = 1; ///< multi-IANUS scaling (Section 7.1)

    bool operator==(const BuildOptions &) const = default;
};

/** Per-FC shape/placement summary (test/bench introspection). */
struct FcPlan
{
    const char *what;
    std::uint64_t tokens;
    std::uint64_t k;
    std::uint64_t n;      ///< per-core output slice
    FcUnit unit;
    bool geluFused;
};

/** The compiler. */
class WorkloadBuilder
{
  public:
    WorkloadBuilder(const SystemConfig &sys,
                    const workloads::ModelConfig &model,
                    const BuildOptions &opts = BuildOptions{});

    /** Summarization stage over @p input_tokens (includes embedding and,
     *  for decoders, the LM head that emits the first output token).
     *  Exactly buildSummarizationChunk(0, input_tokens, true). */
    isa::Program buildSummarization(std::uint64_t input_tokens) const;

    /**
     * One chunked-prefill segment: resume the summarization with
     * @p prior_tokens already in the KV cache and process the next
     * @p chunk_tokens of the prompt. Per head, the chunk reloads the
     * prior keys/values from the KV cache and widens QKᵀ, the masked
     * softmax, and SV to the @p prior_tokens + @p chunk_tokens context
     * — so the causal mask's upper triangle is never computed across
     * chunks, at the price of re-streaming the FC weights and the
     * prior KV once per chunk. Only the @p last_chunk runs the LM
     * head (it emits the first output token).
     *
     * With prior_tokens == 0 and last_chunk, this emits exactly the
     * buildSummarization program (the chunked builder *is* the
     * monolithic builder at that point — the fallback anchor).
     * Decoder models only when resuming (prior_tokens > 0) or
     * deferring the head (!last_chunk): encoder attention is
     * bidirectional and cannot be chunked causally.
     *
     * @p blocks truncates the program to its first @p blocks
     * transformer blocks (default: all of them), compiled under the
     * full model's decisions — see uniformBlocks().
     *
     * The program is built into @p storage, whose contents are dropped
     * and whose capacity is kept: a caller that builds many programs
     * can pass the last one back in, and the program then allocates
     * nothing once it fits.
     */
    isa::Program
    buildSummarizationChunk(std::uint64_t prior_tokens,
                            std::uint64_t chunk_tokens, bool last_chunk,
                            std::optional<std::uint64_t> blocks = {},
                            isa::Program storage = {}) const;

    /** One generation step with @p kv_len keys/values already cached. */
    isa::Program buildGenerationToken(std::uint64_t kv_len) const;

    /**
     * One *batched* generation step: each entry of @p kv_lens is one
     * request's current KV length, and the step emits one token per
     * request. FC layers outside attention (attention output, FFN, LM
     * head) see the whole batch as one multi-token GEMM, so on the
     * matrix unit their weight traffic is shared across the batch —
     * while QKV generation and QKᵀ/SV attention stay per request (the
     * PIM has no token batching; each request repeats its own GEMV over
     * its own KV cache). The adaptive mapper re-decides every shared FC
     * at the batched token count, so a batch can flip an FC from PIM
     * back to the matrix unit once amortized weight streaming wins.
     *
     * A batch of one emits exactly the buildGenerationToken program.
     * @p blocks truncates the program and @p storage holds it, as in
     * buildSummarizationChunk().
     */
    isa::Program
    buildGenerationBatch(const std::vector<std::uint64_t> &kv_lens,
                         std::optional<std::uint64_t> blocks = {},
                         isa::Program storage = {}) const;

    /** FC-only program (all blocks) for the Fig 12 mapping study. */
    isa::Program buildFcSweep(std::uint64_t tokens) const;

    /** The generation-stage FC placement decisions. */
    std::vector<FcPlan> generationFcPlans() const;

    // --- Partitioning introspection ------------------------------------

    /** Parallel ways = cores × devices. */
    unsigned ways() const { return sys_.cores * opts_.devices; }

    /** Attention heads each core processes. */
    std::uint64_t
    headsPerCore() const
    {
        return ceilDiv(model_.nHeads, std::uint64_t{ways()});
    }

    /** Column-wise slice of an FC output dimension per core. */
    std::uint64_t
    colSlice(std::uint64_t dim) const
    {
        return ceilDiv(dim, std::uint64_t{ways()});
    }

    /** Fraction of FC weights that cannot be duplicated (partitioned). */
    double nonDuplicatedFraction() const { return nonDupFraction_; }

    /**
     * Whether every transformer block compiles alike. A truncated
     * program (the blocks argument of the stage builders) keeps the
     * full model's per-block decisions; today the only one is whether
     * a block's FFN2 weights spill to the PIM half of a partitioned
     * memory, which splits partitioned GPT-2 2.5B into two kinds of
     * block.
     */
    bool uniformBlocks() const;

    const BuildOptions &options() const { return opts_; }
    const workloads::ModelConfig &model() const { return model_; }

  private:
    struct Ctx;

    SystemConfig sys_;
    workloads::ModelConfig model_;
    BuildOptions opts_;
    AnalyticalModel analytical_;
    double nonDupFraction_ = 0.0;
    /** SystemConfig::pimPoolChips(), counted once for pimChipMask(). */
    unsigned pimPoolChips_ = 0;

    // Emission helpers -------------------------------------------------
    std::uint32_t emit(Ctx &ctx, std::uint16_t core, isa::UnitKind unit,
                       isa::OpClass cls, isa::Payload payload,
                       isa::Deps deps) const;

    std::uint32_t
    emit(Ctx &ctx, std::uint16_t core, isa::UnitKind unit,
         isa::OpClass cls, isa::Payload payload,
         std::initializer_list<std::uint32_t> deps) const
    {
        return emit(ctx, core, unit, cls, std::move(payload),
                    isa::Deps(deps.begin(), deps.size()));
    }

    void barrier(Ctx &ctx, isa::OpClass cls,
                 std::uint64_t inter_device_bytes = 0) const;
    std::uint32_t emitGather(Ctx &ctx, std::uint16_t core,
                             std::uint64_t full_bytes,
                             isa::OpClass cls) const;
    std::uint32_t emitFc(Ctx &ctx, std::uint16_t core, isa::OpClass cls,
                         const FcMappingDecision &decision,
                         std::uint64_t tokens, std::uint64_t k,
                         std::uint64_t n_slice, bool gelu_after,
                         bool weights_on_pim_side, isa::Deps deps) const;

    std::uint32_t
    emitFc(Ctx &ctx, std::uint16_t core, isa::OpClass cls,
           const FcMappingDecision &decision, std::uint64_t tokens,
           std::uint64_t k, std::uint64_t n_slice, bool gelu_after,
           bool weights_on_pim_side,
           std::initializer_list<std::uint32_t> deps) const
    {
        return emitFc(ctx, core, cls, decision, tokens, k, n_slice,
                      gelu_after, weights_on_pim_side,
                      isa::Deps(deps.begin(), deps.size()));
    }

    // Stage pieces ------------------------------------------------------
    /** The embedding loads of @p tokens tokens, one per core. */
    void embed(Ctx &ctx, std::uint64_t tokens) const;
    /** A block's first LayerNorm over @p tokens tokens on every core;
     *  returns each core's command. */
    std::vector<std::uint32_t> layerNorm1(Ctx &ctx,
                                          std::uint64_t tokens) const;
    /** A block after its attention, over @p n tokens: sync 1, the
     *  attention-output FC and residual, sync 2, LN2 and FFN1, sync 3,
     *  FFN2 and residual, and sync 4, which closes the block. */
    void blockTail(Ctx &ctx, std::uint64_t n) const;
    void blockGeneration(Ctx &ctx,
                         const std::vector<std::uint64_t> &kv_lens) const;
    void blockSummarization(Ctx &ctx, std::uint64_t prior,
                            std::uint64_t n) const;
    void attentionGenerationMu(Ctx &ctx, std::uint16_t core,
                               std::uint64_t kv_len,
                               std::uint32_t ln_dep) const;
    void attentionGenerationPim(Ctx &ctx, std::uint16_t core,
                                std::uint64_t kv_len,
                                std::uint32_t ln_dep) const;
    void lmHead(Ctx &ctx, std::uint64_t tokens) const;
    std::uint64_t blockCount(std::optional<std::uint64_t> blocks) const;

    // Placement ----------------------------------------------------------
    FcMappingDecision decideFc(std::uint64_t tokens, std::uint64_t k,
                               std::uint64_t n_slice, bool first_of_ffn,
                               std::optional<std::uint64_t> prev_vu) const;
    bool ffn2NonDuplicated(std::uint64_t block) const;
    dram::ChannelSet weightMask(bool on_pim_side) const;
    dram::ChannelSet pimChipMask(std::uint16_t core) const;
    dram::ChannelSet kvMask(std::uint16_t core) const;
    void checkCapacity(std::uint64_t prior, std::uint64_t tokens) const;
};

} // namespace ianus::compiler

#endif // IANUS_COMPILER_WORKLOAD_BUILDER_HH
