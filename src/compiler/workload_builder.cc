#include "compiler/workload_builder.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ianus::compiler
{

using isa::OpClass;
using isa::UnitKind;
using isa::VuOpKind;

const char *
toString(SchedulingPolicy policy)
{
    switch (policy) {
      case SchedulingPolicy::Naive: return "naive";
      case SchedulingPolicy::Pas: return "pas";
    }
    return "?";
}

const char *
toString(AttnMapping mapping)
{
    switch (mapping) {
      case AttnMapping::MatrixUnit: return "mu";
      case AttnMapping::Pim: return "pim";
    }
    return "?";
}

/** Build-time emission state. */
struct WorkloadBuilder::Ctx
{
    isa::Program prog;
    std::vector<std::optional<std::uint32_t>> tail; ///< per-core last cmd
    std::optional<std::uint32_t> gate;              ///< last barrier
    std::uint64_t blockIndex = 0;
    std::vector<std::uint32_t> deps; ///< the next command's, reused

    /** Emit into @p storage, emptied first. */
    Ctx(unsigned cores, isa::Program storage)
        : prog(std::move(storage)), tail(cores)
    {
        prog.clear();
    }
};

WorkloadBuilder::WorkloadBuilder(const SystemConfig &sys,
                                 const workloads::ModelConfig &model,
                                 const BuildOptions &opts)
    : sys_(sys), model_(model), opts_(opts), analytical_(sys)
{
    sys_.validate();
    IANUS_ASSERT(opts_.devices >= 1, "need at least one device");

    // Partitioned memory: weights that cannot be duplicated across both
    // halves live only in the NPU's DRAM half and run on the matrix unit
    // (Section 6.2, Fig 13's GPT-2 2.5B case).
    if (sys_.memoryMode == MemoryMode::Partitioned && sys_.pimEnabled) {
        double w = static_cast<double>(model_.weightBytes()) /
                   static_cast<double>(opts_.devices);
        double cap = static_cast<double>(sys_.mem.capacityBytes);
        double non_dup = std::max(0.0, 2.0 * w - cap);
        nonDupFraction_ = std::min(1.0, non_dup / w);
    }

    if (opts_.attnMapping == AttnMapping::Pim && !sys_.pimEnabled)
        IANUS_FATAL("PIM attention mapping requires PIM");
    pimPoolChips_ = sys_.pimPoolChips();
}

// ---------------------------------------------------------------------
// Emission helpers
// ---------------------------------------------------------------------

std::uint32_t
WorkloadBuilder::emit(Ctx &ctx, std::uint16_t core, UnitKind unit,
                      OpClass cls, isa::Payload payload,
                      isa::Deps deps) const
{
    std::vector<std::uint32_t> &all = ctx.deps;
    all.assign(deps.begin(), deps.end());
    if (ctx.gate)
        all.push_back(*ctx.gate);
    // Naive scheduling: the compiler emits a serial per-core chain —
    // no prefetch, no unit-level overlap (the Fig 13 baseline).
    if (opts_.policy == SchedulingPolicy::Naive && ctx.tail[core])
        all.push_back(*ctx.tail[core]);
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    std::uint32_t id = ctx.prog.add(core, unit, cls, std::move(payload), all);
    ctx.tail[core] = id;
    return id;
}

void
WorkloadBuilder::barrier(Ctx &ctx, OpClass cls,
                         std::uint64_t inter_device_bytes) const
{
    std::vector<std::uint32_t> &deps = ctx.deps;
    deps.clear();
    for (const auto &t : ctx.tail)
        if (t)
            deps.push_back(*t);
    isa::SyncArgs args;
    args.interDeviceBytes = opts_.devices > 1 ? inter_device_bytes : 0;
    std::uint32_t id = ctx.prog.add(0, UnitKind::Sync, cls, args, deps);
    ctx.gate = id;
    for (auto &t : ctx.tail)
        t = id;
}

std::uint32_t
WorkloadBuilder::emitGather(Ctx &ctx, std::uint16_t core,
                            std::uint64_t full_bytes, OpClass cls) const
{
    // Allgather of column-partitioned activations over the on-chip NoC:
    // each core already holds 1/ways of the vector.
    std::uint64_t bytes = full_bytes - full_bytes / ways();
    isa::DmaArgs dma;
    dma.bytes = bytes;
    dma.offChip = false;
    return emit(ctx, core, UnitKind::DmaIn, cls, dma, {});
}

std::uint32_t
WorkloadBuilder::emitFc(Ctx &ctx, std::uint16_t core, OpClass cls,
                        const FcMappingDecision &decision,
                        std::uint64_t tokens, std::uint64_t k,
                        std::uint64_t n_slice, bool gelu_after,
                        bool weights_on_pim_side, isa::Deps deps) const
{
    if (decision.unit == FcUnit::Pim) {
        pim::MacroCommand macro;
        macro.rows = n_slice;
        macro.cols = k;
        macro.hasBias = true;
        macro.fusedGelu = gelu_after; // GELU follows the FC into PIM
        macro.channelMask = pimChipMask(core);
        isa::PimArgs args{macro, tokens};
        std::uint32_t id = emit(ctx, core, UnitKind::Pim, cls, args, deps);
        pim::GemvTiling tiling = pim::GemvTiling::compute(
            n_slice, k, sys_.mem, sys_.mem.channelsPerChip);
        if (tiling.kTiles() > 1) {
            // Multi-slice K: per-slice partials summed on the VU.
            isa::VuArgs acc{VuOpKind::Accumulate, n_slice};
            id = emit(ctx, core, UnitKind::VectorUnit, cls, acc, {id});
        }
        return id;
    }

    isa::MuGemmArgs gemm;
    gemm.tokens = tokens;
    gemm.k = k;
    gemm.n = n_slice;
    gemm.weightBytes = k * n_slice * pim::elemBytes;
    gemm.weightChannels = weightMask(weights_on_pim_side);
    std::uint32_t id = emit(ctx, core, UnitKind::MatrixUnit, cls, gemm,
                            deps);
    if (gelu_after) {
        isa::VuArgs gelu{VuOpKind::Gelu, tokens * n_slice};
        id = emit(ctx, core, UnitKind::VectorUnit, cls, gelu, {id});
    }
    return id;
}

// ---------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------

FcMappingDecision
WorkloadBuilder::decideFc(std::uint64_t tokens, std::uint64_t k,
                          std::uint64_t n_slice, bool first_of_ffn,
                          std::optional<std::uint64_t> prev_vu) const
{
    if (!sys_.pimEnabled) {
        AnalyticalModel const &m = analytical_;
        FcMappingDecision d;
        d.unit = FcUnit::MatrixUnit;
        d.muTime = m.muFcTime(tokens, k, n_slice);
        d.pimTime = maxTick;
        return d;
    }
    AdaptiveMapper mapper(analytical_, sys_.mem.channelsPerChip,
                          opts_.fcPlacement);
    FcDescriptor fc;
    fc.tokens = tokens;
    fc.k = k;
    fc.n = n_slice;
    fc.firstOfFfn = first_of_ffn;
    fc.precedingVuElems = prev_vu;
    return mapper.decide(fc);
}

bool
WorkloadBuilder::ffn2NonDuplicated(std::uint64_t block) const
{
    if (nonDupFraction_ <= 0.0)
        return false;
    // FFN2 is one third of a block's FC weights; spill FFN2 weights first.
    double covered = std::min(nonDupFraction_, 1.0 / 3.0) * 3.0;
    return block < static_cast<std::uint64_t>(
                       covered * static_cast<double>(model_.nBlocks) + 0.5);
}

bool
WorkloadBuilder::uniformBlocks() const
{
    for (std::uint64_t b = 1; b < model_.nBlocks; ++b)
        if (ffn2NonDuplicated(b) != ffn2NonDuplicated(0))
            return false;
    return true;
}

dram::ChannelSet
WorkloadBuilder::weightMask(bool on_pim_side) const
{
    // Unified system: one copy of the weights, Fig-5 striped over every
    // channel (the same rows PIM computes on). Partitioned: the
    // duplicated copy sits in the DRAM half, spilled weights only in
    // the PIM half.
    if (sys_.memoryMode == MemoryMode::Unified)
        return sys_.dramChannelMask();
    return on_pim_side ? sys_.pimChannelMask() : sys_.dramChannelMask();
}

dram::ChannelSet
WorkloadBuilder::pimChipMask(std::uint16_t core) const
{
    // SystemConfig::pimChipMaskForCore without recounting the pool's
    // chips. Only PIM commands ask, and they need PIM.
    IANUS_ASSERT(pimPoolChips_ > 0, "PIM pool smaller than one chip");
    return dram::chipChannels(sys_.mem, core % pimPoolChips_);
}

dram::ChannelSet
WorkloadBuilder::kvMask(std::uint16_t core) const
{
    // Head-wise placement: each core's KV cache lives on its memory chip
    // so the cores reach the memory in parallel (Fig 6). Without PIM (or
    // in the partitioned system) KV lives in the plain-DRAM pool.
    if (sys_.pimEnabled && sys_.memoryMode == MemoryMode::Unified)
        return sys_.memoryChipMaskForCore(core);
    return sys_.dramChannelMask();
}

void
WorkloadBuilder::checkCapacity(std::uint64_t prior,
                               std::uint64_t tokens) const
{
    std::uint64_t per_device_weights =
        model_.weightBytes() / opts_.devices;
    if (per_device_weights > sys_.mem.capacityBytes)
        IANUS_FATAL(model_.name, " needs ",
                    per_device_weights / (1024 * 1024), " MiB per device ",
                    "but each device has ",
                    sys_.mem.capacityBytes / (1024 * 1024),
                    " MiB of memory — use more devices");

    // A chunked-prefill segment scores its tokens against the full
    // prior + chunk context, so the score matrix is what grows with
    // the resume offset — which is also why chunking *shrinks* the
    // working set versus a monolithic prefill of the same prompt
    // (tokens × context ≤ prompt²).
    const std::uint64_t e = model_.embDim;
    std::uint64_t am_need =
        (3 * tokens * e + tokens * (prior + tokens) +
         2 * tokens * model_.headDim) * pim::elemBytes;
    if (am_need > sys_.coreMem.actScratchpadBytes)
        IANUS_FATAL("activation working set (", am_need,
                    " B) exceeds the activation scratchpad");
    // The WM double-buffers one head weight matrix (Q, K and V loads
    // reuse the buffers; the next head's matrix prefetches into the
    // spare) or a pair of MU tiles for streamed FCs, whichever is
    // larger.
    std::uint64_t wm_need =
        std::max<std::uint64_t>(2 * model_.headDim * e * pim::elemBytes,
                                2ull * sys_.mu.tileK() * sys_.mu.tileN() *
                                    pim::elemBytes);
    if (wm_need > sys_.coreMem.weightScratchpadBytes)
        IANUS_FATAL("weight working set (", wm_need,
                    " B) exceeds the weight scratchpad");
}

// ---------------------------------------------------------------------
// Pieces every stage shares
// ---------------------------------------------------------------------

void
WorkloadBuilder::embed(Ctx &ctx, std::uint64_t tokens) const
{
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        isa::DmaArgs emb;
        emb.bytes = tokens * model_.embDim * pim::elemBytes;
        emb.channels = sys_.dramChannelMask();
        emit(ctx, c, UnitKind::DmaIn, OpClass::Embedding, emb, {});
    }
}

std::vector<std::uint32_t>
WorkloadBuilder::layerNorm1(Ctx &ctx, std::uint64_t tokens) const
{
    std::vector<std::uint32_t> ln(sys_.cores);
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        isa::VuArgs args{VuOpKind::LayerNorm, tokens * model_.embDim};
        ln[c] = emit(ctx, c, UnitKind::VectorUnit, OpClass::LayerNorm,
                     args, {});
    }
    return ln;
}

void
WorkloadBuilder::blockTail(Ctx &ctx, std::uint64_t n) const
{
    const std::uint64_t e = model_.embDim;
    const std::uint64_t ffn = model_.ffnDim();

    barrier(ctx, OpClass::SelfAttention, n * e * pim::elemBytes); // sync 1

    // Attention output FC (column-split) + residual add. From here on
    // the n tokens (a generation batch or a prefill chunk) are one
    // multi-token activation matrix: a matrix-unit FC streams its
    // weights once for all n tokens, a PIM FC repeats its GEMV n times
    // — the trade-off the adaptive mapper re-evaluates at this token
    // count.
    FcMappingDecision attn_dec = decideFc(n, e, colSlice(e), false, {});
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        std::uint32_t g = emitGather(ctx, c, n * e * pim::elemBytes,
                                     OpClass::FcAttnAdd);
        std::uint32_t fc = emitFc(ctx, c, OpClass::FcAttnAdd, attn_dec, n,
                                  e, colSlice(e), false, false, {g});
        isa::VuArgs add{VuOpKind::Add, n * colSlice(e)};
        emit(ctx, c, UnitKind::VectorUnit, OpClass::FcAttnAdd, add, {fc});
    }
    barrier(ctx, OpClass::FcAttnAdd, n * e * pim::elemBytes); // sync 2

    // LN2 + FFN1 (+GELU).
    FcMappingDecision ffn1_dec = decideFc(n, e, colSlice(ffn), true,
                                          n * e);
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        std::uint32_t g = emitGather(ctx, c, n * e * pim::elemBytes,
                                     OpClass::LayerNorm);
        isa::VuArgs lnv{VuOpKind::LayerNorm, n * e};
        std::uint32_t ln2 = emit(ctx, c, UnitKind::VectorUnit,
                                 OpClass::LayerNorm, lnv, {g});
        emitFc(ctx, c, OpClass::FfnAdd, ffn1_dec, n, e, colSlice(ffn),
               true, false, {ln2});
    }
    barrier(ctx, OpClass::FfnAdd, n * ffn * pim::elemBytes); // sync 3

    // FFN2 + residual add.
    bool non_dup = ffn2NonDuplicated(ctx.blockIndex);
    FcMappingDecision ffn2_dec;
    if (non_dup) {
        // Non-duplicated weights exist only on the PIM half; the matrix
        // unit computes them, streaming from the PIM channels where the
        // stream collides with PIM compute (Section 6.2).
        ffn2_dec.unit = FcUnit::MatrixUnit;
    } else {
        ffn2_dec = decideFc(n, ffn, colSlice(e), false, {});
    }
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        std::uint32_t g = emitGather(ctx, c, n * ffn * pim::elemBytes,
                                     OpClass::FfnAdd);
        std::uint32_t fc = emitFc(ctx, c, OpClass::FfnAdd, ffn2_dec, n,
                                  ffn, colSlice(e), false, non_dup, {g});
        isa::VuArgs add{VuOpKind::Add, n * colSlice(e)};
        emit(ctx, c, UnitKind::VectorUnit, OpClass::FfnAdd, add, {fc});
    }
    barrier(ctx, OpClass::FfnAdd, n * e * pim::elemBytes); // sync 4
    ctx.prog.markBlockEnd(*ctx.gate);

    ++ctx.blockIndex;
}

// ---------------------------------------------------------------------
// Generation stage
// ---------------------------------------------------------------------

void
WorkloadBuilder::attentionGenerationMu(Ctx &ctx, std::uint16_t core,
                                       std::uint64_t kv_len,
                                       std::uint32_t ln_dep) const
{
    // Fig 7c: QKᵀ/SV on the matrix unit. Key concatenation on the VU
    // overlaps PIM query generation; KV stores and the V_cat load land
    // during softmax; K_pre of the next head prefetches during SV.
    const std::uint64_t e = model_.embDim;
    const std::uint64_t hd = model_.headDim;
    const std::uint64_t heads = headsPerCore();
    const dram::ChannelSet kv = kvMask(core);
    const std::uint64_t kv_bytes = kv_len * hd * pim::elemBytes;
    const std::uint64_t kpre_bytes = (kv_len - 1) * hd * pim::elemBytes;

    FcMappingDecision qkv_dec = decideFc(1, e, hd, false, e);

    // K_pre prefetch for the first head.
    isa::DmaArgs kpre0;
    kpre0.bytes = kpre_bytes;
    kpre0.channels = kv;
    std::uint32_t kpre = emit(ctx, core, UnitKind::DmaIn,
                              OpClass::SelfAttention, kpre0, {});

    std::uint32_t prev_vcat = 0, prev_store = 0;
    bool have_prev = false;
    for (std::uint64_t h = 0; h < heads; ++h) {
        // PAS orders head h's PIM work after head h-1's off-chip DMAs so
        // PIM bursts and normal accesses interleave without conflict.
        const std::uint32_t pim_dep_ids[] = {ln_dep, kpre, prev_vcat,
                                             prev_store};
        const isa::Deps pim_deps(pim_dep_ids, have_prev ? 4 : 2);

        std::uint32_t k_gen =
            emitFc(ctx, core, OpClass::FcQkv, qkv_dec, 1, e, hd, false,
                   false, pim_deps);
        isa::VuArgs cat{VuOpKind::Concat, hd};
        std::uint32_t k_cat = emit(ctx, core, UnitKind::VectorUnit,
                                   OpClass::SelfAttention, cat,
                                   {k_gen, kpre});
        isa::DmaArgs tr;
        tr.bytes = kv_bytes;
        tr.offChip = false;
        tr.transpose = true;
        std::uint32_t k_trans = emit(ctx, core, UnitKind::DmaOut,
                                     OpClass::SelfAttention, tr, {k_cat});

        std::uint32_t q_gen =
            emitFc(ctx, core, OpClass::FcQkv, qkv_dec, 1, e, hd, false,
                   false, pim_deps);
        isa::MuGemmArgs qkt_args;
        qkt_args.tokens = 1;
        qkt_args.k = hd;
        qkt_args.n = kv_len;
        std::uint32_t qkt = emit(ctx, core, UnitKind::MatrixUnit,
                                 OpClass::SelfAttention, qkt_args,
                                 {q_gen, k_trans});
        isa::VuArgs sm{VuOpKind::MaskedSoftmax, kv_len};
        std::uint32_t smax = emit(ctx, core, UnitKind::VectorUnit,
                                  OpClass::SelfAttention, sm, {qkt});

        std::uint32_t v_gen =
            emitFc(ctx, core, OpClass::FcQkv, qkv_dec, 1, e, hd, false,
                   false, pim_deps);
        isa::DmaArgs st;
        st.bytes = 2 * hd * pim::elemBytes;
        st.channels = kv;
        st.isWrite = true;
        std::uint32_t kv_store = emit(ctx, core, UnitKind::DmaOut,
                                      OpClass::SelfAttention, st,
                                      {k_gen, v_gen});
        isa::DmaArgs vl;
        vl.bytes = kv_bytes;
        vl.channels = kv;
        std::uint32_t v_cat = emit(ctx, core, UnitKind::DmaIn,
                                   OpClass::SelfAttention, vl,
                                   {v_gen, qkt});

        if (h + 1 < heads) {
            isa::DmaArgs pf;
            pf.bytes = kpre_bytes;
            pf.channels = kv;
            kpre = emit(ctx, core, UnitKind::DmaIn,
                        OpClass::SelfAttention, pf, {smax});
        }

        isa::MuGemmArgs sv_args;
        sv_args.tokens = 1;
        sv_args.k = kv_len;
        sv_args.n = hd;
        emit(ctx, core, UnitKind::MatrixUnit, OpClass::SelfAttention,
             sv_args, {smax, v_cat});

        prev_vcat = v_cat;
        prev_store = kv_store;
        have_prev = true;
    }
}

void
WorkloadBuilder::attentionGenerationPim(Ctx &ctx, std::uint16_t core,
                                        std::uint64_t kv_len,
                                        std::uint32_t ln_dep) const
{
    // Fig 7b: QKᵀ and SV on the PIM. No V_cat/K_pre loads (the PIM reads
    // keys/values in place), but head-dim-wide MACs waste 93.75% of each
    // DRAM row and the NPU idles while the PIM serializes.
    const std::uint64_t e = model_.embDim;
    const std::uint64_t hd = model_.headDim;
    const std::uint64_t heads = headsPerCore();
    const dram::ChannelSet kv = kvMask(core);
    const dram::ChannelSet chip = pimChipMask(core);

    FcMappingDecision qkv_dec = decideFc(1, e, hd, false, e);
    FcMappingDecision force_pim;
    force_pim.unit = FcUnit::Pim;

    std::uint32_t prev_k_store = 0, prev_v_store = 0;
    bool have_prev = false;
    for (std::uint64_t h = 0; h < heads; ++h) {
        const std::uint32_t pim_dep_ids[] = {ln_dep, prev_k_store,
                                             prev_v_store};
        const isa::Deps pim_deps(pim_dep_ids, have_prev ? 3 : 1);

        std::uint32_t k_gen =
            emitFc(ctx, core, OpClass::FcQkv, qkv_dec, 1, e, hd, false,
                   false, pim_deps);
        isa::VuArgs cat{VuOpKind::Concat, hd};
        std::uint32_t k_cat = emit(ctx, core, UnitKind::VectorUnit,
                                   OpClass::SelfAttention, cat, {k_gen});
        isa::DmaArgs kst;
        kst.bytes = hd * pim::elemBytes;
        kst.channels = kv;
        kst.isWrite = true;
        std::uint32_t k_store = emit(ctx, core, UnitKind::DmaOut,
                                     OpClass::SelfAttention, kst, {k_cat});

        std::uint32_t q_gen =
            emitFc(ctx, core, OpClass::FcQkv, qkv_dec, 1, e, hd, false,
                   false, pim_deps);

        pim::MacroCommand qkt_m;
        qkt_m.rows = kv_len;
        qkt_m.cols = hd;
        qkt_m.channelMask = chip;
        std::uint32_t qkt = emit(ctx, core, UnitKind::Pim,
                                 OpClass::SelfAttention,
                                 isa::PimArgs{qkt_m, 1}, {q_gen, k_store});
        isa::VuArgs sm{VuOpKind::MaskedSoftmax, kv_len};
        std::uint32_t smax = emit(ctx, core, UnitKind::VectorUnit,
                                  OpClass::SelfAttention, sm, {qkt});

        std::uint32_t v_gen =
            emitFc(ctx, core, OpClass::FcQkv, qkv_dec, 1, e, hd, false,
                   false, pim_deps);
        // SV on PIM consumes V transposed (rows = head dim, cols = KV
        // length), so appending one value vector scatters its hd
        // elements across hd distinct DRAM rows — a row-granular write
        // per element, not a 128 B sequential append. This layout cost
        // is one of the reasons the paper rejects the PIM mapping
        // (Section 5.3).
        isa::DmaArgs vst;
        vst.bytes = hd * sys_.mem.rowBytes;
        vst.channels = kv;
        vst.isWrite = true;
        std::uint32_t v_store = emit(ctx, core, UnitKind::DmaOut,
                                     OpClass::SelfAttention, vst, {v_gen});

        pim::MacroCommand sv_m;
        sv_m.rows = hd;
        sv_m.cols = kv_len;
        sv_m.channelMask = chip;
        emit(ctx, core, UnitKind::Pim, OpClass::SelfAttention,
             isa::PimArgs{sv_m, 1}, {smax, v_store});

        prev_k_store = k_store;
        prev_v_store = v_store;
        have_prev = true;
    }
}

void
WorkloadBuilder::blockGeneration(
    Ctx &ctx, const std::vector<std::uint64_t> &kv_lens) const
{
    // LN1 over the batch + multi-head attention (head-parallel across
    // cores, per request within each core: every request owns its KV
    // cache, so QKV GEMVs and QKᵀ/SV never batch across requests).
    const std::vector<std::uint32_t> ln = layerNorm1(ctx, kv_lens.size());
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        for (std::uint64_t kv_len : kv_lens) {
            if (opts_.attnMapping == AttnMapping::MatrixUnit)
                attentionGenerationMu(ctx, c, kv_len, ln[c]);
            else
                attentionGenerationPim(ctx, c, kv_len, ln[c]);
        }
    }
    blockTail(ctx, kv_lens.size());
}

// ---------------------------------------------------------------------
// Summarization stage
// ---------------------------------------------------------------------

void
WorkloadBuilder::blockSummarization(Ctx &ctx, std::uint64_t prior,
                                    std::uint64_t n) const
{
    // Fig 7a: FCs on the matrix unit with weights streamed by the load
    // DMA; key transpose via the on-chip path overlaps value generation;
    // values move to the weight scratchpad during softmax; weight loads
    // for later heads queue early (inter-head prefetch).
    //
    // With @p prior > 0 this is a chunked-prefill segment: the chunk's
    // n tokens attend over the prior + n context, so each head reloads
    // the prior keys (re-transposed on chip with the fresh ones, as the
    // generation stage does) and the prior values (landing during
    // softmax, like generation's V_cat), and QKᵀ / softmax / SV widen
    // to the full context. prior == 0 emits exactly the monolithic
    // program — the chunked-prefill fallback anchor.
    const std::uint64_t e = model_.embDim;
    const std::uint64_t hd = model_.headDim;
    const std::uint64_t heads = headsPerCore();
    const std::uint64_t w_head_bytes = hd * e * pim::elemBytes;
    const bool decoder = model_.decoder();

    const std::vector<std::uint32_t> ln = layerNorm1(ctx, n);
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        for (std::uint64_t h = 0; h < heads; ++h) {
            // Head-wise QKV weights live on the core's memory chip in
            // the unified system (Fig 6); in the partitioned system the
            // NPU reads the duplicated copy from the DRAM half.
            dram::ChannelSet w_channels =
                (sys_.pimEnabled &&
                 sys_.memoryMode == MemoryMode::Unified)
                    ? sys_.memoryChipMaskForCore(c)
                    : sys_.dramChannelMask();
            auto w_load = [&](void) {
                isa::DmaArgs a;
                a.bytes = w_head_bytes;
                a.channels = w_channels;
                return emit(ctx, c, UnitKind::DmaIn, OpClass::FcQkv, a,
                            {});
            };
            std::uint32_t wk = w_load();
            std::uint32_t wv = w_load();
            std::uint32_t wq = w_load();

            // Resumed chunk: the prior keys come back from the KV cache
            // to be re-transposed with the fresh ones.
            std::uint32_t k_prior = 0;
            if (prior > 0) {
                isa::DmaArgs kp;
                kp.bytes = prior * hd * pim::elemBytes;
                kp.channels = kvMask(c);
                k_prior = emit(ctx, c, UnitKind::DmaIn,
                               OpClass::SelfAttention, kp, {});
            }

            isa::MuGemmArgs fc;
            fc.tokens = n;
            fc.k = e;
            fc.n = hd;
            std::uint32_t k_gen = emit(ctx, c, UnitKind::MatrixUnit,
                                       OpClass::FcQkv, fc, {wk, ln[c]});
            std::uint32_t v_gen = emit(ctx, c, UnitKind::MatrixUnit,
                                       OpClass::FcQkv, fc, {wv, k_gen});
            isa::DmaArgs tr;
            tr.bytes = (prior + n) * hd * pim::elemBytes;
            tr.offChip = false;
            tr.transpose = true;
            const std::uint32_t tr_deps[] = {k_gen, k_prior};
            std::uint32_t k_trans =
                emit(ctx, c, UnitKind::DmaOut, OpClass::SelfAttention, tr,
                     isa::Deps(tr_deps, prior > 0 ? 2 : 1));
            std::uint32_t q_gen = emit(ctx, c, UnitKind::MatrixUnit,
                                       OpClass::FcQkv, fc, {wq, v_gen});
            if (decoder) {
                isa::DmaArgs st;
                st.bytes = 2 * n * hd * pim::elemBytes;
                st.channels = kvMask(c);
                st.isWrite = true;
                emit(ctx, c, UnitKind::DmaOut, OpClass::SelfAttention, st,
                     {k_gen, v_gen});
            }
            isa::MuGemmArgs qkt_args;
            qkt_args.tokens = n;
            qkt_args.k = hd;
            qkt_args.n = prior + n;
            std::uint32_t qkt =
                emit(ctx, c, UnitKind::MatrixUnit, OpClass::SelfAttention,
                     qkt_args, {q_gen, k_trans});
            isa::VuArgs sm{VuOpKind::MaskedSoftmax, n * (prior + n)};
            std::uint32_t smax = emit(ctx, c, UnitKind::VectorUnit,
                                      OpClass::SelfAttention, sm, {qkt});
            isa::DmaArgs mv;
            mv.bytes = n * hd * pim::elemBytes;
            mv.offChip = false;
            std::uint32_t v_move =
                emit(ctx, c, UnitKind::DmaOut, OpClass::SelfAttention, mv,
                     {v_gen, qkt});
            // Prior values reload from the KV cache during softmax.
            std::uint32_t v_prior = 0;
            if (prior > 0) {
                isa::DmaArgs vp;
                vp.bytes = prior * hd * pim::elemBytes;
                vp.channels = kvMask(c);
                v_prior = emit(ctx, c, UnitKind::DmaIn,
                               OpClass::SelfAttention, vp, {v_gen, qkt});
            }
            isa::MuGemmArgs sv_args;
            sv_args.tokens = n;
            sv_args.k = prior + n;
            sv_args.n = hd;
            const std::uint32_t sv_deps[] = {smax, v_move, v_prior};
            emit(ctx, c, UnitKind::MatrixUnit, OpClass::SelfAttention,
                 sv_args, isa::Deps(sv_deps, prior > 0 ? 3 : 2));
        }
    }
    blockTail(ctx, n);
}

// ---------------------------------------------------------------------
// Heads and full stages
// ---------------------------------------------------------------------

void
WorkloadBuilder::lmHead(Ctx &ctx, std::uint64_t tokens) const
{
    // Logits for @p tokens tokens (one per batched request): a
    // matrix-vector product over the vocabulary — the one
    // summarization-stage operation that runs on PIM (Fig 9's "PIM
    // operates as standard GDDR6 except for the LM head").
    const std::uint64_t e = model_.embDim;
    std::uint64_t slice = colSlice(model_.vocab);
    FcMappingDecision dec = decideFc(tokens, e, slice, false, tokens * e);
    for (std::uint16_t c = 0; c < sys_.cores; ++c) {
        isa::VuArgs lnv{VuOpKind::LayerNorm, tokens * e};
        std::uint32_t ln = emit(ctx, c, UnitKind::VectorUnit,
                                OpClass::LayerNorm, lnv, {});
        emitFc(ctx, c, OpClass::LmHead, dec, tokens, e, slice, false,
               false, {ln});
    }
    barrier(ctx, OpClass::LmHead);
}

std::uint64_t
WorkloadBuilder::blockCount(std::optional<std::uint64_t> blocks) const
{
    std::uint64_t n = blocks.value_or(model_.nBlocks);
    IANUS_ASSERT(n >= 1 && n <= model_.nBlocks, "cannot emit ", n,
                 " of ", model_.name, "'s ", model_.nBlocks, " blocks");
    return n;
}

isa::Program
WorkloadBuilder::buildSummarization(std::uint64_t input_tokens) const
{
    return buildSummarizationChunk(0, input_tokens, true);
}

isa::Program
WorkloadBuilder::buildSummarizationChunk(
    std::uint64_t prior_tokens, std::uint64_t chunk_tokens,
    bool last_chunk, std::optional<std::uint64_t> blocks,
    isa::Program storage) const
{
    IANUS_ASSERT(chunk_tokens > 0, "empty prefill chunk");
    if (!model_.decoder() && (prior_tokens > 0 || !last_chunk))
        IANUS_FATAL("chunked summarization needs a decoder model "
                    "(encoder attention is bidirectional and cannot "
                    "resume causally)");
    checkCapacity(prior_tokens, chunk_tokens);
    const std::uint64_t n_blocks = blockCount(blocks);
    Ctx ctx(sys_.cores, std::move(storage));
    embed(ctx, chunk_tokens);
    for (std::uint64_t b = 0; b < n_blocks; ++b)
        blockSummarization(ctx, prior_tokens, chunk_tokens);

    if (!last_chunk) {
        // A non-final chunk only extends the KV cache; the LM head (and
        // the first output token) waits for the last chunk.
    } else if (model_.decoder()) {
        lmHead(ctx, 1);
    } else {
        // BERT QA head: span start/end logits from the final states.
        isa::MuGemmArgs qa;
        qa.tokens = chunk_tokens;
        qa.k = model_.embDim;
        qa.n = 2;
        qa.weightBytes = model_.embDim * 2 * pim::elemBytes;
        qa.weightChannels = sys_.dramChannelMask();
        emit(ctx, 0, UnitKind::MatrixUnit, OpClass::Other, qa, {});
        barrier(ctx, OpClass::Other);
    }
    return std::move(ctx.prog);
}

isa::Program
WorkloadBuilder::buildGenerationToken(std::uint64_t kv_len) const
{
    // The batch-of-one program *is* the scalar program: same commands,
    // same order, same payloads (the regression anchor for batching).
    return buildGenerationBatch({kv_len});
}

isa::Program
WorkloadBuilder::buildGenerationBatch(
    const std::vector<std::uint64_t> &kv_lens,
    std::optional<std::uint64_t> blocks, isa::Program storage) const
{
    IANUS_ASSERT(model_.decoder(), "generation needs a decoder model");
    IANUS_ASSERT(!kv_lens.empty(),
                 "a generation batch needs at least one request");
    for (std::uint64_t kv_len : kv_lens)
        IANUS_ASSERT(kv_len > 0, "generation with empty KV cache");
    const std::uint64_t b = kv_lens.size();
    checkCapacity(0, b);
    const std::uint64_t n_blocks = blockCount(blocks);
    Ctx ctx(sys_.cores, std::move(storage));
    embed(ctx, b);
    for (std::uint64_t blk = 0; blk < n_blocks; ++blk)
        blockGeneration(ctx, kv_lens);
    lmHead(ctx, b);
    return std::move(ctx.prog);
}

isa::Program
WorkloadBuilder::buildFcSweep(std::uint64_t tokens) const
{
    // All FC layers of the model, in sequence, at the requested token
    // count — the Fig 12 adaptive-mapping study.
    Ctx ctx(sys_.cores, {});
    const std::uint64_t e = model_.embDim;
    const std::uint64_t ffn = model_.ffnDim();
    struct Shape { std::uint64_t k, n; bool ffn1; };
    const Shape shapes[] = {
        {e, colSlice(3 * e), false}, // QKV
        {e, colSlice(e), false},     // attention output
        {e, colSlice(ffn), true},    // FFN1
        {ffn, colSlice(e), false},   // FFN2
    };
    for (std::uint64_t b = 0; b < model_.nBlocks; ++b) {
        for (const Shape &s : shapes) {
            FcMappingDecision dec =
                decideFc(tokens, s.k, s.n, s.ffn1, {});
            for (std::uint16_t c = 0; c < sys_.cores; ++c)
                emitFc(ctx, c, OpClass::Other, dec, tokens, s.k, s.n,
                       false, false, {});
            barrier(ctx, OpClass::Other);
        }
    }
    return std::move(ctx.prog);
}

std::vector<FcPlan>
WorkloadBuilder::generationFcPlans() const
{
    const std::uint64_t e = model_.embDim;
    const std::uint64_t ffn = model_.ffnDim();
    std::vector<FcPlan> plans;
    auto push = [&](const char *what, std::uint64_t k, std::uint64_t n,
                    bool ffn1) {
        FcMappingDecision d = decideFc(1, k, n, ffn1, {});
        plans.push_back(FcPlan{what, 1, k, n, d.unit, d.geluOnPim});
    };
    push("qkv(head)", e, model_.headDim, false);
    push("fc_attn", e, colSlice(e), false);
    push("ffn1", e, colSlice(ffn), true);
    push("ffn2", ffn, colSlice(e), false);
    push("lm_head", e, colSlice(model_.vocab), false);
    return plans;
}

} // namespace ianus::compiler
