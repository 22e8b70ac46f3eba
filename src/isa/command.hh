/**
 * @file
 * The command IR the compiler emits and the execution engine runs.
 *
 * A Command is one unit of work for one execution resource — the matrix
 * unit, the vector unit, a DMA engine, the PIM (via the PIM control
 * unit), or the synchronization fabric. Its dependency edges live in
 * the owning Program (Program::deps).
 * The command scheduler (Section 4.3) dispatches commands whose
 * dependencies have resolved into the owning unit's issue queue.
 *
 * OpClass tags commands with the paper's Fig-10 latency-breakdown
 * categories so reports can attribute wall-clock spans.
 */

#ifndef IANUS_ISA_COMMAND_HH
#define IANUS_ISA_COMMAND_HH

#include <cstdint>
#include <string>
#include <variant>

#include "dram/channel_arbiter.hh"
#include "pim/pim_command.hh"

namespace ianus::isa
{

/** Execution resources a command can target. */
enum class UnitKind : std::uint8_t
{
    MatrixUnit,  ///< systolic array GEMM
    VectorUnit,  ///< VLIW vector ops
    DmaIn,       ///< loads into scratchpads (off-chip or on-chip stream)
    DmaOut,      ///< stores from scratchpads / on-chip transpose
    Pim,         ///< macro PIM command (runs on the memory itself)
    Sync         ///< cross-core barrier / phase marker
};

const char *toString(UnitKind unit);

/** Fig-10 latency breakdown categories (plus bookkeeping classes). */
enum class OpClass : std::uint8_t
{
    LayerNorm,
    SelfAttention,
    FcQkv,
    FcAttnAdd,
    FfnAdd,
    LmHead,
    Embedding,
    Other
};

const char *toString(OpClass cls);

/** Vector unit kernels (Section 4.2.2). */
enum class VuOpKind : std::uint8_t
{
    LayerNorm,      ///< two-phase mean/var + normalize
    MaskedSoftmax,  ///< bitmap mask folded into softmax, max-subtracted
    Gelu,           ///< LUT approximation
    Add,            ///< residual addition
    Concat,         ///< key/value concatenation (generation stage)
    Accumulate      ///< partial-sum reduction (multi-slice PIM outputs)
};

const char *toString(VuOpKind op);

/** GEMM on the matrix unit (weights stationary). */
struct MuGemmArgs
{
    std::uint64_t tokens = 1; ///< rows streamed through the array
    std::uint64_t k = 0;      ///< reduction dimension
    std::uint64_t n = 0;      ///< output dimension
    /**
     * Weight bytes to stream from DRAM, pipelined with compute
     * (Algorithm 1's pipe()). Zero when weights are already resident in
     * the weight scratchpad (e.g. QKᵀ/SV whose "weights" are K/V tiles).
     */
    std::uint64_t weightBytes = 0;
    dram::ChannelSet weightChannels = 0; ///< channels holding the weights
};

/** Vector unit op. */
struct VuArgs
{
    VuOpKind op = VuOpKind::Add;
    std::uint64_t elems = 0; ///< elements processed
};

/** DMA transfer. */
struct DmaArgs
{
    std::uint64_t bytes = 0;
    dram::ChannelSet channels = 0; ///< off-chip: channels touched
    bool offChip = true;  ///< false = scratchpad-to-scratchpad stream
    bool isWrite = false; ///< store (true) vs load (false)
    bool transpose = false; ///< uses the streaming-transpose path
};

/** Macro PIM command. */
struct PimArgs
{
    pim::MacroCommand macro{};
    /**
     * GEMV repetitions: the PIM has no token batching, so an FC over t
     * tokens repeats the matrix-vector product t times (Section 6.2,
     * Fig 12).
     */
    std::uint64_t repeats = 1;
};

/** Barrier across cores. */
struct SyncArgs
{
    /**
     * Bytes of activations exchanged between devices at this barrier
     * (multi-IANUS allgather over PCIe, Section 7.1); zero for
     * single-device runs.
     */
    std::uint64_t interDeviceBytes = 0;
};

using Payload = std::variant<MuGemmArgs, VuArgs, DmaArgs, PimArgs, SyncArgs>;

/** One schedulable command. */
struct Command
{
    std::uint32_t id = 0;
    std::uint16_t core = 0;     ///< owning NPU core (Sync: coordinator)
    UnitKind unit = UnitKind::Sync;
    OpClass opClass = OpClass::Other;
    Payload payload{};
    /** Where Program::deps() finds the ids that must complete first:
     *  depCount ids from depBegin in the program's dependency array. */
    std::uint32_t depBegin = 0;
    std::uint32_t depCount = 0;

    std::string describe() const;
};

} // namespace ianus::isa

#endif // IANUS_ISA_COMMAND_HH
