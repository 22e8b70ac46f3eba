/**
 * @file
 * Run statistics and inference reports.
 *
 * RunStats is what one ExecutionEngine::run() produces: wall-clock ticks,
 * busy time per unit and per Fig-10 operation class, datapath activity
 * counts (the energy model's inputs), and DRAM/PIM traffic. An
 * InferenceReport aggregates the summarization stage and every generation
 * step of one request. Under batched serving the generation stats are a
 * per-request *share* — each batched step contributes 1/B of its
 * RunStats to each of its B riders; the double fields re-sum exactly in
 * aggregate, while the integer wallTicks truncates per share (up to
 * B-1 ticks, i.e. picoseconds, below the step's wall time) — and
 * generationSteps still counts this request's own tokens.
 */

#ifndef IANUS_IANUS_REPORT_HH
#define IANUS_IANUS_REPORT_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/command.hh"
#include "pim/pim_command.hh"

namespace ianus
{

/** Statistics of one engine run (one program execution). */
struct RunStats
{
    static constexpr std::size_t numClasses = 8;
    static constexpr std::size_t numUnits = 6;

    Tick wallTicks = 0;
    std::array<double, numClasses> classBusy{}; ///< ticks, by OpClass
    /**
     * Interval-union span per class: ticks during which at least one
     * command of the class was in flight. Unlike busy sums, spans see
     * contention — a KV load stretched by competing weight traffic
     * stretches the self-attention span.
     */
    std::array<double, numClasses> classSpan{};
    /**
     * Exclusive attribution: every instant with work in flight is
     * charged to exactly one active class (FC classes take precedence
     * over attention/vector classes). Categories are additive, like the
     * paper's Fig-10 stacked bars: work hidden under an FC offloaded to
     * PIM stops being charged — which is how the paper's self-attention
     * speedup materializes without offloading any attention op.
     */
    std::array<double, numClasses> classExclusive{};
    std::array<double, numUnits> unitBusy{};    ///< ticks, by UnitKind

    double commands = 0;
    double muFlops = 0;
    double vuElems = 0;
    double dramReadBytes = 0;   ///< off-chip normal reads
    double dramWriteBytes = 0;  ///< off-chip normal writes
    double pimWeightBytes = 0;  ///< weight bytes streamed through MACs
    double pimMacros = 0;
    double pimActivates = 0;    ///< ACTAB count (energy: row opens)
    double pimGbBursts = 0;     ///< WRGB bursts (external-bus energy)
    double pimRdBursts = 0;     ///< RDMAC bursts

    double &busy(isa::OpClass cls);
    double busy(isa::OpClass cls) const;
    double &busy(isa::UnitKind unit);
    double busy(isa::UnitKind unit) const;
    double &span(isa::OpClass cls);
    double span(isa::OpClass cls) const;
    double exclusive(isa::OpClass cls) const;

    /** Accumulate @p o scaled by @p w (stride integration, trapezoid
     *  segment costing, per-request 1/B shares of batched steps). */
    void scaleAdd(const RunStats &o, double w);

    /** this += o. */
    void merge(const RunStats &o) { scaleAdd(o, 1.0); }

    /**
     * Statistics of a program of @p blocks identical blocks, from one
     * run of its 2-block prefix: @p two is that run, and @p end0 and
     * @p end1 are its snapshots at the barriers that close blocks 0
     * and 1 (ExecutionEngine::run). Their difference is one block, so
     * the result is two + (blocks - 2) * (end1 - end0), field by field;
     * blocks == 1 takes that block away again. wallTicks stays in
     * integer arithmetic, and end0 <= end1 <= two must hold for it.
     * Every field of an engine run is an integer-valued double, so the
     * result is exact while the fields stay below 2^53.
     */
    static RunStats blockPeriodic(const RunStats &two, const RunStats &end0,
                                  const RunStats &end1, std::uint64_t blocks);

    double wallMs() const { return ticksToMs(wallTicks); }
};

/** End-to-end report for one inference request. */
struct InferenceReport
{
    std::uint64_t inputTokens = 0;
    std::uint64_t outputTokens = 0;

    RunStats summarization;
    RunStats generation;   ///< all generation steps combined
    std::uint64_t generationSteps = 0;

    Tick
    totalTicks() const
    {
        return summarization.wallTicks + generation.wallTicks;
    }

    double totalMs() const { return ticksToMs(totalTicks()); }
    double summarizationMs() const { return summarization.wallMs(); }
    double generationMs() const { return generation.wallMs(); }

    /** Average latency per generated token (generation stage only). */
    double
    msPerGeneratedToken() const
    {
        return generationSteps
                   ? generationMs() / static_cast<double>(generationSteps)
                   : 0.0;
    }

    /** Generation throughput, tokens per second (Fig 18). */
    double generationTokensPerSec() const;

    RunStats combined() const;

    /** Achieved FLOPS over the whole request, in TFLOPS. */
    double achievedTflops() const;

    std::string summary() const;
};

} // namespace ianus

#endif // IANUS_IANUS_REPORT_HH
