#include "ianus/report.hh"

#include <sstream>

#include "common/logging.hh"

namespace ianus
{

double &
RunStats::busy(isa::OpClass cls)
{
    return classBusy[static_cast<std::size_t>(cls)];
}

double
RunStats::busy(isa::OpClass cls) const
{
    return classBusy[static_cast<std::size_t>(cls)];
}

double &
RunStats::busy(isa::UnitKind unit)
{
    return unitBusy[static_cast<std::size_t>(unit)];
}

double
RunStats::busy(isa::UnitKind unit) const
{
    return unitBusy[static_cast<std::size_t>(unit)];
}

double &
RunStats::span(isa::OpClass cls)
{
    return classSpan[static_cast<std::size_t>(cls)];
}

double
RunStats::span(isa::OpClass cls) const
{
    return classSpan[static_cast<std::size_t>(cls)];
}

double
RunStats::exclusive(isa::OpClass cls) const
{
    return classExclusive[static_cast<std::size_t>(cls)];
}

namespace
{

/** Apply @p f(out, a, b) to every double field of (@p out, @p a, @p b);
 *  wallTicks, the one integer field, is left to the caller. */
template <typename F>
void
zipFields(RunStats &out, const RunStats &a, const RunStats &b, F f)
{
    for (std::size_t i = 0; i < RunStats::numClasses; ++i) {
        f(out.classBusy[i], a.classBusy[i], b.classBusy[i]);
        f(out.classSpan[i], a.classSpan[i], b.classSpan[i]);
        f(out.classExclusive[i], a.classExclusive[i], b.classExclusive[i]);
    }
    for (std::size_t i = 0; i < RunStats::numUnits; ++i)
        f(out.unitBusy[i], a.unitBusy[i], b.unitBusy[i]);
    f(out.commands, a.commands, b.commands);
    f(out.muFlops, a.muFlops, b.muFlops);
    f(out.vuElems, a.vuElems, b.vuElems);
    f(out.dramReadBytes, a.dramReadBytes, b.dramReadBytes);
    f(out.dramWriteBytes, a.dramWriteBytes, b.dramWriteBytes);
    f(out.pimWeightBytes, a.pimWeightBytes, b.pimWeightBytes);
    f(out.pimMacros, a.pimMacros, b.pimMacros);
    f(out.pimActivates, a.pimActivates, b.pimActivates);
    f(out.pimGbBursts, a.pimGbBursts, b.pimGbBursts);
    f(out.pimRdBursts, a.pimRdBursts, b.pimRdBursts);
}

} // namespace

void
RunStats::scaleAdd(const RunStats &o, double w)
{
    wallTicks += static_cast<Tick>(static_cast<double>(o.wallTicks) * w);
    zipFields(*this, *this, o,
              [w](double &out, double a, double b) { out = a + b * w; });
}

RunStats
RunStats::blockPeriodic(const RunStats &two, const RunStats &end0,
                        const RunStats &end1, std::uint64_t blocks)
{
    IANUS_ASSERT(blocks >= 1, "a block-periodic program has a block");
    IANUS_ASSERT(end0.wallTicks <= end1.wallTicks,
                 "block 1 ends before block 0");
    IANUS_ASSERT(end1.wallTicks <= two.wallTicks,
                 "the run ends before block 1");
    const Tick block = end1.wallTicks - end0.wallTicks;
    RunStats s;
    s.wallTicks = blocks >= 2 ? two.wallTicks + (blocks - 2) * block
                              : two.wallTicks - block;
    RunStats one_block;
    zipFields(one_block, end1, end0,
              [](double &out, double a, double b) { out = a - b; });
    const double k = static_cast<double>(blocks) - 2.0;
    zipFields(s, two, one_block, [k](double &out, double a, double b) {
        out = a + k * b;
    });
    return s;
}

double
InferenceReport::generationTokensPerSec() const
{
    if (generationSteps == 0)
        return 0.0;
    double sec = ticksToSec(generation.wallTicks);
    return sec > 0.0 ? static_cast<double>(generationSteps) / sec : 0.0;
}

RunStats
InferenceReport::combined() const
{
    RunStats s = summarization;
    s.merge(generation);
    return s;
}

double
InferenceReport::achievedTflops() const
{
    RunStats s = combined();
    double flops = s.muFlops + 2.0 * s.pimWeightBytes / 2.0;
    double sec = ticksToSec(totalTicks());
    return sec > 0.0 ? flops / sec / 1e12 : 0.0;
}

std::string
InferenceReport::summary() const
{
    std::ostringstream os;
    os << "(" << inputTokens << "," << outputTokens << ") total "
       << totalMs() << " ms (summarization " << summarizationMs()
       << " ms, generation " << generationMs() << " ms over "
       << generationSteps << " steps)";
    return os.str();
}

} // namespace ianus
