#include "npu/vector_unit.hh"

#include <algorithm>
#include <cmath>

#include "common/bf16.hh"
#include "common/logging.hh"
#include "common/lut.hh"

namespace ianus::npu
{

VectorUnit::VectorUnit(const VectorUnitParams &p)
    : params_(p), clock_(p.freqGhz)
{
    IANUS_ASSERT(p.lanes() > 0, "vector unit needs lanes");
}

unsigned
VectorUnit::passes(isa::VuOpKind op)
{
    switch (op) {
      case isa::VuOpKind::LayerNorm: return 2;      // two-phase
      case isa::VuOpKind::MaskedSoftmax: return 3;  // max, exp+sum, norm
      case isa::VuOpKind::Gelu: return 1;
      case isa::VuOpKind::Add: return 1;
      case isa::VuOpKind::Concat: return 1;
      case isa::VuOpKind::Accumulate: return 1;
    }
    return 1;
}

Cycles
VectorUnit::opCycles(isa::VuOpKind op, std::uint64_t elems) const
{
    if (elems == 0)
        return 0;
    std::uint64_t per_pass = ceilDiv(elems, std::uint64_t{params_.lanes()});
    return params_.launchOverhead + passes(op) * per_pass;
}

Tick
VectorUnit::opTicks(isa::VuOpKind op, std::uint64_t elems) const
{
    return clock_.cyclesToTicks(static_cast<double>(opCycles(op, elems)));
}

std::vector<float>
VectorUnit::layerNorm(const std::vector<float> &x, float eps) const
{
    IANUS_ASSERT(!x.empty(), "layernorm over empty vector");
    // Phase 1: mean and variance (FP32 reduction).
    double mean = 0.0;
    for (float v : x)
        mean += bf16Round(v);
    mean /= static_cast<double>(x.size());
    double var = 0.0;
    for (float v : x) {
        double d = bf16Round(v) - mean;
        var += d * d;
    }
    var /= static_cast<double>(x.size());
    // Phase 2: normalize.
    double inv = 1.0 / std::sqrt(var + eps);
    std::vector<float> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = bf16Round(static_cast<float>((bf16Round(x[i]) - mean) *
                                              inv));
    return out;
}

std::vector<float>
VectorUnit::maskedSoftmax(const std::vector<float> &scores,
                          const std::vector<bool> &mask) const
{
    IANUS_ASSERT(scores.size() == mask.size(), "mask length mismatch");
    // Pass 1: running max over unmasked entries (stability).
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < scores.size(); ++i)
        if (mask[i])
            mx = std::max(mx, bf16Round(scores[i]));
    std::vector<float> out(scores.size(), 0.0f);
    if (!std::isfinite(mx))
        return out; // everything masked
    // Pass 2: exp via LUT and sum.
    double sum = 0.0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
        if (!mask[i])
            continue;
        double e = expLut()(bf16Round(scores[i]) - mx);
        out[i] = static_cast<float>(e);
        sum += e;
    }
    // Pass 3: normalize.
    for (std::size_t i = 0; i < scores.size(); ++i)
        out[i] = bf16Round(static_cast<float>(out[i] / sum));
    return out;
}

std::vector<float>
VectorUnit::gelu(const std::vector<float> &x) const
{
    std::vector<float> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = bf16Round(static_cast<float>(geluLut()(bf16Round(x[i]))));
    return out;
}

std::vector<float>
VectorUnit::add(const std::vector<float> &a,
                const std::vector<float> &b) const
{
    IANUS_ASSERT(a.size() == b.size(), "residual shape mismatch");
    std::vector<float> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = bf16Round(bf16Round(a[i]) + bf16Round(b[i]));
    return out;
}

} // namespace ianus::npu
