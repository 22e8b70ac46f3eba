/**
 * @file
 * Vector unit: sixteen 4-wide VLIW processors (Table 1).
 *
 * Timing: 64 lanes process one element per lane per cycle; each kernel
 * pays a fixed launch overhead and a pass count reflecting its structure
 * (layer normalization is two-phase per Section 4.2.2, softmax makes a
 * max pass, an exp/sum pass, and a normalize pass).
 *
 * Functional: the kernels the unit supports, bit-faithfully in BF16 with
 * the LUT approximations the hardware uses (GELU, exp), for the test
 * suite and the prototype-validation substitute.
 */

#ifndef IANUS_NPU_VECTOR_UNIT_HH
#define IANUS_NPU_VECTOR_UNIT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/command.hh"

namespace ianus::npu
{

/** Vector unit shape and clocking. */
struct VectorUnitParams
{
    unsigned processors = 16;
    unsigned vliwWidth = 4;
    double freqGhz = 0.7;
    Cycles launchOverhead = 32; ///< kernel setup cost

    unsigned lanes() const { return processors * vliwWidth; }

    bool operator==(const VectorUnitParams &) const = default;
};

/** Timing + functional model of the vector unit. */
class VectorUnit
{
  public:
    explicit VectorUnit(const VectorUnitParams &p = VectorUnitParams{});

    /** Data passes a kernel makes over its elements. */
    static unsigned passes(isa::VuOpKind op);

    /** Cycles to run @p op over @p elems elements. */
    Cycles opCycles(isa::VuOpKind op, std::uint64_t elems) const;

    /** Same in ticks. */
    Tick opTicks(isa::VuOpKind op, std::uint64_t elems) const;

    /** Two-phase layer normalization (mean/var, then normalize+affine). */
    std::vector<float> layerNorm(const std::vector<float> &x,
                                 float eps = 1e-5f) const;

    /**
     * Masked softmax with max subtraction (Section 4.2.2). @p mask is the
     * 1-bit bitmap; masked positions contribute zero probability.
     */
    std::vector<float> maskedSoftmax(const std::vector<float> &scores,
                                     const std::vector<bool> &mask) const;

    /** GELU via the shared LUT. */
    std::vector<float> gelu(const std::vector<float> &x) const;

    /** Residual addition. */
    std::vector<float> add(const std::vector<float> &a,
                           const std::vector<float> &b) const;

    const VectorUnitParams &params() const { return params_; }

  private:
    VectorUnitParams params_;
    ClockDomain clock_;
};

} // namespace ianus::npu

#endif // IANUS_NPU_VECTOR_UNIT_HH
