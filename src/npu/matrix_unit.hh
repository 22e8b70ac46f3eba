/**
 * @file
 * Matrix unit: a 128×64 systolic array with 4 MACs per PE (Table 1).
 *
 * Timing: the array is weight-stationary. The 4 MACs per PE hold four
 * reduction planes, so a weight tile covers 128×4 = 512 reduction rows
 * by 64 output columns — sized so a head-dimension-64 operation (Q/K/V
 * generation, QKᵀ, SV) fills the array width, the transformer-aware
 * choice of Section 4.2. A GEMM of (tokens × K × N) runs
 * ceil(K/512)·ceil(N/64) tiles, each costing an array fill/drain plus
 * one cycle per streamed token. Peak: 128·64·4 MACs × 2 FLOPs × 0.7 GHz
 * = 45.9 TFLOPS, Table 1's 46 TFLOPS per core.
 *
 * Output scaling and bias addition are fused (Section 4.1) and cost no
 * extra cycles; weight interleaving for the transpose path (Section
 * 4.2.1) likewise changes addressing, not throughput.
 *
 * Functional: a bit-faithful BF16 GEMM used by the unit tests.
 */

#ifndef IANUS_NPU_MATRIX_UNIT_HH
#define IANUS_NPU_MATRIX_UNIT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ianus::npu
{

/** Matrix unit geometry and clocking. */
struct MatrixUnitParams
{
    unsigned rows = 128;       ///< reduction (K) dimension of the array
    unsigned cols = 64;        ///< output (N) dimension of the array
    unsigned macsPerPe = 4;    ///< output planes per PE
    double freqGhz = 0.7;

    unsigned tileK() const { return rows * macsPerPe; }
    unsigned tileN() const { return cols; }

    /** Peak throughput in TFLOPS. */
    double
    peakTflops() const
    {
        return 2.0 * rows * cols * macsPerPe * freqGhz / 1000.0;
    }

    bool operator==(const MatrixUnitParams &) const = default;
};

/** Timing + functional model of the matrix unit. */
class MatrixUnit
{
  public:
    explicit MatrixUnit(const MatrixUnitParams &p = MatrixUnitParams{});

    /** Cycles to run a (tokens × k × n) GEMM with resident weights. */
    Cycles gemmCycles(std::uint64_t tokens, std::uint64_t k,
                      std::uint64_t n) const;

    /** Same in ticks. */
    Tick gemmTicks(std::uint64_t tokens, std::uint64_t k,
                   std::uint64_t n) const;

    /** Fill/drain cost of a single tile, in ticks (pipelining model). */
    Tick tileFillTicks() const;

    /** Achieved FLOPS / peak for a given GEMM (utilization reporting). */
    double utilization(std::uint64_t tokens, std::uint64_t k,
                       std::uint64_t n) const;

    /**
     * Functional GEMM: out[tokens×n] = in[tokens×k] · w[k×n] (+bias[n]),
     * BF16 inputs, FP32 accumulation, BF16 result — matching the systolic
     * datapath. Row-major buffers.
     */
    std::vector<float> gemm(const std::vector<float> &in,
                            const std::vector<float> &w,
                            std::uint64_t tokens, std::uint64_t k,
                            std::uint64_t n,
                            const std::vector<float> &bias = {},
                            float out_scale = 1.0f) const;

    const MatrixUnitParams &params() const { return params_; }

  private:
    MatrixUnitParams params_;
    ClockDomain clock_;
};

} // namespace ianus::npu

#endif // IANUS_NPU_MATRIX_UNIT_HH
