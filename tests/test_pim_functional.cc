/**
 * @file Functional PIM GEMV vs FP64 reference — the prototype-validation
 * substitute (DESIGN.md, Substitutions).
 */

#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "common/bf16.hh"
#include "pim/pim_functional.hh"

namespace
{

using ianus::dram::Gddr6Config;
using ianus::pim::GemvTiling;
using ianus::pim::maxRelError;
using ianus::pim::pimGemv;
using ianus::pim::referenceGemv;

std::vector<float>
randomVector(std::size_t n, std::mt19937 &rng, float scale = 1.0f)
{
    std::normal_distribution<float> dist(0.0f, scale);
    std::vector<float> v(n);
    for (float &x : v)
        x = dist(rng);
    return v;
}

TEST(PimFunctional, IdentityMatrixPassesInputThrough)
{
    Gddr6Config cfg;
    const std::uint64_t n = 32;
    std::vector<float> w(n * n, 0.0f);
    for (std::uint64_t i = 0; i < n; ++i)
        w[i * n + i] = 1.0f;
    std::vector<float> x(n);
    for (std::uint64_t i = 0; i < n; ++i)
        x[i] = ianus::bf16Round(0.125f * static_cast<float>(i));
    GemvTiling t = GemvTiling::compute(n, n, cfg, 2);
    std::vector<float> y = pimGemv(w, x, t);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(y[i], x[i]);
}

TEST(PimFunctional, BiasIsApplied)
{
    Gddr6Config cfg;
    std::vector<float> w(4 * 4, 0.0f);
    std::vector<float> x(4, 0.0f);
    std::vector<float> bias{1.0f, -2.0f, 0.5f, 4.0f};
    GemvTiling t = GemvTiling::compute(4, 4, cfg, 2);
    std::vector<float> y = pimGemv(w, x, t, bias);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(y[i], bias[i]);
}

TEST(PimFunctional, GeluSuppressesNegatives)
{
    Gddr6Config cfg;
    std::vector<float> w{1.0f};
    GemvTiling t = GemvTiling::compute(1, 1, cfg, 2);
    std::vector<float> neg =
        pimGemv(w, {-6.0f}, t, {}, true);
    std::vector<float> pos = pimGemv(w, {6.0f}, t, {}, true);
    EXPECT_NEAR(neg[0], 0.0f, 1e-2);
    EXPECT_NEAR(pos[0], 6.0f, 6.0f / 64.0f);
}

/** Property: BF16 GEMV tracks the FP64 reference across random shapes,
 *  including multi-slice K (the external partial-sum accumulate path). */
struct GemvShape
{
    std::uint64_t rows, cols;
    unsigned channels;
};

// gtest names each case after its printed parameter. Without a printer
// it dumps the raw bytes, including the 4 uninitialised padding bytes
// after `channels`, and the test names change from build to build.
void
PrintTo(const GemvShape &shape, std::ostream *os)
{
    *os << shape.rows << "x" << shape.cols << "_" << shape.channels << "ch";
}

class GemvAccuracy : public ::testing::TestWithParam<GemvShape>
{
};

TEST_P(GemvAccuracy, TracksReference)
{
    GemvShape shape = GetParam();
    Gddr6Config cfg;
    std::mt19937 rng(shape.rows * 7919 + shape.cols);
    std::vector<float> w =
        randomVector(shape.rows * shape.cols, rng, 0.05f);
    std::vector<float> x = randomVector(shape.cols, rng, 1.0f);
    std::vector<float> bias = randomVector(shape.rows, rng, 0.5f);

    GemvTiling t =
        GemvTiling::compute(shape.rows, shape.cols, cfg, shape.channels);
    std::vector<float> got = pimGemv(w, x, t, bias);
    std::vector<double> want =
        referenceGemv(w, x, shape.rows, shape.cols, bias);

    // BF16 inputs contribute ~0.4% per product (sqrt-accumulated); each
    // k-slice readout adds a BF16 quantization of the partial sum.
    double tol = 0.02 + 0.005 * static_cast<double>(t.kTiles());
    EXPECT_LT(maxRelError(got, want, 1.0), tol)
        << shape.rows << "x" << shape.cols;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvAccuracy,
    ::testing::Values(GemvShape{16, 16, 2}, GemvShape{64, 64, 2},
                      GemvShape{64, 1536, 2},   // per-head QKV FC
                      GemvShape{384, 1536, 2},  // column-split attn FC
                      GemvShape{128, 1024, 8},  // exactly one tile
                      GemvShape{128, 1280, 8},  // GPT-2 L two slices
                      GemvShape{257, 2049, 8},  // ragged both dims
                      GemvShape{1536, 6144, 8}, // FFN2 shape
                      GemvShape{100, 3000, 4}));

TEST(PimFunctional, SliceOrderAccumulationIsDeterministic)
{
    // Two runs produce bit-identical results (no hidden state).
    Gddr6Config cfg;
    std::mt19937 rng(99);
    std::vector<float> w = randomVector(64 * 2048, rng, 0.1f);
    std::vector<float> x = randomVector(2048, rng);
    GemvTiling t = GemvTiling::compute(64, 2048, cfg, 2);
    EXPECT_EQ(pimGemv(w, x, t), pimGemv(w, x, t));
}

TEST(PimFunctional, ShapeMismatchPanics)
{
    Gddr6Config cfg;
    GemvTiling t = GemvTiling::compute(4, 4, cfg, 2);
    std::vector<float> w(16, 0.0f);
    EXPECT_DEATH((void)pimGemv(w, std::vector<float>(3, 0.0f), t),
                 "input length");
}

} // namespace
