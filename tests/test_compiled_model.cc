/** @file CompiledModel: cache equivalence, accounting, validation. */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "serve/compiled_model.hh"

namespace
{

using namespace ianus;
using workloads::InferenceRequest;

workloads::ModelConfig m = workloads::gpt2("m");

void
expectIdentical(const InferenceReport &a, const InferenceReport &b)
{
    EXPECT_EQ(a.inputTokens, b.inputTokens);
    EXPECT_EQ(a.outputTokens, b.outputTokens);
    EXPECT_EQ(a.generationSteps, b.generationSteps);
    EXPECT_EQ(a.summarization.wallTicks, b.summarization.wallTicks);
    EXPECT_EQ(a.generation.wallTicks, b.generation.wallTicks);
    // Bit-identical, not approximately equal: the cached path must run
    // the same programs through the same deterministic engine.
    EXPECT_EQ(a.summarization.commands, b.summarization.commands);
    EXPECT_EQ(a.generation.commands, b.generation.commands);
    EXPECT_EQ(a.summarization.muFlops, b.summarization.muFlops);
    EXPECT_EQ(a.generation.muFlops, b.generation.muFlops);
    EXPECT_EQ(a.summarization.dramReadBytes, b.summarization.dramReadBytes);
    EXPECT_EQ(a.generation.dramReadBytes, b.generation.dramReadBytes);
    EXPECT_EQ(a.generation.pimWeightBytes, b.generation.pimWeightBytes);
    for (std::size_t c = 0; c < RunStats::numClasses; ++c) {
        EXPECT_EQ(a.generation.classBusy[c], b.generation.classBusy[c]);
        EXPECT_EQ(a.generation.classExclusive[c],
                  b.generation.classExclusive[c]);
    }
}

/** @p req on a fresh CompiledModel: compiled, served once, discarded. */
InferenceReport
direct(const InferenceRequest &req, unsigned token_stride = 1)
{
    return serve::CompiledModel(SystemConfig::ianusDefault(), m)
        .run(req, token_stride);
}

TEST(CompiledModel, MatchesDirectRunBitForBit)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    for (const InferenceRequest req :
         {InferenceRequest{64, 1}, InferenceRequest{64, 8},
          InferenceRequest{128, 8}}) {
        expectIdentical(compiled.run(req), direct(req));
        // And again from a warm cache.
        expectIdentical(compiled.run(req), direct(req));
    }
}

TEST(CompiledModel, StridedMatchesDirectRun)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    InferenceRequest req{64, 33};
    expectIdentical(compiled.run(req, 8), direct(req, 8));
}

TEST(CompiledModel, RepeatRequestsHitTheCache)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    compiled.run({64, 8});
    const serve::CacheStats &cs = compiled.cacheStats();
    EXPECT_EQ(cs.summarizationBuilds, 1u);
    EXPECT_EQ(cs.generationBuilds, 7u); // steps = outputTokens - 1
    EXPECT_EQ(cs.hits(), 0u);
    std::uint64_t builds = cs.builds();

    compiled.run({64, 8});
    EXPECT_EQ(cs.builds(), builds); // nothing new compiled
    // The request memo answers the repeat without a program lookup.
    EXPECT_EQ(cs.summarizationHits, 0u);
    EXPECT_EQ(cs.generationHits, 0u);
    EXPECT_EQ(cs.requestHits, 1u);
    EXPECT_EQ(compiled.cachedPrograms(), 8u);
}

TEST(CompiledModel, OverlappingRequestsShareGenerationPrograms)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    compiled.run({64, 8}); // KV lengths 65..71
    std::uint64_t builds = compiled.cacheStats().builds();
    compiled.run({64, 12}); // KV lengths 65..75: 4 new programs
    EXPECT_EQ(compiled.cacheStats().builds(), builds + 4);
}

TEST(CompiledModel, EncoderHasNoGenerationPrograms)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(),
                                  workloads::bert("b"));
    InferenceReport r = compiled.run({128, 1});
    EXPECT_EQ(r.generationSteps, 0u);
    EXPECT_EQ(compiled.cacheStats().generationBuilds, 0u);
    EXPECT_EQ(compiled.cachedPrograms(), 1u);
}

TEST(CompiledModel, RejectsInvalidRequests)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    EXPECT_THROW(compiled.run({0, 8}), std::runtime_error);
    EXPECT_THROW(compiled.run({128, 0}), std::runtime_error);
    EXPECT_THROW(compiled.run({128, 8}, 0), std::runtime_error);
}

// RunStats is a Tick followed by doubles, with no padding, so equal
// bytes mean every field holds the same bits.
static_assert(sizeof(RunStats) ==
                  sizeof(Tick) +
                      sizeof(double) * (3 * RunStats::numClasses +
                                        RunStats::numUnits + 10),
              "RunStats changed: expectSameBits() would read padding");

void
expectSameBits(const InferenceReport &a, const InferenceReport &b,
               const std::string &what)
{
    EXPECT_EQ(a.inputTokens, b.inputTokens) << what;
    EXPECT_EQ(a.outputTokens, b.outputTokens) << what;
    EXPECT_EQ(a.generationSteps, b.generationSteps) << what;
    EXPECT_EQ(std::memcmp(&a.summarization, &b.summarization,
                          sizeof(RunStats)),
              0)
        << what;
    EXPECT_EQ(
        std::memcmp(&a.generation, &b.generation, sizeof(RunStats)), 0)
        << what;
}

TEST(CompiledModel, RequestMemoHitEqualsItsMissAndAFreshTwin)
{
    for (const workloads::ModelConfig &model :
         {workloads::gpt2("m"), workloads::bert("b")}) {
        serve::CompiledModel memo(SystemConfig::ianusDefault(), model);
        for (unsigned s : {1u, 2u, 3u, 8u, 16u}) {
            // No generation (one output token), the last unstrided
            // length (steps == 2 * stride), and strided lengths whose
            // last step is and is not a regular sample.
            for (std::uint64_t out :
                 {1ull, 2ull, 2ull * s + 1, 2ull * s + 2, 4ull * s + 2,
                  5ull * s + 3}) {
                const InferenceRequest req{64, out};
                const std::string what = model.name + " out " +
                                         std::to_string(out) +
                                         " stride " + std::to_string(s);
                const std::uint64_t hits =
                    memo.cacheStats().requestHits;
                const InferenceReport miss = memo.run(req, s);
                EXPECT_EQ(memo.cacheStats().requestHits, hits) << what;
                const InferenceReport hit = memo.run(req, s);
                EXPECT_EQ(memo.cacheStats().requestHits, hits + 1)
                    << what;
                serve::CompiledModel twin(SystemConfig::ianusDefault(),
                                          model);
                const InferenceReport fresh = twin.run(req, s);
                expectSameBits(miss, hit, what);
                expectSameBits(miss, fresh, what);
            }
        }
    }
}

/** The strided generation stats of @p req, by the two-pass trapezoid:
 *  list the samples, then weigh each by its neighbours and add them in
 *  order. Step stats come from generationStepStats, not from run(). */
RunStats
twoPassTrapezoid(const serve::CompiledModel &model,
                 const InferenceRequest &req, std::uint64_t stride)
{
    const std::uint64_t steps = req.outputTokens - 1;
    std::vector<std::uint64_t> samples;
    for (std::uint64_t t = 0; t < steps; t += stride)
        samples.push_back(t);
    if (samples.back() != steps - 1)
        samples.push_back(steps - 1);
    RunStats sum;
    for (std::size_t j = 0; j < samples.size(); ++j) {
        double w = 0.0;
        if (j == 0)
            w = static_cast<double>(samples[1] - samples[0]) / 2.0 + 0.5;
        else if (j + 1 == samples.size())
            w = static_cast<double>(samples[j] - samples[j - 1]) / 2.0 +
                0.5;
        else
            w = static_cast<double>(samples[j + 1] - samples[j - 1]) / 2.0;
        sum.scaleAdd(model.generationStepStats(
                         {req.inputTokens + 1 + samples[j]}),
                     w);
    }
    return sum;
}

TEST(CompiledModel, StridedSumMatchesTheTwoPassTrapezoid)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    for (unsigned s : {2u, 3u, 5u, 8u, 16u})
        for (std::uint64_t out = 2ull * s + 2; out <= 6ull * s + 3; ++out) {
            const InferenceRequest req{64, out};
            const RunStats want = twoPassTrapezoid(compiled, req, s);
            const RunStats got = compiled.run(req, s).generation;
            EXPECT_EQ(std::memcmp(&got, &want, sizeof(RunStats)), 0)
                << "out " << out << " stride " << s;
        }
}

TEST(CompiledModel, RequestMemoRecomputesAnEvictedShape)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    const InferenceRequest req{64, 2};
    // One more key than the memo holds; the stride tells them apart.
    const unsigned keys = serve::CompiledModel::maxRequestEntries + 1;
    const InferenceReport first = compiled.run(req, 1);
    for (unsigned s = 2; s <= keys; ++s)
        compiled.run(req, s);
    const serve::CacheStats &cs = compiled.cacheStats();
    EXPECT_EQ(cs.requestHits, 0u);
    const std::uint64_t builds = cs.builds();

    // The oldest key was evicted: computed again from warm programs,
    // with identical bits and no request hit.
    const InferenceReport again = compiled.run(req, 1);
    EXPECT_EQ(cs.requestHits, 0u);
    EXPECT_EQ(cs.builds(), builds);
    expectSameBits(first, again, "evicted stride 1");
    // The newest is still held.
    compiled.run(req, keys);
    EXPECT_EQ(cs.requestHits, 1u);
}

TEST(CompiledModel, FatalRequestLeavesNoMemoEntry)
{
    serve::CompiledModel compiled(SystemConfig::ianusDefault(), m);
    // The prompt's working set exceeds the activation scratchpad.
    const InferenceRequest huge{4096, 8};
    EXPECT_THROW(compiled.run(huge, 8), std::runtime_error);
    EXPECT_THROW(compiled.run(huge, 8), std::runtime_error);
    EXPECT_EQ(compiled.cacheStats().requestHits, 0u);
    EXPECT_EQ(compiled.cachedPrograms(), 0u);
}

TEST(FifoMap, EvictsTheOldestEntryFirst)
{
    serve::FifoMap<int, std::string> fifo(3);
    EXPECT_FALSE(fifo.insert(1, "one"));
    EXPECT_FALSE(fifo.insert(2, "two"));
    EXPECT_FALSE(fifo.insert(3, "three"));
    EXPECT_TRUE(fifo.insert(4, "four")); // evicts 1
    EXPECT_EQ(fifo.size(), 3u);
    EXPECT_EQ(fifo.find(1), nullptr);
    ASSERT_NE(fifo.find(4), nullptr);
    EXPECT_EQ(*fifo.find(4), "four");
    // A hit does not refresh an entry: 2 is still the oldest.
    EXPECT_EQ(*fifo.find(2), "two");
    EXPECT_TRUE(fifo.insert(5, "five"));
    EXPECT_EQ(fifo.find(2), nullptr);
    EXPECT_TRUE(fifo.insert(6, "six"));
    EXPECT_EQ(fifo.find(3), nullptr);
    EXPECT_EQ(*fifo.find(5), "five");
    EXPECT_EQ(*fifo.find(6), "six");
}

TEST(CompiledModel, ConstructorValidatesSystemConfig)
{
    SystemConfig bad = SystemConfig::ianusDefault();
    bad.cores = 0;
    EXPECT_THROW(serve::CompiledModel(bad, m), std::runtime_error);
    SystemConfig bad_dma = SystemConfig::ianusDefault();
    bad_dma.dmaEfficiency = 0.0;
    EXPECT_THROW(serve::CompiledModel(bad_dma, m), std::runtime_error);
}

} // namespace
