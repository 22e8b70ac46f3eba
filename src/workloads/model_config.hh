/**
 * @file
 * Model zoo: the network configurations of Tables 3 and 4.
 *
 * GPT-2 M/L/XL/2.5B and BERT B/L/1.3B/3.9B drive the main evaluation;
 * GPT 6.7B/13B/30B drive the scalability study. The GPT-2 XL variant uses
 * 24 attention heads (reduced from 25, as the paper does following DFX)
 * so heads divide evenly across 4 cores.
 */

#ifndef IANUS_WORKLOADS_MODEL_CONFIG_HH
#define IANUS_WORKLOADS_MODEL_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ianus::workloads
{

/** Transformer families the system evaluates. */
enum class ModelFamily : std::uint8_t
{
    Gpt2, ///< decoder-only, language modeling (Table 3)
    Bert, ///< encoder-only, question answering (Table 3)
    Gpt   ///< decoder-only, large configs (Table 4)
};

const char *toString(ModelFamily family);

/** One transformer configuration. */
struct ModelConfig
{
    std::string name;
    ModelFamily family = ModelFamily::Gpt2;
    std::uint64_t embDim = 0;
    std::uint64_t headDim = 0;
    std::uint64_t nHeads = 0;
    std::uint64_t nBlocks = 0;
    std::uint64_t vocab = 50257;

    /** Decoder (causal, generation) vs encoder (single pass). */
    bool decoder() const { return family != ModelFamily::Bert; }

    /** FFN inner dimension (4x, as in GPT-2/BERT). */
    std::uint64_t ffnDim() const { return 4 * embDim; }

    /** Q/K/V output width == heads x head dim (== embDim here). */
    std::uint64_t qkvDim() const { return nHeads * headDim; }

    /** FC weight elements per decoder/encoder block. */
    std::uint64_t blockWeightElems() const;

    /** All FC weight elements across blocks (the PIM-shared 90%). */
    std::uint64_t fcWeightElems() const;

    /** Total parameters including embeddings (sanity vs Table 3/4). */
    std::uint64_t paramCount() const;

    /** Model weight footprint in bytes at BF16. */
    std::uint64_t weightBytes() const { return paramCount() * 2; }

    /** FLOPs of one full forward pass over @p tokens tokens. */
    double forwardFlops(std::uint64_t tokens) const;

    std::string describe() const;

    bool operator==(const ModelConfig &) const = default;
};

/** Request shape: (input size, output size) at batch 1 (Section 6.1). */
struct InferenceRequest
{
    std::uint64_t inputTokens = 128;
    std::uint64_t outputTokens = 1;
};

/** GPT-2 configs: "m", "l", "xl", "2.5b". */
ModelConfig gpt2(const std::string &size);

/** BERT configs: "b", "l", "1.3b", "3.9b". */
ModelConfig bert(const std::string &size);

/** Large GPT configs (Table 4): "6.7b", "13b", "30b". */
ModelConfig gptLarge(const std::string &size);

/** The four GPT-2 models in paper order. */
std::vector<ModelConfig> allGpt2();

/** The four BERT models in paper order. */
std::vector<ModelConfig> allBert();

/** The three large GPT models in paper order. */
std::vector<ModelConfig> allGptLarge();

} // namespace ianus::workloads

#endif // IANUS_WORKLOADS_MODEL_CONFIG_HH
