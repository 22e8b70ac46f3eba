/**
 * @file
 * Figure 10: generation-stage latency breakdown of GPT-2 L and XL at
 * (128,256) for NPU-MEM and IANUS, by operation class.
 *
 * Paper anchors (XL): the two attention FCs drop from 890 ms to 215 ms
 * (4.1x), the FFN gains 5.1x, self-attention 4.3x, and overall the
 * generation stage gains 4.0x (XL) and 3.6x (L).
 */

#include <cstdio>

#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

namespace
{

using ianus::isa::OpClass;

double
classMs(const ianus::RunStats &s, OpClass cls)
{
    // Exclusive attribution (additive, like the paper's stacked bars):
    // every instant is charged to one class, FCs first. Self-attention
    // work hidden under PIM QKV generation stops being charged — the
    // paper's "speedup without offloading any attention op".
    return s.exclusive(cls) / static_cast<double>(ianus::tickPerMs);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ianus;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner(
        "Figure 10 — generation-stage latency breakdown (128,256)",
        "XL: two FCs 890->215 ms (4.1x), FFN 5.1x, self-attention "
        "4.3x, overall 4.0x (XL) / 3.6x (L)");

    workloads::InferenceRequest req{128, 256};
    unsigned stride = bench::strideFor(req.outputTokens, opts);

    for (const char *size : {"l", "xl"}) {
        workloads::ModelConfig model = workloads::gpt2(size);
        serve::CompiledModel ianus_sys(SystemConfig::ianusDefault(), model);
        serve::CompiledModel npu_mem(SystemConfig::npuMem(), model);
        RunStats i = ianus_sys.run(req, stride).generation;
        RunStats n = npu_mem.run(req, stride).generation;

        bench::Table table({"class", "npumem_ms", "ianus_ms", "speedup"});
        struct Row
        {
            const char *name;
            OpClass cls;
        };
        const Row rows[] = {{"LayerNorm", OpClass::LayerNorm},
                            {"Self-attention", OpClass::SelfAttention},
                            {"FC for Attention + Add", OpClass::FcAttnAdd},
                            {"FFN + Add", OpClass::FfnAdd},
                            {"FC for Q,K,V", OpClass::FcQkv}};
        for (const Row &r : rows) {
            double nm = classMs(n, r.cls);
            double im = classMs(i, r.cls);
            table.addRow({r.name, bench::Table::num(nm),
                          bench::Table::num(im),
                          bench::Table::ratio(im > 0 ? nm / im : 0)});
        }
        std::printf("--- %s, generation stage (%llu steps) ---\n",
                    model.describe().c_str(),
                    (unsigned long long)(req.outputTokens - 1));
        table.print(opts);

        double two_fcs_n = classMs(n, OpClass::FcQkv) +
                           classMs(n, OpClass::FcAttnAdd);
        double two_fcs_i = classMs(i, OpClass::FcQkv) +
                           classMs(i, OpClass::FcAttnAdd);
        double ffn_ratio =
            classMs(n, OpClass::FfnAdd) / classMs(i, OpClass::FfnAdd);
        double attn_ratio = classMs(n, OpClass::SelfAttention) /
                            classMs(i, OpClass::SelfAttention);
        double overall = n.wallMs() / i.wallMs();
        bool is_xl = std::string(size) == "xl";
        std::printf("two attention FCs: %.0f -> %.0f ms = %.1fx "
                    "(paper %s) [%s]\n",
                    two_fcs_n, two_fcs_i, two_fcs_n / two_fcs_i,
                    is_xl ? "890 -> 215 ms, 4.1x" : "-",
                    bench::shapeCheck(two_fcs_n / two_fcs_i, 4.1).c_str());
        std::printf("FFN speedup: %.1fx (paper %s) [%s]\n", ffn_ratio,
                    is_xl ? "5.1x" : "-",
                    bench::shapeCheck(ffn_ratio, 5.1).c_str());
        std::printf("self-attention speedup: %.1fx (paper %s) [%s]\n",
                    attn_ratio, is_xl ? "4.3x" : "-",
                    bench::shapeCheck(attn_ratio, 4.3).c_str());
        std::printf("overall generation speedup: %.1fx (paper %.1fx) "
                    "[%s]\n\n",
                    overall, is_xl ? 4.0 : 3.6,
                    bench::shapeCheck(overall, is_xl ? 4.0 : 3.6)
                        .c_str());
    }
    return 0;
}
