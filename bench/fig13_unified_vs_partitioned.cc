/**
 * @file
 * Figure 13: unified vs partitioned memory systems, attention mapping
 * (QKT/SV on PIM vs matrix unit), and naive vs PAS scheduling, at
 * (256,512) across the GPT-2 models. Six design points per model,
 * normalized to the partitioned naive PIM-mapped baseline.
 *
 * Paper: scheduled partitioned averages 1.3x; IANUS beats the scheduled
 * partitioned system by 1.4-1.6x (more for 2.5B, whose weights cannot
 * be duplicated); scheduling the PIM mapping gains ~7%; 2.5B gains 24%
 * from scheduling under the MU mapping; unified memory-aware scheduling
 * delivers ~34% over the naive unified PIM-mapped point. Final bars:
 * 1.9 / 2.0 / 2.0 / 4.3.
 */

#include <cstdio>
#include <vector>

#include "common/bench_common.hh"
#include "serve/compiled_model.hh"

int
main(int argc, char **argv)
{
    using namespace ianus;
    using compiler::AttnMapping;
    using compiler::BuildOptions;
    using compiler::SchedulingPolicy;
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Figure 13 — memory system x mapping x scheduling "
                  "(256,512)",
                  "bars per model: 1.0 | 1.4/1.3/1.3/1.2 | "
                  "1.3/1.5/1.5/3.5 | 1.5/1.6/1.6/3.7 | 1.6/1.7/1.7/3.5 "
                  "| 1.9/2.0/2.0/4.3");

    struct Design
    {
        const char *name;
        bool unified;
        AttnMapping attn;
        SchedulingPolicy policy;
        double paper[4];
    };
    const Design designs[] = {
        {"part/pim/naive", false, AttnMapping::Pim,
         SchedulingPolicy::Naive, {1.0, 1.0, 1.0, 1.0}},
        {"part/mu/pas", false, AttnMapping::MatrixUnit,
         SchedulingPolicy::Pas, {1.4, 1.3, 1.3, 1.2}},
        {"unif/pim/naive", true, AttnMapping::Pim,
         SchedulingPolicy::Naive, {1.3, 1.5, 1.5, 3.5}},
        {"unif/pim/pas", true, AttnMapping::Pim, SchedulingPolicy::Pas,
         {1.5, 1.6, 1.6, 3.7}},
        {"unif/mu/naive", true, AttnMapping::MatrixUnit,
         SchedulingPolicy::Naive, {1.6, 1.7, 1.7, 3.5}},
        {"unif/mu/pas (IANUS)", true, AttnMapping::MatrixUnit,
         SchedulingPolicy::Pas, {1.9, 2.0, 2.0, 4.3}},
    };

    workloads::InferenceRequest req{256, 512};
    unsigned stride = bench::strideFor(req.outputTokens, opts);
    auto models = workloads::allGpt2();

    // latency[design][model]
    std::vector<std::vector<double>> ms(6,
                                        std::vector<double>(models.size()));
    for (std::size_t d = 0; d < 6; ++d) {
        SystemConfig cfg = designs[d].unified
                               ? SystemConfig::ianusDefault()
                               : SystemConfig::partitioned();
        BuildOptions b;
        b.attnMapping = designs[d].attn;
        b.policy = designs[d].policy;
        for (std::size_t m = 0; m < models.size(); ++m)
            ms[d][m] = serve::CompiledModel(cfg, models[m], b)
                           .run(req, stride)
                           .totalMs();
    }

    bench::Table table({"design", "gpt2-m", "gpt2-l", "gpt2-xl",
                        "gpt2-2.5b", "paper"});
    for (std::size_t d = 0; d < 6; ++d) {
        std::vector<std::string> row{designs[d].name};
        for (std::size_t m = 0; m < models.size(); ++m)
            row.push_back(bench::Table::ratio(ms[0][m] / ms[d][m]));
        char paper[64];
        std::snprintf(paper, sizeof(paper), "%.1f/%.1f/%.1f/%.1f",
                      designs[d].paper[0], designs[d].paper[1],
                      designs[d].paper[2], designs[d].paper[3]);
        row.push_back(paper);
        table.addRow(std::move(row));
    }
    table.print(opts);

    // Derived headline ratios.
    std::vector<double> part_sched, unif_vs_part, pim_sched_gain,
        overall_sched;
    for (std::size_t m = 0; m < models.size(); ++m) {
        part_sched.push_back(ms[0][m] / ms[1][m]);
        unif_vs_part.push_back(ms[1][m] / ms[5][m]);
        pim_sched_gain.push_back(ms[2][m] / ms[3][m]);
        overall_sched.push_back(ms[2][m] / ms[5][m]);
    }
    std::printf("scheduled partitioned avg: %.2fx (paper 1.3x) [%s]\n",
                bench::mean(part_sched),
                bench::shapeCheck(bench::mean(part_sched), 1.3).c_str());
    std::printf("IANUS vs scheduled partitioned: %.2fx/%.2fx/%.2fx/%.2fx "
                "(paper 1.4-1.6x; larger for 2.5B)\n",
                unif_vs_part[0], unif_vs_part[1], unif_vs_part[2],
                unif_vs_part[3]);
    std::printf("scheduling gain, PIM mapping: %.0f%% (paper ~7%%)\n",
                (bench::mean(pim_sched_gain) - 1.0) * 100.0);
    std::printf("2.5B scheduling gain, MU mapping: %.0f%% (paper 24%%)\n",
                (ms[4][3] / ms[5][3] - 1.0) * 100.0);
    std::printf("unified memory-aware scheduling overall: %.0f%% "
                "(paper ~34%%)\n",
                (bench::mean(overall_sched) - 1.0) * 100.0);
    return 0;
}
