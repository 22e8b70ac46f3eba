/**
 * @file
 * PIM microcode trace: decode a macro GEMV command into the micro PIM
 * command stream the FPGA-based PIM controller would drive onto the
 * GDDR6-AiM bus (Section 6.3's software stack view), with the timing
 * budget per phase.
 *
 *   ./pim_microcode_trace [rows] [cols] [--gelu]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "example_cli.hh"
#include "ianus/pim_control_unit.hh"
#include "pim/pim_channel.hh"

namespace
{

const char *const usage =
    "usage: pim_microcode_trace [rows] [cols] [--gelu]\n"
    "\n"
    "  rows    GEMV output rows (default 384)\n"
    "  cols    GEMV input columns (default 1536)\n"
    "  --gelu  fuse the GELU activation into the macro\n"
    "\n"
    "Exit status: 0 on success, 1 on a simulation error, 2 on a usage\n"
    "error.\n";

int
run(int argc, char **argv)
{
    using namespace ianus;
    std::uint64_t rows = 384;
    std::uint64_t cols = 1536;
    bool gelu = false;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--gelu") == 0)
            gelu = true;
        else if (positional == 0)
            rows = examples::parseCount("rows", argv[i]), ++positional;
        else if (positional == 1)
            cols = examples::parseCount("cols", argv[i]), ++positional;
        else
            throw examples::UsageError(std::string("unexpected argument ") +
                                       argv[i]);
    }

    dram::Gddr6Config mem;
    pim::MacroCommand macro;
    macro.rows = rows;
    macro.cols = cols;
    macro.fusedGelu = gelu;
    macro.hasBias = true;
    macro.channelMask = 0x3; // one AiM chip (2 channels)

    std::printf("macro: %s on one chip (2 channels, 16 banks each)\n\n",
                macro.describe().c_str());

    PimControlUnit pcu(mem);
    auto seq = pcu.decode(macro, 2);

    // Print the head of the stream and a summary; full streams run to
    // hundreds of thousands of micro commands for LM-head shapes.
    std::printf("first micro commands:\n");
    std::size_t shown = 0;
    pim::MicroOp last = pim::MicroOp::EOC;
    std::size_t run = 0;
    auto flush = [&](pim::MicroOp op) {
        if (run > 0)
            std::printf("  %-6s x%zu\n", pim::toString(last), run);
        last = op;
        run = 1;
    };
    for (const auto &step : seq) {
        if (shown++ > 4000)
            break;
        if (run > 0 && step.op == last)
            ++run;
        else
            flush(step.op);
    }
    flush(pim::MicroOp::EOC);

    pim::PimChannelEngine engine(mem);
    pim::MacroTiming mt = engine.macroTiming(macro, 2);
    std::printf("\nmicro-command budget: WRGB %llu | ACTAB %llu | MACAB "
                "%llu | RDMAC %llu | ACTAF %llu | PREAB %llu\n",
                (unsigned long long)mt.micro.wrgb,
                (unsigned long long)mt.micro.actab,
                (unsigned long long)mt.micro.macab,
                (unsigned long long)mt.micro.rdmac,
                (unsigned long long)mt.micro.actaf,
                (unsigned long long)mt.micro.preab);
    std::printf("timing: gb-fill %.2f us | mac-stream %.2f us | "
                "row-overhead %.2f us | total %.2f us\n",
                ticksToUs(mt.gbFill), ticksToUs(mt.macStream),
                ticksToUs(mt.rowOverhead), ticksToUs(mt.total));
    pim::GemvTiling tiling =
        pim::GemvTiling::compute(rows, cols, mem, 2);
    std::printf("row utilization: %.1f%% (the paper's QK^T-on-PIM "
                "argument: head-dim 64 gives 6.25%%)\n",
                100.0 * tiling.rowUtilization());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return ianus::examples::runExample(argc, argv, usage, run);
}
