/**
 * @file
 * The cycle-derived event-driven execution engine.
 *
 * Runs one Program over the device model: per-core matrix/vector units
 * and DMA pairs, the fluid-flow channel arbiter (unified memory
 * contention), and the PIM control unit path. Dispatch policy implements
 * the PIM Access Scheduling runtime rules:
 *
 *  - a macro PIM command is admitted only when its channels carry no
 *    normal memory flows and no other macro command;
 *  - while a macro PIM command is running *or waiting for admission*,
 *    off-chip commands touching its channels are held (the paper's
 *    "DMA commands into wait state");
 *  - matrix-unit GEMMs with streamed weights overlap the weight flow
 *    with compute (Algorithm 1's pipelined model) and are subject to the
 *    same hold, since their flows use the off-chip memory.
 *
 * Every command's duration comes from the Table-1-derived unit models;
 * events fire at command granularity.
 */

#ifndef IANUS_IANUS_EXECUTION_ENGINE_HH
#define IANUS_IANUS_EXECUTION_ENGINE_HH

#include <memory>
#include <vector>

#include "ianus/report.hh"
#include "ianus/system_config.hh"
#include "isa/program.hh"

namespace ianus
{

/**
 * Executes Programs on one device model. The model and every buffer a
 * run needs are built once, with the engine, and kept across runs, so
 * a run on a program no larger than earlier ones allocates nothing.
 * One engine runs one program at a time.
 */
class ExecutionEngine
{
  public:
    /**
     * @param cfg     Device configuration.
     * @param devices Devices in the (symmetric) multi-device system;
     *                only affects inter-device barrier costs.
     */
    explicit ExecutionEngine(const SystemConfig &cfg, unsigned devices = 1);
    ~ExecutionEngine();

    /**
     * Run @p prog to completion; panics on deadlock (a compiler bug).
     * With @p block_ends, also append one snapshot per block end of
     * @p prog (Program::blockEnds()), taken as that barrier completes
     * and before the next block dispatches: the statistics so far,
     * with wallTicks the barrier's completion tick and the DRAM bytes
     * moved so far. Panics if work is still in flight there.
     */
    RunStats run(const isa::Program &prog,
                 std::vector<RunStats> *block_ends = nullptr);

  private:
    class Machine;
    std::unique_ptr<Machine> machine_;
};

} // namespace ianus

#endif // IANUS_IANUS_EXECUTION_ENGINE_HH
