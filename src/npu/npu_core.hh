/**
 * @file
 * One NPU core: matrix unit + vector unit + scratchpads + DMA pair
 * (Figure 3, left).
 */

#ifndef IANUS_NPU_NPU_CORE_HH
#define IANUS_NPU_NPU_CORE_HH

#include <memory>

#include "npu/dma_engine.hh"
#include "npu/matrix_unit.hh"
#include "npu/scratchpad.hh"
#include "npu/vector_unit.hh"

namespace ianus::npu
{

/** Per-core scratchpad sizes (Table 1). */
struct CoreMemoryParams
{
    std::uint64_t actScratchpadBytes = 12 * MiB;
    std::uint64_t weightScratchpadBytes = 4 * MiB;
    /** WM entry feeds one systolic column set; AM entries are 2x (4.1). */
    std::uint64_t weightEntryBytes = 128;
    std::uint64_t actEntryBytes = 256;

    bool operator==(const CoreMemoryParams &) const = default;
};

/** Aggregate of one core's units; owns no event state. */
class NpuCore
{
  public:
    NpuCore(const MatrixUnitParams &mu, const VectorUnitParams &vu,
            const CoreMemoryParams &mem, const noc::Noc &noc,
            const dram::Gddr6Config &dram)
        : matrixUnit(mu), vectorUnit(vu),
          actScratchpad("am", mem.actScratchpadBytes, mem.actEntryBytes),
          weightScratchpad("wm", mem.weightScratchpadBytes,
                           mem.weightEntryBytes),
          dma(noc, dram)
    {}

    MatrixUnit matrixUnit;
    VectorUnit vectorUnit;
    Scratchpad actScratchpad;
    Scratchpad weightScratchpad;
    DmaEngine dma;
};

} // namespace ianus::npu

#endif // IANUS_NPU_NPU_CORE_HH
