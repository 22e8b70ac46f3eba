#include "serve/kv_manager.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ianus::serve
{

namespace
{

/** What a KV operation requires of a request's parked state. */
enum class Parked : std::uint8_t { Any, No, Yes };

/** Request @p id's reservation in @p requests; fatal, naming @p op, when
 *  it holds no KV blocks or its parked state is not what @p want asks. */
template <typename Requests>
auto &
residentIn(Requests &requests, std::uint64_t id, const char *op,
           Parked want = Parked::Any)
{
    auto it = requests.find(id);
    if (it == requests.end())
        IANUS_FATAL(op, " on request ", id, " with no KV blocks");
    if (want != Parked::Any && it->second.parked != (want == Parked::Yes))
        IANUS_FATAL(op, " on request ", id,
                    want == Parked::Yes ? " which is not parked"
                                        : " which is parked");
    return it->second;
}

} // namespace

const char *
toString(KvAdmission admission)
{
    switch (admission) {
    case KvAdmission::None: return "none";
    case KvAdmission::Queue: return "queue";
    case KvAdmission::Shed: return "shed";
    }
    return "?";
}

const char *
toString(KvLayout layout)
{
    switch (layout) {
    case KvLayout::Unified: return "unified";
    case KvLayout::Partitioned: return "partitioned";
    }
    return "?";
}

KvAdmission
makeKvAdmission(const std::string &name)
{
    if (name == "none")
        return KvAdmission::None;
    if (name == "queue")
        return KvAdmission::Queue;
    if (name == "shed")
        return KvAdmission::Shed;
    IANUS_FATAL("unknown KV admission mode '", name,
                "' (none, queue, shed)");
}

KvLayout
makeKvLayout(const std::string &name)
{
    if (name == "unified")
        return KvLayout::Unified;
    if (name == "partitioned")
        return KvLayout::Partitioned;
    IANUS_FATAL("unknown KV layout '", name, "' (unified, partitioned)");
}

std::uint64_t
kvBytesPerToken(const workloads::ModelConfig &model)
{
    // K and V, one headDim vector per head per block, BF16.
    return 2 * model.nBlocks * model.qkvDim() * 2;
}

std::uint64_t
deriveKvCapacityTokens(const SystemConfig &sys,
                       const workloads::ModelConfig &model)
{
    const auto &mem = sys.mem;
    const std::uint64_t bankBytes =
        mem.capacityBytes /
        (static_cast<std::uint64_t>(mem.channels) * mem.banksPerChannel);
    const std::uint64_t rowsPerBank = bankBytes / mem.rowBytes;
    // Recompose from the channel geometry so a geometry edit (rows,
    // banks, channels) flows into the KV budget the way the issue's
    // banks/rows -> bytes -> tokens chain describes.
    const std::uint64_t dramBytes =
        static_cast<std::uint64_t>(mem.channels) * mem.banksPerChannel *
        rowsPerBank * mem.rowBytes;
    const std::uint64_t weights = model.weightBytes();
    if (weights >= dramBytes)
        IANUS_FATAL("model '", model.name, "' weights (", weights,
                    " B) exceed device DRAM (", dramBytes,
                    " B); no room for KV cache");
    return (dramBytes - weights) / kvBytesPerToken(model);
}

std::uint64_t
kvTransferBytes(const workloads::ModelConfig &model, std::uint64_t tokens)
{
    return tokens * kvBytesPerToken(model);
}

double
deriveKvLinkGBs(const SystemConfig &sys)
{
    // bytesPerTick is bytes/ps, so GB/s = bytesPerTick * 1000; the DMA
    // engine never hits the line rate (same derate as the KV spill
    // path).
    return sys.pcie.bytesPerTick * 1000.0 * sys.dmaEfficiency;
}

double
kvTransferMs(std::uint64_t bytes, double link_gbs)
{
    if (!(link_gbs > 0.0))
        IANUS_FATAL("KV link bandwidth must be positive, got ", link_gbs,
                    " GB/s");
    if (std::isinf(link_gbs))
        return 0.0; // the explicit zero-cost link, exactly
    // GB/s = bytes/us, so ms = bytes / (GB/s * 1e6).
    return static_cast<double>(bytes) / (link_gbs * 1e6);
}

void
KvOptions::check() const
{
    if (blockTokens == 0)
        IANUS_FATAL("KV block size must be a positive token count");
    if (!enabled()) {
        if (admission != KvAdmission::None)
            IANUS_FATAL("KV admission '", toString(admission),
                        "' needs a positive KV capacity (capacityTokens is "
                        "0, so nothing bounds admission)");
        return;
    }
    const std::uint64_t blocks = capacityTokens / blockTokens;
    if (blocks == 0)
        IANUS_FATAL("KV capacity ", capacityTokens,
                    " tokens is smaller than one ", blockTokens,
                    "-token block");
    if (layout == KvLayout::Partitioned && blocks < 2)
        IANUS_FATAL("partitioned KV layout needs at least two blocks of "
                    "capacity (got ", blocks, ")");
}

KvBlockManager::KvBlockManager(const KvOptions &opts,
                               const SystemConfig &sys)
    : opts_(opts)
{
    if (!opts.enabled())
        IANUS_FATAL("KvBlockManager needs a positive KV capacity");
    opts.check();
    const std::uint64_t blocks = opts.capacityTokens / opts.blockTokens;
    if (opts.layout == KvLayout::Partitioned) {
        // NPU-DRAM region first, PIM region second (Fig 13 halves).
        regions_.resize(2);
        regions_[0].capBlocks = blocks / 2;
        regions_[1].capBlocks = blocks - blocks / 2;
    } else {
        regions_.resize(1);
        regions_[0].capBlocks = blocks;
    }
    for (auto &r : regions_)
        r.freeBlocks = static_cast<std::int64_t>(r.capBlocks);
    // Spilled KV rides PCIe instead of device DRAM: each spilled byte
    // takes (DRAM effective / PCIe) times as long to move.
    const double dramGBs = sys.mem.systemPeakGBs() * sys.dmaEfficiency;
    const double pcieGBs = sys.pcie.bytesPerTick * 1000.0;
    spillFactor_ = std::max(1.0, dramGBs / pcieGBs);
}

std::uint64_t
KvBlockManager::blocksFor(std::uint64_t tokens) const
{
    return (tokens + opts_.blockTokens - 1) / opts_.blockTokens;
}

std::uint64_t
KvBlockManager::totalBlocks() const
{
    std::uint64_t total = 0;
    for (const auto &r : regions_)
        total += r.capBlocks;
    return total;
}

std::int64_t
KvBlockManager::freeBlocks() const
{
    std::int64_t free = 0;
    for (const auto &r : regions_)
        free += r.freeBlocks;
    return free;
}

double
KvBlockManager::pressure() const
{
    const auto total = static_cast<double>(totalBlocks());
    return (total - static_cast<double>(freeBlocks())) / total;
}

void
KvBlockManager::notePressure()
{
    peakPressure_ = std::max(peakPressure_, pressure());
}

bool
KvBlockManager::fits(std::uint64_t max_tokens, std::size_t region,
                     std::uint64_t freed) const
{
    if (opts_.admission == KvAdmission::None)
        return true;
    const auto need = static_cast<std::int64_t>(blocksFor(max_tokens));
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        std::int64_t free = regions_[i].freeBlocks;
        if (i == region)
            free += static_cast<std::int64_t>(freed);
        if (free >= need)
            return true;
    }
    return false;
}

bool
KvBlockManager::canEverAdmit(std::uint64_t max_tokens) const
{
    const std::uint64_t need = blocksFor(max_tokens);
    for (const auto &r : regions_)
        if (r.capBlocks >= need)
            return true;
    return false;
}

void
KvBlockManager::admit(std::uint64_t id, std::uint64_t max_tokens)
{
    if (requests_.count(id))
        IANUS_FATAL("request ", id, " already holds KV blocks");
    const std::uint64_t need = blocksFor(max_tokens);
    // Emptier region first so a partitioned pool fills evenly; ties go
    // to the NPU region for determinism.
    std::size_t region = 0;
    for (std::size_t i = 1; i < regions_.size(); ++i)
        if (regions_[i].freeBlocks > regions_[region].freeBlocks)
            region = i;
    if (regions_[region].freeBlocks < static_cast<std::int64_t>(need) &&
        opts_.admission != KvAdmission::None)
        IANUS_FATAL("KV admit of ", need, " blocks for request ", id,
                    " exceeds free space (", regions_[region].freeBlocks,
                    " blocks) under ", toString(opts_.admission),
                    " admission");
    regions_[region].freeBlocks -= static_cast<std::int64_t>(need);
    requests_[id] = Resident{region, need, max_tokens, 0, false};
    notePressure();
}

void
KvBlockManager::setUsed(std::uint64_t id, std::uint64_t tokens)
{
    // Parked KV cannot grow.
    Resident &res = residentIn(requests_, id, "setUsed", Parked::No);
    // An encoder summarization or the post-prefill bootstrap token can
    // nudge one past the worst case; the reservation already covers it.
    tokens = std::min(tokens, res.maxTokens);
    if (tokens < res.usedTokens)
        return; // KV only grows while resident
    regions_[res.region].usedTokens += tokens - res.usedTokens;
    res.usedTokens = tokens;
}

void
KvBlockManager::park(std::uint64_t id)
{
    Resident &res = residentIn(requests_, id, "park", Parked::No);
    const std::uint64_t keep = blocksFor(res.usedTokens);
    regions_[res.region].freeBlocks +=
        static_cast<std::int64_t>(res.reservedBlocks - keep);
    res.reservedBlocks = keep;
    res.parked = true;
}

bool
KvBlockManager::canResume(std::uint64_t id) const
{
    const Resident &res =
        residentIn(requests_, id, "canResume", Parked::Yes);
    if (opts_.admission == KvAdmission::None)
        return true;
    const std::uint64_t grow =
        blocksFor(res.maxTokens) - res.reservedBlocks;
    return regions_[res.region].freeBlocks >=
           static_cast<std::int64_t>(grow);
}

bool
KvBlockManager::parkWouldAdmit(std::uint64_t victim,
                               std::uint64_t max_tokens) const
{
    if (opts_.admission == KvAdmission::None)
        return true;
    const Resident &v =
        residentIn(requests_, victim, "parkWouldAdmit", Parked::No);
    return fits(max_tokens, v.region,
                v.reservedBlocks - blocksFor(v.usedTokens));
}

bool
KvBlockManager::parkWouldResume(std::uint64_t victim,
                                std::uint64_t cand) const
{
    if (opts_.admission == KvAdmission::None)
        return true;
    const Resident &v =
        residentIn(requests_, victim, "parkWouldResume", Parked::No);
    const Resident &c =
        residentIn(requests_, cand, "parkWouldResume", Parked::Yes);
    const std::uint64_t freed =
        v.reservedBlocks - blocksFor(v.usedTokens);
    std::int64_t free = regions_[c.region].freeBlocks;
    if (v.region == c.region)
        free += static_cast<std::int64_t>(freed);
    const auto grow = static_cast<std::int64_t>(
        blocksFor(c.maxTokens) - c.reservedBlocks);
    return free >= grow;
}

bool
KvBlockManager::releaseWouldAdmit(std::uint64_t old_id,
                                  std::uint64_t max_tokens) const
{
    if (opts_.admission == KvAdmission::None)
        return true;
    const Resident &old = residentIn(requests_, old_id, "releaseWouldAdmit");
    return fits(max_tokens, old.region, old.reservedBlocks);
}

void
KvBlockManager::resume(std::uint64_t id)
{
    Resident &res = residentIn(requests_, id, "resume", Parked::Yes);
    const std::uint64_t full = blocksFor(res.maxTokens);
    const auto grow =
        static_cast<std::int64_t>(full - res.reservedBlocks);
    if (regions_[res.region].freeBlocks < grow &&
        opts_.admission != KvAdmission::None)
        IANUS_FATAL("KV resume of request ", id, " needs ", grow,
                    " blocks but region has ",
                    regions_[res.region].freeBlocks, " free under ",
                    toString(opts_.admission), " admission");
    regions_[res.region].freeBlocks -= grow;
    res.reservedBlocks = full;
    res.parked = false;
    notePressure();
}

void
KvBlockManager::release(std::uint64_t id)
{
    const Resident &res = residentIn(requests_, id, "release");
    const std::uint64_t gross = res.reservedBlocks * opts_.blockTokens;
    fragGross_ += gross;
    fragWaste_ += gross - std::min(gross, res.usedTokens);
    regions_[res.region].freeBlocks +=
        static_cast<std::int64_t>(res.reservedBlocks);
    regions_[res.region].usedTokens -= res.usedTokens;
    requests_.erase(id);
}

std::uint64_t
KvBlockManager::residentTokens() const
{
    std::uint64_t tokens = 0;
    for (const auto &r : regions_)
        tokens += r.usedTokens;
    return tokens;
}

double
KvBlockManager::dilation() const
{
    std::uint64_t spilled = 0;
    std::uint64_t used = 0;
    for (const auto &r : regions_) {
        const std::uint64_t cap = r.capBlocks * opts_.blockTokens;
        spilled += r.usedTokens > cap ? r.usedTokens - cap : 0;
        used += r.usedTokens;
    }
    if (spilled == 0 || used == 0)
        return 1.0;
    const double f =
        static_cast<double>(spilled) / static_cast<double>(used);
    return 1.0 + f * (spillFactor_ - 1.0);
}

double
KvBlockManager::readBandwidthGBs(const SystemConfig &sys, KvLayout layout)
{
    const double full = sys.mem.systemPeakGBs() * sys.dmaEfficiency;
    return layout == KvLayout::Partitioned ? full / 2.0 : full;
}

} // namespace ianus::serve
