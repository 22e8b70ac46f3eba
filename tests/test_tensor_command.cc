/** @file Command IR basics. */

#include <gtest/gtest.h>

#include "isa/command.hh"

namespace
{

using namespace ianus::isa;

TEST(Command, DescribeMuGemm)
{
    Command cmd;
    cmd.id = 3;
    cmd.core = 1;
    cmd.unit = UnitKind::MatrixUnit;
    cmd.opClass = OpClass::FcQkv;
    MuGemmArgs g;
    g.tokens = 128;
    g.k = 1536;
    g.n = 64;
    g.weightBytes = 4096;
    cmd.payload = g;
    std::string s = cmd.describe();
    EXPECT_NE(s.find("gemm n=128 k=1536 m=64"), std::string::npos);
    EXPECT_NE(s.find("stream=4096B"), std::string::npos);
    EXPECT_NE(s.find("mu/fc_qkv"), std::string::npos);
}

TEST(Command, DescribePim)
{
    Command cmd;
    cmd.unit = UnitKind::Pim;
    ianus::pim::MacroCommand m;
    m.rows = 64;
    m.cols = 1536;
    m.fusedGelu = true;
    m.channelMask = 0x3;
    cmd.payload = PimArgs{m, 1};
    EXPECT_NE(cmd.describe().find("GEMV[64x1536]+gelu"),
              std::string::npos);
}

TEST(Command, DescribeDmaAndSync)
{
    Command dma;
    dma.unit = UnitKind::DmaOut;
    DmaArgs d;
    d.bytes = 1024;
    d.offChip = false;
    d.transpose = true;
    dma.payload = d;
    EXPECT_NE(dma.describe().find("load 1024B onchip transpose"),
              std::string::npos);

    Command sync;
    sync.unit = UnitKind::Sync;
    sync.payload = SyncArgs{};
    EXPECT_NE(sync.describe().find("barrier"), std::string::npos);
}

TEST(Command, EnumNames)
{
    EXPECT_STREQ(toString(UnitKind::Pim), "pim");
    EXPECT_STREQ(toString(OpClass::FfnAdd), "ffn_add");
    EXPECT_STREQ(toString(VuOpKind::MaskedSoftmax), "masked_softmax");
}

} // namespace
