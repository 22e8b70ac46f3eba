#include "isa/command.hh"

#include <sstream>

namespace ianus::isa
{

const char *
toString(UnitKind unit)
{
    switch (unit) {
      case UnitKind::MatrixUnit: return "mu";
      case UnitKind::VectorUnit: return "vu";
      case UnitKind::DmaIn: return "dma_in";
      case UnitKind::DmaOut: return "dma_out";
      case UnitKind::Pim: return "pim";
      case UnitKind::Sync: return "sync";
    }
    return "?";
}

const char *
toString(OpClass cls)
{
    switch (cls) {
      case OpClass::LayerNorm: return "layernorm";
      case OpClass::SelfAttention: return "self_attention";
      case OpClass::FcQkv: return "fc_qkv";
      case OpClass::FcAttnAdd: return "fc_attn_add";
      case OpClass::FfnAdd: return "ffn_add";
      case OpClass::LmHead: return "lm_head";
      case OpClass::Embedding: return "embedding";
      case OpClass::Other: return "other";
    }
    return "?";
}

const char *
toString(VuOpKind op)
{
    switch (op) {
      case VuOpKind::LayerNorm: return "layernorm";
      case VuOpKind::MaskedSoftmax: return "masked_softmax";
      case VuOpKind::Gelu: return "gelu";
      case VuOpKind::Add: return "add";
      case VuOpKind::Concat: return "concat";
      case VuOpKind::Accumulate: return "accumulate";
    }
    return "?";
}

namespace
{

struct DescribeVisitor
{
    std::ostringstream &os;

    void
    operator()(const MuGemmArgs &a) const
    {
        os << "gemm n=" << a.tokens << " k=" << a.k << " m=" << a.n;
        if (a.weightBytes)
            os << " stream=" << a.weightBytes << "B";
    }
    void
    operator()(const VuArgs &a) const
    {
        os << toString(a.op) << " elems=" << a.elems;
    }
    void
    operator()(const DmaArgs &a) const
    {
        os << (a.isWrite ? "store" : "load") << ' ' << a.bytes << "B"
           << (a.offChip ? " offchip" : " onchip")
           << (a.transpose ? " transpose" : "");
    }
    void
    operator()(const PimArgs &a) const { os << a.macro.describe(); }
    void
    operator()(const SyncArgs &) const { os << "barrier"; }
};

} // namespace

std::string
Command::describe() const
{
    std::ostringstream os;
    os << '#' << id << " c" << core << ' ' << toString(unit) << '/'
       << toString(opClass) << ": ";
    std::visit(DescribeVisitor{os}, payload);
    return os.str();
}

} // namespace ianus::isa
