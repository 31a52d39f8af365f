#include "compiler/interpreter.h"

#include "common/panic.h"
#include "compiler/fase_compiler.h"
#include "runtime/runtime.h"

namespace ido::compiler {

uint32_t
interpreter_trampoline(rt::RuntimeThread& th, rt::RegionCtx& ctx)
{
    const rt::FaseProgram* prog = th.current_program();
    IDO_ASSERT(prog != nullptr && prog->impl != nullptr);
    const auto* cf = static_cast<const CompiledFase*>(prog->impl);
    return interpret_region(*cf, th, ctx);
}

uint32_t
interpret_region(const CompiledFase& cf, rt::RuntimeThread& th,
                 rt::RegionCtx& ctx)
{
    const Function& fn = cf.function();
    const RegionPartition& part = cf.partition();
    const uint32_t region = th.current_region();
    IDO_ASSERT(region < part.num_regions());
    InstrRef pos = part.starts()[region];

    uint64_t steps = 0;
    while (true) {
        IDO_ASSERT(steps < 1u << 22, "runaway interpretation in '%s'",
                   fn.name().c_str());
        // Region boundary?  The entry position only counts before the
        // first instruction runs: a loop back edge returning to our own
        // start is a boundary (each iteration is a region instance).
        uint32_t next_region;
        if (steps > 0 && part.is_region_start(pos, &next_region))
            return next_region;
        ++steps;
        const Instr& ins = fn.block(pos.block).instrs[pos.index];
        InstrRef next{pos.block, pos.index + 1};
        switch (ins.op) {
          case Opcode::kConst:
            ctx.r[ins.dst] = ins.imm;
            break;
          case Opcode::kMov:
            ctx.r[ins.dst] = ctx.r[ins.a];
            break;
          case Opcode::kAdd:
            ctx.r[ins.dst] = ctx.r[ins.a] + ctx.r[ins.b];
            break;
          case Opcode::kSub:
            ctx.r[ins.dst] = ctx.r[ins.a] - ctx.r[ins.b];
            break;
          case Opcode::kMul:
            ctx.r[ins.dst] = ctx.r[ins.a] * ctx.r[ins.b];
            break;
          case Opcode::kCmpLt:
            ctx.r[ins.dst] = ctx.r[ins.a] < ctx.r[ins.b] ? 1 : 0;
            break;
          case Opcode::kCmpEq:
            ctx.r[ins.dst] = ctx.r[ins.a] == ctx.r[ins.b] ? 1 : 0;
            break;
          case Opcode::kLoad:
            ctx.r[ins.dst] = th.load_u64(ctx.r[ins.a] + ins.imm);
            break;
          case Opcode::kStore:
            th.store_u64(ctx.r[ins.a] + ins.imm, ctx.r[ins.b]);
            break;
          case Opcode::kAlloc:
            ctx.r[ins.dst] = th.nv_alloc(ins.imm);
            break;
          case Opcode::kFree:
            th.nv_free(ctx.r[ins.a]);
            break;
          case Opcode::kLock:
            th.fase_lock(ctx.r[ins.a] + ins.imm);
            break;
          case Opcode::kUnlock:
            th.fase_unlock(ctx.r[ins.a] + ins.imm);
            break;
          case Opcode::kBr:
            next = InstrRef{static_cast<uint32_t>(ins.imm), 0};
            break;
          case Opcode::kCondBr:
            next = ctx.r[ins.a] != 0
                ? InstrRef{static_cast<uint32_t>(ins.imm), 0}
                : InstrRef{ins.target2, 0};
            break;
          case Opcode::kRet:
            return rt::kRegionEnd;
        }
        pos = next;
    }
}

} // namespace ido::compiler
