#include "isa/insn.hh"

namespace prorace::isa {

namespace {

bool
validScale(uint8_t s)
{
    return s == 1 || s == 2 || s == 4 || s == 8;
}

const char *
validateMem(const MemOperand &m)
{
    if (!validScale(m.scale))
        return "memory operand scale must be 1/2/4/8";
    if (m.rip_relative && (m.base != Reg::none || m.index != Reg::none))
        return "rip-relative operand must not use base/index registers";
    if (m.base != Reg::none && !isGpr(m.base))
        return "memory base must be a GPR";
    if (m.index != Reg::none && !isGpr(m.index))
        return "memory index must be a GPR";
    return nullptr;
}

} // namespace

bool
validWidth(uint8_t w)
{
    return w == 1 || w == 2 || w == 4 || w == 8;
}

const char *
validateInsn(const Insn &insn)
{
    if (insn.hasMemOperand()) {
        if (const char *err = validateMem(insn.mem))
            return err;
    }
    if (accessesMemory(insn.op) && !validWidth(insn.width))
        return "memory access width must be 1/2/4/8";
    if (writesDst(insn.op) && !isGpr(insn.dst))
        return "instruction requires a GPR destination";
    switch (insn.op) {
      case Op::kMovRR:
      case Op::kStore:
      case Op::kPush:
      case Op::kJmpInd:
      case Op::kCallInd:
      case Op::kFree:
      case Op::kJoin:
      case Op::kCondWait:
        if (!isGpr(insn.src))
            return "instruction requires a GPR source";
        break;
      case Op::kStoreRel:
        if (!isGpr(insn.src))
            return "instruction requires a GPR source";
        break;
      case Op::kAluRR:
      case Op::kCmpRR:
      case Op::kTestRR:
      case Op::kAtomicRmw:
      case Op::kCas:
      case Op::kAtomicRmwAcqRel:
        if (!isGpr(insn.src))
            return "instruction requires a GPR source";
        if (!isGpr(insn.dst))
            return "instruction requires a GPR left operand";
        break;
      case Op::kCmpRI:
      case Op::kTestRI:
        if (!isGpr(insn.dst))
            return "compare requires a GPR left operand";
        break;
      case Op::kMalloc:
        if (!isGpr(insn.src))
            return "malloc requires the size in a GPR source";
        break;
      case Op::kBarrier:
        if (insn.imm < 1)
            return "barrier requires a positive party count";
        break;
      case Op::kSemInit:
        if (insn.imm < 0)
            return "semaphore initial count must be non-negative";
        break;
      default:
        break;
    }
    return nullptr;
}

} // namespace prorace::isa
