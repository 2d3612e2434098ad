/**
 * @file
 * Per-instruction static facts — the single source of truth for
 * may-write register masks, register read sets, memory-event counts,
 * and the invertibility classification the replayer exploits.
 *
 * The aligner and the replayer call these functions directly; keeping
 * every per-instruction fact in one table means they and the dataflow
 * passes can never drift apart on what an opcode may touch.
 */

#ifndef PRORACE_ANALYSIS_INSN_FACTS_HH
#define PRORACE_ANALYSIS_INSN_FACTS_HH

#include <cstdint>

#include "isa/insn.hh"

namespace prorace::analysis {

/** Bit for one GPR in a 16-bit register mask. */
inline constexpr uint16_t
regBit(isa::Reg reg)
{
    return static_cast<uint16_t>(1u << isa::gprIndex(reg));
}

/** The write mask of a path gap: untraced code may clobber anything. */
inline constexpr uint16_t kGapWriteMask = 0xffff;

/**
 * Bitmask of GPRs an instruction may write (bit i = gpr i).
 * "May write" is what matters: backward propagation of a register value
 * is valid only across instructions that definitely do not write it.
 */
inline uint16_t
regWriteMask(const isa::Insn &insn)
{
    using isa::Op;
    using isa::Reg;
    uint16_t mask = 0;
    if (isa::writesDst(insn.op) && isa::isGpr(insn.dst))
        mask |= regBit(insn.dst);
    switch (insn.op) {
      case Op::kPush:
      case Op::kPop:
      case Op::kCall:
      case Op::kCallInd:
      case Op::kRet:
        mask |= regBit(Reg::rsp);
        break;
      case Op::kSyscall:
        mask |= regBit(Reg::rax);
        break;
      default:
        break;
    }
    return mask;
}

/**
 * Bitmask of GPRs an instruction may read: explicit operands, memory
 * operand base/index registers, and the implicit rsp of stack ops.
 */
inline uint16_t
regReadMask(const isa::Insn &insn)
{
    using isa::Op;
    using isa::Reg;
    uint16_t mask = 0;
    if (insn.hasMemOperand() && !insn.mem.rip_relative) {
        if (isa::isGpr(insn.mem.base))
            mask |= regBit(insn.mem.base);
        if (isa::isGpr(insn.mem.index))
            mask |= regBit(insn.mem.index);
    }
    switch (insn.op) {
      case Op::kMovRR:
      case Op::kStore:
      case Op::kAtomicRmw:
      case Op::kJmpInd:
      case Op::kSpawn:
      case Op::kJoin:
      case Op::kMalloc:
      case Op::kFree:
      case Op::kCondWait:
      case Op::kStoreRel:
      case Op::kAtomicRmwAcqRel:
        if (isa::isGpr(insn.src))
            mask |= regBit(insn.src);
        break;
      case Op::kAluRR:
      case Op::kCmpRR:
      case Op::kTestRR:
      case Op::kCas:
        if (isa::isGpr(insn.src))
            mask |= regBit(insn.src);
        [[fallthrough]];
      case Op::kAluRI:
      case Op::kCmpRI:
      case Op::kTestRI:
        if (isa::isGpr(insn.dst))
            mask |= regBit(insn.dst);
        break;
      case Op::kPush:
        if (isa::isGpr(insn.src))
            mask |= regBit(insn.src);
        mask |= regBit(Reg::rsp);
        break;
      case Op::kCallInd:
        if (isa::isGpr(insn.src))
            mask |= regBit(insn.src);
        mask |= regBit(Reg::rsp);
        break;
      case Op::kPop:
      case Op::kCall:
      case Op::kRet:
        mask |= regBit(Reg::rsp);
        break;
      default:
        break;
    }
    return mask;
}

/**
 * Number of PEBS-countable memory events one instruction retires.
 * kCas may retire one or two (the store happens only on success);
 * callers using this for distance arithmetic must allow slack.
 */
inline unsigned
memOpCount(const isa::Insn &insn)
{
    using isa::Op;
    switch (insn.op) {
      case Op::kLoad:
      case Op::kStore:
      case Op::kStoreI:
      case Op::kPush:
      case Op::kPop:
      case Op::kCall:
      case Op::kCallInd:
      case Op::kRet:
      case Op::kLoadAcq:
      case Op::kStoreRel:
        return 1;
      case Op::kAtomicRmw:
      case Op::kCas:
      case Op::kAtomicRmwAcqRel:
        return 2;
      default:
        return 0;
    }
}

/** True for the ALU sub-operations reverse execution can invert. */
inline bool
invertibleAlu(isa::AluOp op)
{
    using isa::AluOp;
    return op == AluOp::kAdd || op == AluOp::kSub || op == AluOp::kXor;
}

/**
 * Static facts of one instruction, precomputed once per program so the
 * replay inner loops index a flat table instead of re-deriving them.
 */
struct InsnFacts {
    /** May-write register mask (== regWriteMask). */
    uint16_t kill = 0;
    /** May-read register mask (== regReadMask). */
    uint16_t uses = 0;
    /**
     * Subset of `kill` whose pre-state backward replay can reconstruct
     * from the post-state (reverse execution, §5.2.2): invertible ALU
     * immediates, invertible reg-reg ALU (given the source), and the
     * ±8 rsp arithmetic of push/pop/call/ret.
     */
    uint16_t invertible = 0;
    /**
     * Registers *outside* `kill` whose pre-state is learnable from the
     * post-state of other registers: the source of a reg-reg move and
     * the base of a single-base lea.
     */
    uint16_t learns = 0;
    /** PEBS-countable memory events (== memOpCount). */
    uint8_t mem_ops = 0;
    /**
     * True when forward replay can always compute this access's
     * effective address (PC-relative operands need no registers).
     */
    bool ea_static = false;
    /**
     * True when emulated memory does not survive this instruction
     * (sync / allocation / syscall run untraced library code).
     */
    bool memory_barrier = false;
};

/** Classify one instruction. */
inline InsnFacts
classifyInsn(const isa::Insn &insn)
{
    using isa::Op;
    using isa::Reg;
    InsnFacts f;
    f.kill = regWriteMask(insn);
    f.uses = regReadMask(insn);
    f.mem_ops = static_cast<uint8_t>(memOpCount(insn));
    f.ea_static = insn.hasMemOperand() && insn.mem.rip_relative;
    switch (insn.op) {
      case Op::kAluRI:
        if (invertibleAlu(insn.alu) && isa::isGpr(insn.dst))
            f.invertible |= regBit(insn.dst);
        break;
      case Op::kAluRR:
        if (invertibleAlu(insn.alu) && isa::isGpr(insn.dst) &&
            insn.src != insn.dst) {
            f.invertible |= regBit(insn.dst);
        }
        break;
      case Op::kMovRR:
        if (isa::isGpr(insn.src) && insn.src != insn.dst)
            f.learns |= regBit(insn.src);
        break;
      case Op::kLea:
        if (!insn.mem.rip_relative && isa::isGpr(insn.mem.base) &&
            insn.mem.index == Reg::none && insn.mem.base != insn.dst) {
            f.learns |= regBit(insn.mem.base);
        }
        break;
      case Op::kPush:
      case Op::kPop:
      case Op::kCall:
      case Op::kCallInd:
      case Op::kRet:
        f.invertible |= regBit(Reg::rsp);
        break;
      case Op::kLock:
      case Op::kUnlock:
      case Op::kCondWait:
      case Op::kCondSignal:
      case Op::kCondBcast:
      case Op::kBarrier:
      case Op::kJoin:
      case Op::kFree:
      case Op::kSpawn:
      case Op::kMalloc:
      case Op::kSyscall:
      case Op::kRwRdLock:
      case Op::kRwWrLock:
      case Op::kRwUnlock:
      case Op::kSemInit:
      case Op::kSemWait:
      case Op::kSemPost:
      case Op::kSpinLock:
      case Op::kSpinUnlock:
        f.memory_barrier = true;
        break;
      default:
        break;
    }
    return f;
}

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_INSN_FACTS_HH
