/**
 * @file
 * Per-instruction static facts — the single source of truth for the
 * facts the offline phase uses: the registers an instruction may write
 * (which bound backward replay), the memory events it retires (which
 * alignment uses to measure sample distances), and the registers whose
 * unavailability leaves a forward replay step unresolved, with the rule
 * such a step applies.
 *
 * The aligner, the replayer, the escape analysis and StaticLint all
 * read these functions or the table built from them, so they can never
 * drift apart on what an opcode may touch.
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

/**
 * What a forward replay step does when one of its InsnFacts::uses
 * registers is unavailable, one rule per access shape. Every rule
 * clears the instruction's kill mask; the rules differ in what else
 * the unknown outcome costs.
 */
enum class UnresolvedRule : uint8_t {
    kNone,    ///< no operand can leave the step unresolved
    kKill,    ///< mov, lea: only the killed registers become unknown
    kAlu,     ///< ALU: the flags become unknown too
    kCompare, ///< cmp, test: flags unknown, fed by the uses registers
    kRead,    ///< load, pop, ret: record a forward hint
    kWrite,   ///< store, RMW, CAS, push, call: hint, drop emulated memory
};

/**
 * Bit of a register operand in a uses mask. GPRs take bits 0-15, the
 * bits of an availability mask; rip and none take bits 16 and 17,
 * which no availability mask holds, so an instruction reading a
 * non-GPR operand is always unresolved.
 */
inline constexpr uint32_t
operandBit(isa::Reg reg)
{
    return 1u << static_cast<unsigned>(reg);
}

/** The base and index registers of a memory operand, as a uses mask. */
inline constexpr uint32_t
addressUses(const isa::MemOperand &mem)
{
    if (mem.rip_relative)
        return 0;
    uint32_t uses = 0;
    if (mem.base != isa::Reg::none)
        uses |= operandBit(mem.base);
    if (mem.index != isa::Reg::none)
        uses |= operandBit(mem.index);
    return uses;
}

/**
 * Synchronization records one retired instruction appends to its
 * thread's sync trace: two for a condition wait (begin and wake) and a
 * barrier (enter and exit), one for any other sync op and for halt
 * (ThreadExit), none for the rest.
 */
inline uint8_t
syncRecordCount(const isa::Insn &insn)
{
    using isa::Op;
    if (insn.op == Op::kHalt)
        return 1;
    if (!isa::isSyncOp(insn.op))
        return 0;
    return insn.op == Op::kCondWait || insn.op == Op::kBarrier ? uint8_t{2}
                                                               : uint8_t{1};
}

/**
 * Static facts of one instruction, precomputed once per program so the
 * replay inner loops index a flat table instead of re-deriving them.
 */
struct InsnFacts {
    /**
     * Registers whose unavailability leaves a forward replay step
     * unresolved (operandBit bits): the base and index of a memory
     * operand; rsp for push, pop, call and ret; the register operands
     * of mov, ALU, cmp and test. A stored or pushed value is not among
     * them: a known address with an unknown value still resolves.
     */
    uint32_t uses = 0;
    /** May-write register mask (== regWriteMask). */
    uint16_t kill = 0;
    /** PEBS-countable memory events (== memOpCount). */
    uint8_t mem_ops = 0;
    /** What the step does when a uses register is unavailable. */
    UnresolvedRule unresolved = UnresolvedRule::kNone;
};
static_assert(sizeof(InsnFacts) == 8, "one table entry per instruction");

/** Classify one instruction. */
inline InsnFacts
classifyInsn(const isa::Insn &insn)
{
    using isa::Op;
    using isa::Reg;
    InsnFacts f;
    f.kill = regWriteMask(insn);
    f.mem_ops = static_cast<uint8_t>(memOpCount(insn));
    auto shape = [&f](uint32_t uses, UnresolvedRule rule) {
        f.uses = uses;
        f.unresolved = rule;
    };
    const uint32_t dst = operandBit(insn.dst);
    const uint32_t src = operandBit(insn.src);
    switch (insn.op) {
      case Op::kMovRR:
        shape(src, UnresolvedRule::kKill);
        break;
      case Op::kLea:
        shape(addressUses(insn.mem), UnresolvedRule::kKill);
        break;
      case Op::kAluRR:
        shape(dst | src, UnresolvedRule::kAlu);
        break;
      case Op::kAluRI:
        shape(dst, UnresolvedRule::kAlu);
        break;
      case Op::kCmpRR:
      case Op::kTestRR:
        shape(dst | src, UnresolvedRule::kCompare);
        break;
      case Op::kCmpRI:
      case Op::kTestRI:
        shape(dst, UnresolvedRule::kCompare);
        break;
      case Op::kLoad:
      case Op::kLoadAcq:
        shape(addressUses(insn.mem), UnresolvedRule::kRead);
        break;
      case Op::kPop:
      case Op::kRet:
        shape(operandBit(Reg::rsp), UnresolvedRule::kRead);
        break;
      case Op::kStore:
      case Op::kStoreI:
      case Op::kStoreRel:
      case Op::kAtomicRmw:
      case Op::kAtomicRmwAcqRel:
      case Op::kCas:
        shape(addressUses(insn.mem), UnresolvedRule::kWrite);
        break;
      case Op::kPush:
      case Op::kCall:
      case Op::kCallInd:
        shape(operandBit(Reg::rsp), UnresolvedRule::kWrite);
        break;
      default:
        break;
    }
    return f;
}

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_INSN_FACTS_HH
