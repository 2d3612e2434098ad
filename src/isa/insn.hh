/**
 * @file
 * Instruction representation: addressing modes and the Insn struct.
 */

#ifndef PRORACE_ISA_INSN_HH
#define PRORACE_ISA_INSN_HH

#include <cstdint>

#include "isa/flags.hh"
#include "isa/opcode.hh"
#include "isa/reg.hh"

namespace prorace::isa {

/**
 * An x86-style memory operand: base + index*scale + displacement, or a
 * PC-relative reference.
 *
 * PC-relative operands resolve to the displacement alone (the simulated
 * data address space is disjoint from code); what matters for the paper's
 * reconstruction story is that such addresses are computable from %rip,
 * which the replayer always has.
 */
struct MemOperand {
    Reg base = Reg::none;   ///< base register, or none
    Reg index = Reg::none;  ///< index register, or none
    uint8_t scale = 1;      ///< 1, 2, 4 or 8
    int64_t disp = 0;       ///< signed displacement
    bool rip_relative = false; ///< address = disp, independent of registers

    bool operator==(const MemOperand &) const = default;

    /** A direct absolute/PC-relative reference to a known address. */
    static MemOperand
    ripRel(int64_t addr)
    {
        MemOperand m;
        m.disp = addr;
        m.rip_relative = true;
        return m;
    }

    /** [base + disp]. */
    static MemOperand
    baseDisp(Reg base, int64_t disp = 0)
    {
        MemOperand m;
        m.base = base;
        m.disp = disp;
        return m;
    }

    /** [base + index*scale + disp]. */
    static MemOperand
    baseIndex(Reg base, Reg index, uint8_t scale = 1, int64_t disp = 0)
    {
        MemOperand m;
        m.base = base;
        m.index = index;
        m.scale = scale;
        m.disp = disp;
        return m;
    }
};

/**
 * One decoded instruction.
 *
 * A flat tagged struct rather than a class hierarchy: instructions are
 * stored by the hundreds of thousands in program and path vectors, and
 * both the VM and the replayer switch on op.
 */
struct Insn {
    Op op = Op::kNop;
    Reg dst = Reg::none;       ///< destination register
    Reg src = Reg::none;       ///< source register
    AluOp alu = AluOp::kAdd;   ///< sub-operation for kAluRR/kAluRI/kAtomicRmw
    CondCode cond = CondCode::kEq; ///< condition for kJcc
    uint8_t width = 8;         ///< memory access width in bytes (1/2/4/8)
    bool sign_extend = false;  ///< sign-extend sub-width loads (movslq etc.)
    SyscallNo sysno = SyscallNo::kNone; ///< for kSyscall
    int64_t imm = 0;           ///< immediate operand
    MemOperand mem;            ///< memory operand where applicable
    uint32_t target = 0;       ///< branch/call target (instruction index)

    /** True when this instruction has an explicit memory operand. */
    bool
    hasMemOperand() const
    {
        switch (op) {
          case Op::kLoad:
          case Op::kStore:
          case Op::kStoreI:
          case Op::kLea:
          case Op::kAtomicRmw:
          case Op::kCas:
          case Op::kLock:
          case Op::kUnlock:
          case Op::kCondWait:
          case Op::kCondSignal:
          case Op::kCondBcast:
          case Op::kBarrier:
          case Op::kRwRdLock:
          case Op::kRwWrLock:
          case Op::kRwUnlock:
          case Op::kSemInit:
          case Op::kSemWait:
          case Op::kSemPost:
          case Op::kSpinLock:
          case Op::kSpinUnlock:
          case Op::kLoadAcq:
          case Op::kStoreRel:
          case Op::kAtomicRmwAcqRel:
            return true;
          default:
            return false;
        }
    }

    /** True when the memory address depends on no register (PC-relative). */
    bool
    pcRelative() const
    {
        return hasMemOperand() && mem.rip_relative;
    }
};

/** A memory access width the ISA can encode: 1, 2, 4 or 8 bytes. */
bool validWidth(uint8_t w);

/**
 * Check structural well-formedness of one instruction (register fields
 * present where required, scale is a power of two, width is sane).
 * Returns nullptr when valid, else a static description of the problem.
 */
const char *validateInsn(const Insn &insn);

} // namespace prorace::isa

#endif // PRORACE_ISA_INSN_HH
