/**
 * @file
 * Pure instruction semantics shared by the VM interpreter and the offline
 * replay engine.
 *
 * Keeping value/flag/address computation in one place guarantees that the
 * replayer reconstructs exactly what the machine executed — a correctness
 * property ProRace's forward/backward replay depends on.
 */

#ifndef PRORACE_ISA_SEMANTICS_HH
#define PRORACE_ISA_SEMANTICS_HH

#include <cstdint>

#include "isa/flags.hh"
#include "isa/insn.hh"
#include "support/log.hh"

namespace prorace::isa {

/** Value and resulting flags of an ALU operation. */
struct AluResult {
    uint64_t value = 0;
    Flags flags;
};

namespace detail {

/** Flags of a logic result: zf and sf from the value, cf = of = 0. */
inline Flags
logicFlags(uint64_t value)
{
    Flags f;
    f.zf = value == 0;
    f.sf = static_cast<int64_t>(value) < 0;
    f.cf = false;
    f.of = false;
    return f;
}

} // namespace detail

/** Compute a aluop b with x86-style flag semantics (64-bit). */
inline AluResult
evalAlu(AluOp op, uint64_t a, uint64_t b)
{
    AluResult r;
    switch (op) {
      case AluOp::kAdd: {
        r.value = a + b;
        r.flags.zf = r.value == 0;
        r.flags.sf = static_cast<int64_t>(r.value) < 0;
        r.flags.cf = r.value < a;
        const bool same_sign_in =
            (static_cast<int64_t>(a) < 0) == (static_cast<int64_t>(b) < 0);
        r.flags.of = same_sign_in &&
            ((static_cast<int64_t>(a) < 0) !=
             (static_cast<int64_t>(r.value) < 0));
        break;
      }
      case AluOp::kSub: {
        r.value = a - b;
        r.flags.zf = r.value == 0;
        r.flags.sf = static_cast<int64_t>(r.value) < 0;
        r.flags.cf = a < b;
        const bool diff_sign_in =
            (static_cast<int64_t>(a) < 0) != (static_cast<int64_t>(b) < 0);
        r.flags.of = diff_sign_in &&
            ((static_cast<int64_t>(a) < 0) !=
             (static_cast<int64_t>(r.value) < 0));
        break;
      }
      case AluOp::kAnd:
        r.value = a & b;
        r.flags = detail::logicFlags(r.value);
        break;
      case AluOp::kOr:
        r.value = a | b;
        r.flags = detail::logicFlags(r.value);
        break;
      case AluOp::kXor:
        r.value = a ^ b;
        r.flags = detail::logicFlags(r.value);
        break;
      case AluOp::kMul:
        r.value = a * b;
        r.flags = detail::logicFlags(r.value);
        break;
      case AluOp::kShl:
        r.value = (b % 64) ? (a << (b % 64)) : a;
        r.flags = detail::logicFlags(r.value);
        break;
      case AluOp::kShr:
        r.value = (b % 64) ? (a >> (b % 64)) : a;
        r.flags = detail::logicFlags(r.value);
        break;
      case AluOp::kSar:
        r.value = (b % 64)
            ? static_cast<uint64_t>(static_cast<int64_t>(a) >> (b % 64))
            : a;
        r.flags = detail::logicFlags(r.value);
        break;
    }
    return r;
}

/** Flags of the comparison a - b (value discarded). */
inline Flags
evalCmp(uint64_t a, uint64_t b)
{
    return evalAlu(AluOp::kSub, a, b).flags;
}

/** Flags of the bit test a & b (value discarded). */
inline Flags
evalTest(uint64_t a, uint64_t b)
{
    return detail::logicFlags(a & b);
}

/**
 * Effective address of a memory operand given a register reader, any
 * callable taking a Reg and returning its value. The reader is only
 * consulted for registers the operand actually uses.
 */
template <typename ReadReg>
uint64_t
effectiveAddress(const MemOperand &mem, ReadReg &&read_reg)
{
    if (mem.rip_relative)
        return static_cast<uint64_t>(mem.disp);
    uint64_t addr = static_cast<uint64_t>(mem.disp);
    if (mem.base != Reg::none)
        addr += read_reg(mem.base);
    if (mem.index != Reg::none)
        addr += read_reg(mem.index) * mem.scale;
    return addr;
}

/** Truncate a 64-bit value to an access width (1/2/4/8 bytes). */
inline uint64_t
truncateToWidth(uint64_t value, uint8_t width)
{
    switch (width) {
      case 1: return value & 0xffull;
      case 2: return value & 0xffffull;
      case 4: return value & 0xffffffffull;
      case 8: return value;
      default:
        PRORACE_PANIC("invalid access width ", int(width));
    }
}

/**
 * Widen a loaded sub-width value to 64 bits, sign- or zero-extending.
 */
inline uint64_t
extendFromWidth(uint64_t value, uint8_t width, bool sign_extend)
{
    value = truncateToWidth(value, width);
    if (!sign_extend || width == 8)
        return value;
    const unsigned bits = width * 8;
    const uint64_t sign_bit = uint64_t{1} << (bits - 1);
    if (value & sign_bit)
        value |= ~((uint64_t{1} << bits) - 1);
    return value;
}

/**
 * Try to invert an ALU operation: given the result and operand b, recover
 * operand a such that a aluop b == result. Supports the integer
 * operations ProRace's reverse execution handles (add, sub, xor).
 *
 * @return true and sets a_out on success.
 */
inline bool
invertAlu(AluOp op, uint64_t result, uint64_t b, uint64_t &a_out)
{
    switch (op) {
      case AluOp::kAdd:
        a_out = result - b;
        return true;
      case AluOp::kSub:
        a_out = result + b;
        return true;
      case AluOp::kXor:
        a_out = result ^ b;
        return true;
      default:
        return false;
    }
}

} // namespace prorace::isa

#endif // PRORACE_ISA_SEMANTICS_HH
