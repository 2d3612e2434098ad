#include "replay/replayer.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "analysis/analysis.hh"
#include "isa/semantics.hh"
#include "replay/static_info.hh"
#include "support/log.hh"

namespace prorace::replay {

using detect::AccessOrigin;
using isa::AluOp;
using isa::Insn;
using isa::Op;
using isa::Reg;
using pmu::kPathGap;

const char *
replayModeName(ReplayMode mode)
{
    switch (mode) {
      case ReplayMode::kBasicBlock:      return "basic-block";
      case ReplayMode::kForwardOnly:     return "forward";
      case ReplayMode::kForwardBackward: return "forward+backward";
    }
    return "?";
}

namespace {

/** Try to invert an ALU op used as reverse execution. */
bool
invertibleAlu(AluOp op)
{
    return op == AluOp::kAdd || op == AluOp::kSub || op == AluOp::kXor;
}

} // namespace

Replayer::Replayer(const asmkit::Program &program,
                   const ReplayConfig &config)
    : program_(program), config_(config)
{
    // The blacklist is fixed for the replayer's lifetime, and the map
    // keeps it across reset(), so it is applied once here.
    for (const auto &[addr, size] : config_.mem_blacklist)
        pm_.blacklistMem(addr, size);
    stats_.program_map = pm_.memStats();
}

uint16_t
Replayer::killMask(uint32_t idx) const
{
    return config_.analysis ? config_.analysis->facts(idx).kill
                            : analysis::regWriteMask(program_.insnAt(idx));
}

void
Replayer::EmitBuffer::open(uint64_t base, uint64_t len)
{
    for (const uint64_t k : keys_)
        slot_[k] = 0;
    accs_.clear();
    keys_.clear();
    live_ = 0;
    base_ = base;
    len_ = len;
    if (slot_.size() < 2 * len)
        slot_.resize(2 * len);
}

bool
Replayer::EmitBuffer::add(unsigned slot, const ReconstructedAccess &acc)
{
    PRORACE_ASSERT(slot < 2 && acc.position >= base_ &&
                       acc.position - base_ < len_,
                   "emit outside the open window");
    const uint64_t k = 2 * (acc.position - base_) + slot;
    if (slot_[k])
        return false;
    accs_.push_back(acc);
    keys_.push_back(k);
    slot_[k] = static_cast<uint32_t>(accs_.size());
    ++live_;
    return true;
}

void
Replayer::forwardPass(const Window &win, const pmu::ThreadPath &path,
                      const FactList &facts, AccessOrigin tag,
                      FactList *hints_out, bool *consistent_out,
                      uint64_t *bad_pos_out)
{
    size_t fact_cursor = 0;
    while (fact_cursor < facts.size() &&
           facts[fact_cursor].pos < win.start) {
        ++fact_cursor;
    }
    ProgramMap &pm = pm_;
    pm.reset();
    if (win.s1)
        pm.restoreRegs(win.s1->regs);
    // Emulated condition flags, where computable. Every conditional
    // branch whose flags are known is cross-checked against the
    // PT-recorded direction: a contradiction proves the window's
    // register state is wrong (misaligned sample), and the window is
    // discarded.
    isa::Flags flags_value;
    bool flags_known = false;

    // Constant recovery (points-to consumer 3): a load whose resolved
    // address lies in a provably-immutable global yields its init-image
    // bytes even when the location is not emulated. Registers holding
    // such values are *tainted*: the extra knowledge must not perturb
    // anything the stock replay does — not the hints, not the
    // violation checks, not emulated memory (no tainted value is ever
    // written), not the consumed set, and not any kForward/kBackward
    // emission. A tainted-address load may emit a kConstant event only
    // when its whole shadow granule is immutable, so the event is inert
    // to the detector (no write anywhere in the feed can share its
    // granule) and the race report stays byte-identical with the layer
    // off.
    const analysis::PointsTo *pt_const = nullptr;
    if (config_.analysis && config_.analysis->pointsTo() &&
        config_.analysis->pointsTo()->anyImmutable()) {
        pt_const = config_.analysis->pointsTo();
    }
    uint16_t taint = 0;
    auto reg_tainted = [&](Reg r) {
        return isGpr(r) && ((taint >> gprIndex(r)) & 1u);
    };
    auto mem_tainted = [&](const isa::MemOperand &mem) {
        return !mem.rip_relative &&
            (reg_tainted(mem.base) || reg_tainted(mem.index));
    };
    auto granule_immutable = [&](uint64_t addr, uint8_t width) {
        if (!pt_const || width == 0)
            return false;
        const uint64_t lo = addr & ~7ull;
        const uint64_t hi = ((addr + width - 1) | 7ull) + 1;
        return pt_const->immutableCovers(lo, hi - lo);
    };

    // A consistency violation proves the replayed state is wrong at
    // this point (usually a sample matched to the wrong loop iteration).
    // Repair locally: discard the reconstructions of the current loop
    // body, invalidate the registers that produced the contradiction,
    // and continue — but give up on the window beyond a violation
    // budget (alignment is then hopeless).
    constexpr uint64_t kViolationScope = 24; // positions erased backwards
    constexpr unsigned kViolationBudget = 8;
    unsigned violations = 0;
    uint16_t flag_src_mask = 0; // regs feeding the live flags
    auto violation = [&](uint64_t pos) {
        ++violations;
        if (consistent_out && violations > kViolationBudget)
            *consistent_out = false;
        if (bad_pos_out && violations > kViolationBudget)
            *bad_pos_out = std::min(*bad_pos_out, pos);
        // Erase suspect reconstructions of the enclosing loop body.
        const uint64_t lo = pos > kViolationScope ? pos - kViolationScope
                                                  : 0;
        emit_.eraseIf(lo, pos, [&](const ReconstructedAccess &acc) {
            if (acc.origin == AccessOrigin::kForward) {
                --stats_.recovered_forward;
                return true;
            }
            if (acc.origin == AccessOrigin::kBackward) {
                --stats_.recovered_backward;
                return true;
            }
            return false;
        });
        // Invalidate the registers behind the contradiction.
        for (unsigned r = 0; r < isa::kNumGprs; ++r) {
            if ((flag_src_mask >> r) & 1u)
                pm.invalidateReg(isa::gprFromIndex(r));
        }
        taint &= static_cast<uint16_t>(~flag_src_mask);
    };

    auto try_ea = [&](const isa::MemOperand &mem)
        -> std::optional<uint64_t> {
        if (mem.rip_relative)
            return static_cast<uint64_t>(mem.disp);
        if (mem.base != Reg::none && !pm.regAvailable(mem.base))
            return std::nullopt;
        if (mem.index != Reg::none && !pm.regAvailable(mem.index))
            return std::nullopt;
        uint64_t addr = static_cast<uint64_t>(mem.disp);
        if (mem.base != Reg::none)
            addr += pm.regValue(mem.base);
        if (mem.index != Reg::none)
            addr += pm.regValue(mem.index) * mem.scale;
        return addr;
    };

    auto src_val = [&](Reg r) -> std::optional<uint64_t> {
        if (!isGpr(r) || !pm.regAvailable(r))
            return std::nullopt;
        return pm.regValue(r);
    };

    for (uint64_t pos = win.start; pos < win.end; ++pos) {
        while (fact_cursor < facts.size() &&
               facts[fact_cursor].pos == pos) {
            const ReplayFact &fact = facts[fact_cursor];
            // Where forward and backward knowledge overlap they must
            // agree; disagreement reveals misaligned samples. A tainted
            // register is unavailable to the stock replay, so it takes
            // the fact silently (and is untainted by it).
            if (!reg_tainted(fact.reg) && pm.regAvailable(fact.reg) &&
                pm.regValue(fact.reg) != fact.val) {
                ++stats_.violations_fact;
                violation(pos);
            }
            pm.setReg(fact.reg, fact.val);
            if (isGpr(fact.reg)) {
                taint &=
                    static_cast<uint16_t>(~(1u << gprIndex(fact.reg)));
            }
            ++fact_cursor;
        }
        const uint32_t idx = path.insns[pos];
        if (idx == kPathGap) {
            // Untraced code ran here: nothing survives.
            pm.invalidateAllRegs();
            pm.invalidateMemory();
            flags_known = false;
            taint = 0;
            continue;
        }
        const Insn &insn = program_.insnAt(idx);
        const bool is_sample = pos == win.start && win.s1;

        auto origin_for = [&](bool rip_rel) {
            if (is_sample)
                return AccessOrigin::kSampled;
            if (rip_rel)
                return AccessOrigin::kPcRelative;
            return tag;
        };

        auto emit_access = [&](unsigned slot, uint64_t addr, uint8_t width,
                               bool is_write, bool atomic, bool rip_rel) {
            ReconstructedAccess acc;
            acc.tid = win.tid;
            acc.position = pos;
            acc.insn_index = idx;
            acc.addr = addr;
            acc.width = width;
            acc.is_write = is_write;
            acc.is_atomic = atomic;
            acc.origin = origin_for(rip_rel);
            if (emit_.add(slot, acc)) {
                switch (acc.origin) {
                  case AccessOrigin::kSampled:
                    ++stats_.sampled;
                    break;
                  case AccessOrigin::kPcRelative:
                    ++stats_.recovered_pcrel;
                    ++stats_.recovered_forward;
                    break;
                  case AccessOrigin::kForward:
                    ++stats_.recovered_forward;
                    break;
                  case AccessOrigin::kBackward:
                    ++stats_.recovered_backward;
                    break;
                  default:
                    break;
                }
            }
        };

        // Record forward hints at memory instructions we cannot resolve,
        // so the next backward round can extend its knowledge.
        auto note_hint = [&]() {
            if (!hints_out)
                return;
            for (unsigned r = 0; r < isa::kNumGprs; ++r) {
                const Reg reg = isa::gprFromIndex(r);
                // Tainted registers are invisible here: the backward
                // scan must see exactly the stock forward knowledge.
                if (pm.regAvailable(reg) && !((taint >> r) & 1u))
                    hints_out->push_back({pos, reg, pm.regValue(reg)});
            }
        };

        // Emit a constant-derived read: its address came through
        // tainted registers, so it may only reach the detector when its
        // whole shadow granule is immutable (the event is then inert —
        // nothing in any feed writes that granule).
        auto emit_constant = [&](unsigned slot, uint64_t addr,
                                 uint8_t width, bool atomic) {
            ReconstructedAccess acc;
            acc.tid = win.tid;
            acc.position = pos;
            acc.insn_index = idx;
            acc.addr = addr;
            acc.width = width;
            acc.is_write = false;
            acc.is_atomic = atomic;
            acc.origin = AccessOrigin::kConstant;
            if (emit_.add(slot, acc))
                ++stats_.recovered_constant;
        };

        uint16_t taint_new = 0;
        auto taint_dst = [&](Reg r) {
            if (isGpr(r))
                taint_new |= static_cast<uint16_t>(1u << gprIndex(r));
        };

        switch (insn.op) {
          case Op::kNop:
          case Op::kHalt:
          case Op::kJmp:
          case Op::kJmpInd:
            break;

          case Op::kCmpRR: {
            auto a = src_val(insn.dst);
            auto bv = src_val(insn.src);
            flags_known = a && bv && !reg_tainted(insn.dst) &&
                !reg_tainted(insn.src);
            if (flags_known)
                flags_value = isa::evalCmp(*a, *bv);
            flag_src_mask = static_cast<uint16_t>(
                (1u << gprIndex(insn.dst)) | (1u << gprIndex(insn.src)));
            break;
          }
          case Op::kCmpRI: {
            auto a = src_val(insn.dst);
            flags_known = a.has_value() && !reg_tainted(insn.dst);
            if (flags_known)
                flags_value = isa::evalCmp(*a,
                                           static_cast<uint64_t>(insn.imm));
            flag_src_mask =
                static_cast<uint16_t>(1u << gprIndex(insn.dst));
            break;
          }
          case Op::kTestRR: {
            auto a = src_val(insn.dst);
            auto bv = src_val(insn.src);
            flags_known = a && bv && !reg_tainted(insn.dst) &&
                !reg_tainted(insn.src);
            if (flags_known)
                flags_value = isa::evalTest(*a, *bv);
            flag_src_mask = static_cast<uint16_t>(
                (1u << gprIndex(insn.dst)) | (1u << gprIndex(insn.src)));
            break;
          }
          case Op::kTestRI: {
            auto a = src_val(insn.dst);
            flags_known = a.has_value() && !reg_tainted(insn.dst);
            if (flags_known)
                flags_value = isa::evalTest(*a,
                                            static_cast<uint64_t>(insn.imm));
            flag_src_mask =
                static_cast<uint16_t>(1u << gprIndex(insn.dst));
            break;
          }
          case Op::kJcc: {
            if (flags_known && insn.target != idx + 1 &&
                pos + 1 < path.insns.size() &&
                path.insns[pos + 1] != kPathGap) {
                const bool expected = isa::condHolds(insn.cond,
                                                     flags_value);
                const bool actual = path.insns[pos + 1] == insn.target;
                if (expected != actual) {
                    ++stats_.violations_branch;
                    violation(pos);
                    flags_known = false;
                }
            }
            break;
          }

          case Op::kMovRI:
            pm.setReg(insn.dst, static_cast<uint64_t>(insn.imm));
            break;

          case Op::kMovRR:
            if (auto v = src_val(insn.src)) {
                pm.setReg(insn.dst, *v);
                if (reg_tainted(insn.src))
                    taint_dst(insn.dst);
            } else {
                pm.invalidateReg(insn.dst);
            }
            break;

          case Op::kLoad: {
            uint64_t addr;
            if (is_sample) {
                addr = win.s1->addr;
            } else if (auto ea = try_ea(insn.mem)) {
                addr = *ea;
                if (mem_tainted(insn.mem)) {
                    // The stock replay could not resolve this address.
                    note_hint();
                    if (granule_immutable(addr, insn.width)) {
                        emit_constant(0, addr, insn.width, false);
                        pm.setReg(insn.dst,
                                  isa::extendFromWidth(
                                      pt_const->constantAt(addr,
                                                           insn.width),
                                      insn.width, insn.sign_extend));
                        taint_dst(insn.dst);
                    } else {
                        pm.invalidateReg(insn.dst);
                    }
                    break;
                }
            } else {
                note_hint();
                pm.invalidateReg(insn.dst);
                break;
            }
            if (is_sample) {
                if (auto ea = try_ea(insn.mem);
                    ea && !mem_tainted(insn.mem) && *ea != addr) {
                    ++stats_.violations_sample;
                    violation(pos);
                }
            }
            emit_access(0, addr, insn.width, false, false,
                        insn.mem.rip_relative);
            if (auto v = pm.readMem(addr, insn.width)) {
                pm.setReg(insn.dst, isa::extendFromWidth(*v, insn.width,
                                                         insn.sign_extend));
            } else if (pt_const &&
                       pt_const->immutableCovers(addr, insn.width)) {
                // The location is not emulated, but no store in the
                // program can reach it: it still holds its init bytes.
                pm.setReg(insn.dst,
                          isa::extendFromWidth(
                              pt_const->constantAt(addr, insn.width),
                              insn.width, insn.sign_extend));
                taint_dst(insn.dst);
            } else {
                pm.invalidateReg(insn.dst);
            }
            break;
          }

          case Op::kStore:
          case Op::kStoreI: {
            uint64_t addr;
            if (is_sample) {
                addr = win.s1->addr;
            } else if (auto ea = try_ea(insn.mem);
                       ea && !mem_tainted(insn.mem)) {
                addr = *ea;
            } else {
                // Unknown (or only tainted-known) address: never emit a
                // write from constant-derived knowledge.
                note_hint();
                // A store to an unknown address may clobber any emulated
                // location.
                pm.invalidateMemory();
                break;
            }
            emit_access(0, addr, insn.width, true, false,
                        insn.mem.rip_relative);
            std::optional<uint64_t> value;
            if (insn.op == Op::kStoreI)
                value = static_cast<uint64_t>(insn.imm);
            else if (!reg_tainted(insn.src))
                value = src_val(insn.src);
            if (value) {
                pm.writeMem(addr, isa::truncateToWidth(*value, insn.width),
                            insn.width);
            } else {
                pm.invalidateMem(addr, insn.width);
            }
            break;
          }

          case Op::kLea:
            if (auto ea = try_ea(insn.mem)) {
                pm.setReg(insn.dst, *ea);
                if (mem_tainted(insn.mem))
                    taint_dst(insn.dst);
            } else {
                pm.invalidateReg(insn.dst);
            }
            break;

          case Op::kAluRR: {
            auto a = src_val(insn.dst);
            auto b = src_val(insn.src);
            if (a && b) {
                const auto r = isa::evalAlu(insn.alu, *a, *b);
                pm.setReg(insn.dst, r.value);
                if (reg_tainted(insn.dst) || reg_tainted(insn.src)) {
                    // A tainted input is unavailable to the stock
                    // replay, which leaves the flags unknown here.
                    taint_dst(insn.dst);
                    flags_known = false;
                } else {
                    flags_value = r.flags;
                    flags_known = true;
                    flag_src_mask = static_cast<uint16_t>(
                        (1u << gprIndex(insn.dst)) |
                        (1u << gprIndex(insn.src)));
                }
            } else {
                pm.invalidateReg(insn.dst);
                flags_known = false;
            }
            break;
          }

          case Op::kAluRI: {
            if (auto a = src_val(insn.dst)) {
                const auto r = isa::evalAlu(
                    insn.alu, *a, static_cast<uint64_t>(insn.imm));
                pm.setReg(insn.dst, r.value);
                if (reg_tainted(insn.dst)) {
                    taint_dst(insn.dst);
                    flags_known = false;
                } else {
                    flags_value = r.flags;
                    flags_known = true;
                    flag_src_mask =
                        static_cast<uint16_t>(1u << gprIndex(insn.dst));
                }
            } else {
                pm.invalidateReg(insn.dst);
                flags_known = false;
            }
            break;
          }

          case Op::kCall:
          case Op::kCallInd:
          case Op::kPush: {
            uint64_t value_known = insn.op != Op::kPush;
            uint64_t value = idx + 1;
            if (insn.op == Op::kPush) {
                if (auto v = src_val(insn.src);
                    v && !reg_tainted(insn.src)) {
                    value = *v;
                    value_known = true;
                }
            }
            if (auto rsp = src_val(Reg::rsp);
                rsp && !reg_tainted(Reg::rsp)) {
                const uint64_t addr = *rsp - 8;
                const bool sampled_here = is_sample;
                emit_access(0, sampled_here ? win.s1->addr : addr, 8, true,
                            false, false);
                if (value_known)
                    pm.writeMem(addr, value, 8);
                else
                    pm.invalidateMem(addr, 8);
                pm.setReg(Reg::rsp, addr);
            } else {
                note_hint();
                pm.invalidateMemory();
                // A tainted rsp becomes plain-unavailable, as it is to
                // the stock replay.
                pm.invalidateReg(Reg::rsp);
            }
            break;
          }

          case Op::kRet: {
            if (auto rsp = src_val(Reg::rsp);
                rsp && !reg_tainted(Reg::rsp)) {
                emit_access(0, is_sample ? win.s1->addr : *rsp, 8, false,
                            false, false);
                pm.setReg(Reg::rsp, *rsp + 8);
            } else {
                note_hint();
                pm.invalidateReg(Reg::rsp);
            }
            break;
          }

          case Op::kPop: {
            if (auto rsp = src_val(Reg::rsp);
                rsp && !reg_tainted(Reg::rsp)) {
                emit_access(0, is_sample ? win.s1->addr : *rsp, 8, false,
                            false, false);
                if (auto v = pm.readMem(*rsp, 8))
                    pm.setReg(insn.dst, *v);
                else
                    pm.invalidateReg(insn.dst);
                pm.setReg(Reg::rsp, *rsp + 8);
            } else {
                note_hint();
                pm.invalidateReg(insn.dst);
                pm.invalidateReg(Reg::rsp);
            }
            break;
          }

          case Op::kAtomicRmw: {
            uint64_t addr;
            if (is_sample) {
                addr = win.s1->addr;
            } else if (auto ea = try_ea(insn.mem);
                       ea && !mem_tainted(insn.mem)) {
                addr = *ea;
            } else {
                note_hint();
                pm.invalidateReg(insn.dst);
                pm.invalidateMemory();
                break;
            }
            emit_access(0, addr, insn.width, false, true,
                        insn.mem.rip_relative);
            emit_access(1, addr, insn.width, true, true,
                        insn.mem.rip_relative);
            auto old = pm.readMem(addr, insn.width);
            auto rhs = src_val(insn.src);
            if (reg_tainted(insn.src))
                rhs = std::nullopt;
            if (old) {
                pm.setReg(insn.dst,
                          isa::extendFromWidth(*old, insn.width, false));
            } else {
                pm.invalidateReg(insn.dst);
            }
            if (old && rhs) {
                pm.writeMem(addr,
                            isa::truncateToWidth(
                                isa::evalAlu(insn.alu, *old, *rhs).value,
                                insn.width),
                            insn.width);
            } else {
                pm.invalidateMem(addr, insn.width);
            }
            break;
          }

          case Op::kCas: {
            uint64_t addr;
            if (is_sample) {
                addr = win.s1->addr;
            } else if (auto ea = try_ea(insn.mem);
                       ea && !mem_tainted(insn.mem)) {
                addr = *ea;
            } else {
                note_hint();
                pm.invalidateReg(insn.dst);
                pm.invalidateMemory();
                break;
            }
            emit_access(0, addr, insn.width, false, true,
                        insn.mem.rip_relative);
            auto old = pm.readMem(addr, insn.width);
            auto expected = src_val(insn.dst);
            auto desired = src_val(insn.src);
            if (reg_tainted(insn.dst))
                expected = std::nullopt;
            if (reg_tainted(insn.src))
                desired = std::nullopt;
            if (old && expected && desired) {
                if (*old == isa::truncateToWidth(*expected, insn.width)) {
                    emit_access(1, addr, insn.width, true, true,
                                insn.mem.rip_relative);
                    pm.writeMem(addr,
                                isa::truncateToWidth(*desired, insn.width),
                                insn.width);
                } else {
                    pm.setReg(insn.dst,
                              isa::extendFromWidth(*old, insn.width,
                                                   false));
                }
            } else {
                // Outcome unknown: the destination and the location both
                // become unavailable.
                pm.invalidateReg(insn.dst);
                pm.invalidateMem(addr, insn.width);
            }
            flags_known = false;
            break;
          }

          case Op::kLoadAcq: {
            uint64_t addr;
            if (is_sample) {
                addr = win.s1->addr;
            } else if (auto ea = try_ea(insn.mem)) {
                addr = *ea;
                if (mem_tainted(insn.mem)) {
                    note_hint();
                    if (granule_immutable(addr, insn.width)) {
                        emit_constant(0, addr, insn.width, true);
                        pm.setReg(insn.dst,
                                  isa::extendFromWidth(
                                      pt_const->constantAt(addr,
                                                           insn.width),
                                      insn.width, false));
                        taint_dst(insn.dst);
                    } else {
                        pm.invalidateReg(insn.dst);
                    }
                    break;
                }
            } else {
                note_hint();
                pm.invalidateReg(insn.dst);
                break;
            }
            emit_access(0, addr, insn.width, false, true,
                        insn.mem.rip_relative);
            // Another thread published this location: the emulated value
            // (if any) may be stale, so only the register is refreshed
            // when the location is still trusted.
            if (auto v = pm.readMem(addr, insn.width)) {
                pm.setReg(insn.dst,
                          isa::extendFromWidth(*v, insn.width, false));
            } else if (pt_const &&
                       pt_const->immutableCovers(addr, insn.width)) {
                pm.setReg(insn.dst,
                          isa::extendFromWidth(
                              pt_const->constantAt(addr, insn.width),
                              insn.width, false));
                taint_dst(insn.dst);
            } else {
                pm.invalidateReg(insn.dst);
            }
            break;
          }

          case Op::kStoreRel: {
            uint64_t addr;
            if (is_sample) {
                addr = win.s1->addr;
            } else if (auto ea = try_ea(insn.mem);
                       ea && !mem_tainted(insn.mem)) {
                addr = *ea;
            } else {
                note_hint();
                pm.invalidateMemory();
                break;
            }
            emit_access(0, addr, insn.width, true, true,
                        insn.mem.rip_relative);
            if (auto value = src_val(insn.src);
                value && !reg_tainted(insn.src)) {
                pm.writeMem(addr, isa::truncateToWidth(*value, insn.width),
                            insn.width);
            } else {
                pm.invalidateMem(addr, insn.width);
            }
            break;
          }

          case Op::kAtomicRmwAcqRel: {
            uint64_t addr;
            if (is_sample) {
                addr = win.s1->addr;
            } else if (auto ea = try_ea(insn.mem);
                       ea && !mem_tainted(insn.mem)) {
                addr = *ea;
            } else {
                note_hint();
                pm.invalidateReg(insn.dst);
                pm.invalidateMemory();
                break;
            }
            emit_access(0, addr, insn.width, false, true,
                        insn.mem.rip_relative);
            emit_access(1, addr, insn.width, true, true,
                        insn.mem.rip_relative);
            auto old = pm.readMem(addr, insn.width);
            auto rhs = src_val(insn.src);
            if (reg_tainted(insn.src))
                rhs = std::nullopt;
            if (old) {
                pm.setReg(insn.dst,
                          isa::extendFromWidth(*old, insn.width, false));
            } else {
                pm.invalidateReg(insn.dst);
            }
            if (old && rhs) {
                pm.writeMem(addr,
                            isa::truncateToWidth(
                                isa::evalAlu(insn.alu, *old, *rhs).value,
                                insn.width),
                            insn.width);
            } else {
                pm.invalidateMem(addr, insn.width);
            }
            break;
          }

          // Synchronization and allocation routines run library/kernel
          // code: emulated memory does not survive them (the scheduler
          // may have run other threads meanwhile).
          case Op::kLock:
          case Op::kUnlock:
          case Op::kCondWait:
          case Op::kCondSignal:
          case Op::kCondBcast:
          case Op::kBarrier:
          case Op::kJoin:
          case Op::kFree:
          case Op::kRwRdLock:
          case Op::kRwWrLock:
          case Op::kRwUnlock:
          case Op::kSemInit:
          case Op::kSemWait:
          case Op::kSemPost:
          case Op::kSpinLock:
          case Op::kSpinUnlock:
            pm.invalidateMemory();
            break;

          case Op::kSpawn:
          case Op::kMalloc: {
            pm.invalidateMemory();
            // The sync trace logs the result (child tid / block address),
            // so the offline replay knows this call's return value.
            const trace::SyncRecord *rec = nullptr;
            if (win.sync_at) {
                if (auto it = win.sync_at->find(pos);
                    it != win.sync_at->end()) {
                    rec = it->second;
                }
            }
            if (rec) {
                pm.setReg(insn.dst, insn.op == Op::kMalloc ? rec->object
                                                           : rec->aux);
            } else {
                pm.invalidateReg(insn.dst);
            }
            break;
          }

          case Op::kSyscall:
            pm.invalidateMemory();
            pm.invalidateReg(Reg::rax);
            break;
        }
        // Any register this instruction may write sheds its taint unless
        // the case above explicitly re-tainted the destination.
        taint = static_cast<uint16_t>(
            (taint & static_cast<uint16_t>(~killMask(idx))) | taint_new);
    }

    // Consumed marks stay in the reused map's pages; only its counters
    // are published here.
    stats_.program_map = pm.memStats();

    if (win.s2) {
        for (unsigned r = 0; r < isa::kNumGprs; ++r) {
            const Reg reg = isa::gprFromIndex(r);
            // Tainted registers carry knowledge the stock replay lacks;
            // they take no part in the closing-sample cross-check.
            if ((taint >> r) & 1u)
                continue;
            if (pm.regAvailable(reg) &&
                pm.regValue(reg) != win.s2->regs.gpr[r]) {
                ++stats_.violations_end;
                violation(win.end ? win.end - 1 : 0);
            }
        }
    }
}

void
Replayer::backwardScan(const Window &win, const pmu::ThreadPath &path,
                       const FactList &hints, FactList &facts_out,
                       bool *consistent_out)
{
    size_t hint_cursor = hints.size(); // consumed in descending order

    PRORACE_ASSERT(win.s2, "backward scan requires an ending sample");
    // Register r's value at the *pre-state* of the current position is
    // val[r] when bit r of `known` is set. Clearing a bit leaves the
    // stale value behind; it is never read again until the bit is set.
    uint16_t known = 0xffff;
    std::array<uint64_t, isa::kNumGprs> val = win.s2->regs.gpr;
    auto bit = [](Reg r) {
        return static_cast<uint16_t>(1u << gprIndex(r));
    };

    facts_out.clear();
    auto record_fact = [&](uint64_t pos, Reg reg, uint64_t value) {
        if (pos >= win.end)
            return;
        facts_out.push_back({pos, reg, value});
    };
    // Record the registers of @p mask at @p pos, lowest register first.
    auto record_known = [&](uint64_t pos, uint16_t mask) {
        for (; mask; mask &= static_cast<uint16_t>(mask - 1)) {
            const unsigned r = static_cast<unsigned>(std::countr_zero(mask));
            record_fact(pos, isa::gprFromIndex(r), val[r]);
        }
    };

    // Registers that survive all the way to the window end are injected
    // wherever their validity begins; writes terminate validity.
    for (uint64_t pp = win.end; pp-- > win.start;) {
        const uint32_t idx = path.insns[pp];
        if (idx == kPathGap) {
            // Unknown code: nothing is known before this point; inject
            // the survivors right after the gap.
            record_known(pp + 1, known);
            known = 0;
            continue;
        }
        // Every reverse-execution rule below needs the post-state of a
        // register the instruction writes. When no known register is
        // written, the instruction records, inverts, learns and
        // contradicts nothing, so only the hint merge remains.
        const uint16_t wmask = killMask(idx);
        if (known & wmask) {
            const Insn &insn = program_.insnAt(idx);
            const uint16_t post = known; // known set after the insn
            // Default: a write makes the pre-state unknown; the
            // surviving post-state value is injected just after the
            // write (backward propagation, §5.2.1).
            record_known(pp + 1, known & wmask);
            known &= static_cast<uint16_t>(~wmask);
            auto post_known = [&](Reg r) { return (post & bit(r)) != 0; };
            auto learn = [&](Reg r, uint64_t value) {
                known |= bit(r);
                val[gprIndex(r)] = value;
            };

            // Reverse execution (§5.2.2): invert what can be inverted
            // and learn operands from copies.
            switch (insn.op) {
              case Op::kMovRI:
                // The post-state of an immediate move is statically
                // known: a derived value that contradicts it means the
                // closing sample was matched to the wrong path position,
                // and the whole window is suspect.
                if (post_known(insn.dst) &&
                    val[gprIndex(insn.dst)] !=
                        static_cast<uint64_t>(insn.imm) &&
                    consistent_out) {
                    ++stats_.violations_backward;
                    *consistent_out = false;
                }
                break;
              case Op::kLea:
                if (insn.mem.rip_relative) {
                    if (post_known(insn.dst) &&
                        val[gprIndex(insn.dst)] !=
                            static_cast<uint64_t>(insn.mem.disp) &&
                        consistent_out) {
                        ++stats_.violations_backward;
                        *consistent_out = false;
                    }
                    break;
                }
                // dst_post = base_pre + disp (single-base operands only).
                if (post_known(insn.dst) && insn.mem.base != Reg::none &&
                    insn.mem.index == Reg::none &&
                    !(known & bit(insn.mem.base))) {
                    const uint64_t base_pre = val[gprIndex(insn.dst)] -
                        static_cast<uint64_t>(insn.mem.disp);
                    learn(insn.mem.base, base_pre);
                    record_fact(pp, insn.mem.base, base_pre);
                }
                break;
              case Op::kAluRI:
                if (invertibleAlu(insn.alu) && post_known(insn.dst)) {
                    uint64_t pre = 0;
                    if (isa::invertAlu(insn.alu, val[gprIndex(insn.dst)],
                                       static_cast<uint64_t>(insn.imm),
                                       pre)) {
                        learn(insn.dst, pre);
                    }
                }
                break;
              case Op::kAluRR:
                if (invertibleAlu(insn.alu) && insn.src != insn.dst &&
                    post_known(insn.dst) && post_known(insn.src)) {
                    uint64_t pre = 0;
                    if (isa::invertAlu(insn.alu, val[gprIndex(insn.dst)],
                                       val[gprIndex(insn.src)], pre)) {
                        learn(insn.dst, pre);
                    }
                }
                break;
              case Op::kMovRR:
                // dst_post == src_pre == src_post: learn the source.
                if (post_known(insn.dst) && insn.src != insn.dst &&
                    !(known & bit(insn.src))) {
                    const uint64_t v = val[gprIndex(insn.dst)];
                    learn(insn.src, v);
                    record_fact(pp, insn.src, v);
                }
                break;
              case Op::kPush:
              case Op::kCall:
              case Op::kCallInd:
                if (post_known(Reg::rsp))
                    learn(Reg::rsp, val[gprIndex(Reg::rsp)] + 8);
                break;
              case Op::kPop:
              case Op::kRet:
                if (post_known(Reg::rsp))
                    learn(Reg::rsp, val[gprIndex(Reg::rsp)] - 8);
                break;
              default:
                break;
            }
        }

        // Forward hints: registers the previous forward pass knew at
        // this position extend the backward knowledge (fixed-point
        // iteration between the two directions).
        while (hint_cursor > 0 && hints[hint_cursor - 1].pos > pp)
            --hint_cursor;
        for (size_t i = hint_cursor; i > 0 && hints[i - 1].pos == pp;
             --i) {
            const ReplayFact &hint = hints[i - 1];
            if (!(known & bit(hint.reg))) {
                known |= bit(hint.reg);
                val[gprIndex(hint.reg)] = hint.val;
            }
        }
    }

    // Survivors reach the window start.
    record_known(win.start, known);

    // Facts were recorded with non-increasing positions (each step
    // records at pp + 1, then at pp). Reverse them into ascending order,
    // restoring record order among facts of one position.
    std::reverse(facts_out.begin(), facts_out.end());
    for (auto group = facts_out.begin(); group != facts_out.end();) {
        auto next = group;
        while (next != facts_out.end() && next->pos == group->pos)
            ++next;
        std::reverse(group, next);
        group = next;
    }
}

void
Replayer::replayWindow(const Window &win, const pmu::ThreadPath &path,
                       const ThreadAlignment &alignment,
                       std::vector<ReconstructedAccess> &out)
{
    ++stats_.windows;
    // Reconstruct into the window buffer. Consistency violations
    // (branch directions or known immediates contradicting the replayed
    // state, forward/backward disagreement, closing-sample mismatch)
    // mean part of the window is suspect: forward-derived events past
    // the first forward violation are dropped, and backward-derived
    // events are dropped whenever the backward side is implicated —
    // FastTrack's no-false-positive guarantee is worth more than the
    // extra coverage.
    emit_.open(win.start, win.end > win.start ? win.end - win.start : 0);
    bool fwd_ok = true;
    uint64_t fwd_bad_pos = ~0ull;
    bool bwd_ok = true;

    if (config_.mode == ReplayMode::kForwardOnly || !win.s2) {
        forwardPass(win, path, {}, AccessOrigin::kForward, nullptr,
                    &fwd_ok, &fwd_bad_pos);
    } else {
        // Round 0: plain forward replay; collects hints at unresolved
        // memory instructions and classifies forward-recoverable
        // accesses.
        hints_.clear();
        forwardPass(win, path, {}, AccessOrigin::kForward, &hints_,
                    &fwd_ok, &fwd_bad_pos);

        size_t emitted = emit_.size();
        for (int round = 0; round < config_.max_backward_rounds; ++round) {
            ++stats_.backward_rounds;
            backwardScan(win, path, hints_, facts_, &bwd_ok);
            if (facts_.empty())
                break;
            hints_.clear();
            bool mixed_ok = true;
            uint64_t mixed_bad_pos = ~0ull;
            forwardPass(win, path, facts_, AccessOrigin::kBackward,
                        &hints_, &mixed_ok, &mixed_bad_pos);
            if (!mixed_ok && mixed_bad_pos < fwd_bad_pos) {
                // A violation in a region the plain forward pass had
                // validated implicates the injected backward facts.
                bwd_ok = false;
            }
            if (emit_.size() == emitted)
                break;
            emitted = emit_.size();
        }
    }

    if (!fwd_ok || !bwd_ok)
        ++stats_.inconsistent_windows;

    emit_.forEach([&](const ReconstructedAccess &acc) {
        // PC-relative addresses derive from the PT path alone and
        // sampled accesses from the hardware record; both always
        // survive.
        bool keep = true;
        switch (acc.origin) {
          case AccessOrigin::kForward:
            keep = acc.position < fwd_bad_pos;
            break;
          case AccessOrigin::kBackward:
            keep = bwd_ok && acc.position < fwd_bad_pos;
            break;
          default:
            break;
        }
        if (!keep) {
            if (acc.origin == AccessOrigin::kForward)
                --stats_.recovered_forward;
            else
                --stats_.recovered_backward;
            return;
        }
        out.push_back(acc);
        out.back().tsc = alignment.tscAt(acc.position);
    });
}

void
Replayer::replayBasicBlock(const trace::PebsRecord &rec)
{
    const uint32_t block = program_.blockOf(rec.insn_index);
    const uint32_t begin = program_.blockBegin(block);
    const uint32_t end = program_.blockEnd(block);

    // Synthetic path covering exactly this basic block; the sample's
    // position within it anchors the register file.
    bb_path_.tid = rec.tid;
    bb_path_.insns.clear();
    for (uint32_t i = begin; i < end; ++i)
        bb_path_.insns.push_back(i);
    const uint64_t sample_pos = rec.insn_index - begin;
    emit_.open(0, bb_path_.insns.size());

    // Forward part: from the sample to the end of the block.
    Window fwd;
    fwd.tid = rec.tid;
    fwd.start = sample_pos;
    fwd.end = bb_path_.insns.size();
    fwd.s1 = &rec;
    bool consistent = true;
    forwardPass(fwd, bb_path_, {}, AccessOrigin::kForward, nullptr,
                &consistent, nullptr);

    // Trivial backward propagation: registers not written between a
    // block position and the sample hold their sampled values there
    // (RaceZ's single-basic-block scheme). Built from the sample
    // backwards, highest register first, then reversed into position
    // order.
    if (sample_pos > 0) {
        facts_.clear();
        uint16_t written = 0;
        for (uint64_t p = sample_pos; p-- > 0;) {
            written |= killMask(bb_path_.insns[p]);
            for (unsigned r = isa::kNumGprs; r-- > 0;) {
                if (!((written >> r) & 1u))
                    facts_.push_back({p, isa::gprFromIndex(r),
                                      rec.regs.gpr[r]});
            }
        }
        std::reverse(facts_.begin(), facts_.end());
        Window bwd;
        bwd.tid = rec.tid;
        bwd.start = 0;
        bwd.end = sample_pos;
        forwardPass(bwd, bb_path_, facts_, AccessOrigin::kForward, nullptr,
                    nullptr, nullptr);
    }
}

std::map<uint64_t, const trace::SyncRecord *>
Replayer::syncAtMap(const ThreadAlignment &alignment,
                    const trace::RunTrace &run)
{
    // malloc/pthread_create results are visible to the offline phase via
    // the sync trace; map them to path positions for register recovery.
    std::map<uint64_t, const trace::SyncRecord *> sync_at;
    for (const AlignedSync &s : alignment.syncs) {
        const trace::SyncRecord &rec = run.sync[s.record_index];
        if (rec.kind == vm::SyncKind::kMalloc ||
            rec.kind == vm::SyncKind::kSpawn) {
            sync_at[s.position] = &rec;
        }
    }
    return sync_at;
}

std::vector<Replayer::Window>
Replayer::buildWindows(
    const pmu::ThreadPath &path, const ThreadAlignment &alignment,
    const trace::RunTrace &run,
    const std::map<uint64_t, const trace::SyncRecord *> &sync_at)
{
    std::vector<Window> windows;
    const auto &samples = alignment.samples;
    if (samples.empty()) {
        Window w;
        w.tid = path.tid;
        w.start = 0;
        w.end = path.insns.size();
        w.sync_at = &sync_at;
        windows.push_back(w);
    } else {
        if (samples.front().position > 0) {
            Window w;
            w.tid = path.tid;
            w.start = 0;
            w.end = samples.front().position;
            w.s2 = &run.pebs[samples.front().record_index];
            w.sync_at = &sync_at;
            windows.push_back(w);
        }
        for (size_t i = 0; i < samples.size(); ++i) {
            Window w;
            w.tid = path.tid;
            w.start = samples[i].position;
            w.end = i + 1 < samples.size() ? samples[i + 1].position
                                           : path.insns.size();
            w.s1 = &run.pebs[samples[i].record_index];
            w.s2 = i + 1 < samples.size()
                ? &run.pebs[samples[i + 1].record_index]
                : nullptr;
            w.sync_at = &sync_at;
            windows.push_back(w);
        }
    }
    return windows;
}

std::map<uint32_t, std::vector<size_t>>
Replayer::unmatchedSamples(
    const std::map<uint32_t, ThreadAlignment> &alignments,
    const trace::RunTrace &run)
{
    // An alignment only places its own thread's samples, so one matched
    // mark per record serves every thread.
    std::vector<bool> matched(run.pebs.size());
    for (const auto &[tid, alignment] : alignments) {
        for (const AlignedSample &s : alignment.samples)
            matched[s.record_index] = true;
    }
    std::map<uint32_t, std::vector<size_t>> out;
    for (size_t i = 0; i < run.pebs.size(); ++i) {
        const uint32_t tid = run.pebs[i].tid;
        if (!matched[i] && alignments.count(tid))
            out[tid].push_back(i);
    }
    return out;
}

void
Replayer::appendSamples(const std::vector<size_t> &records,
                        const trace::RunTrace &run,
                        std::vector<ReconstructedAccess> &out)
{
    for (const size_t i : records) {
        const trace::PebsRecord &rec = run.pebs[i];
        ReconstructedAccess acc;
        acc.tid = rec.tid;
        acc.insn_index = rec.insn_index;
        acc.addr = rec.addr;
        acc.width = rec.width;
        acc.is_write = rec.is_write;
        acc.is_atomic = rec.is_atomic;
        acc.tsc = rec.tsc;
        acc.origin = AccessOrigin::kSampled;
        // The path position is unknown; the sample's own timestamp
        // keeps the detector's same-thread ordering sane.
        acc.position = 0;
        ++stats_.sampled;
        out.push_back(acc);
    }
}

std::vector<ReconstructedAccess>
Replayer::replayAll(const std::map<uint32_t, pmu::ThreadPath> &paths,
                    const std::map<uint32_t, ThreadAlignment> &alignments,
                    const trace::RunTrace &run)
{
    std::vector<ReconstructedAccess> out;

    if (config_.mode == ReplayMode::kBasicBlock) {
        // RaceZ does not use PT: every sample is reconstructed within
        // its static basic block, ordered by sample time.
        for (const trace::PebsRecord &rec : run.pebs) {
            replayBasicBlock(rec);
            const int64_t sample_pos = static_cast<int64_t>(
                rec.insn_index -
                program_.blockBegin(program_.blockOf(rec.insn_index)));
            emit_.forEach([&](const ReconstructedAccess &acc) {
                // Order accesses around the sample's timestamp while
                // preserving intra-block program order.
                const int64_t delta =
                    static_cast<int64_t>(acc.position) - sample_pos;
                out.push_back(acc);
                out.back().tsc = rec.tsc + delta;
            });
        }
    } else {
        const std::map<uint32_t, std::vector<size_t>> unmatched =
            unmatchedSamples(alignments, run);
        for (const auto &[tid, path] : paths) {
            auto it = alignments.find(tid);
            if (it == alignments.end())
                continue;
            const ThreadAlignment &alignment = it->second;
            const std::map<uint64_t, const trace::SyncRecord *> sync_at =
                syncAtMap(alignment, run);
            for (const Window &w :
                 buildWindows(path, alignment, run, sync_at)) {
                replayWindow(w, path, alignment, out);
            }
            if (auto u = unmatched.find(tid); u != unmatched.end())
                appendSamples(u->second, run, out);
        }
        appendPathlessSamples(paths, run, out);
    }

    sortByTsc(out);
    return out;
}

void
Replayer::appendPathlessSamples(
    const std::map<uint32_t, pmu::ThreadPath> &paths,
    const trace::RunTrace &run, std::vector<ReconstructedAccess> &out)
{
    std::vector<size_t> records;
    for (size_t i = 0; i < run.pebs.size(); ++i) {
        if (!paths.count(run.pebs[i].tid))
            records.push_back(i);
    }
    appendSamples(records, run, out);
}

void
Replayer::sortByTsc(std::vector<ReconstructedAccess> &out)
{
    // stable_sort: ties — e.g. an atomic RMW's read and write halves at
    // the same (tsc, tid, position) — keep their construction order, so
    // any path that assembles the same pre-sort sequence gets the same
    // post-sort sequence regardless of sort internals.
    std::stable_sort(out.begin(), out.end(),
                     [](const ReconstructedAccess &a,
                        const ReconstructedAccess &b) {
                         if (a.tsc != b.tsc)
                             return a.tsc < b.tsc;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.position < b.position;
                     });
}

} // namespace prorace::replay
