#include "replay/replayer.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "analysis/analysis.hh"
#include "isa/semantics.hh"
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

/** Path positions a window task collects before it is closed. */
constexpr uint64_t kTaskPositions = uint64_t{1} << 14;

/** Samples a sample task collects before it is closed. */
constexpr size_t kTaskSamples = size_t{1} << 10;

/** Positions a forward violation erases backwards from itself. */
constexpr uint64_t kViolationScope = 24;

/** Positions between two resume points of one forward pass, at least. */
constexpr uint64_t kResumeSpacing = 64;

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

analysis::InsnFacts
Replayer::insnFacts(uint32_t idx) const
{
    return config_.analysis ? config_.analysis->facts(idx)
                            : analysis::classifyInsn(program_.insnAt(idx));
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

void
Replayer::EmitBuffer::add(unsigned slot, const ReconstructedAccess &acc)
{
    PRORACE_ASSERT(slot < 2 && acc.position >= base_ &&
                       acc.position - base_ < len_,
                   "emit outside the open window");
    const uint64_t k = 2 * (acc.position - base_) + slot;
    if (slot_[k])
        return;
    accs_.push_back(acc);
    keys_.push_back(k);
    slot_[k] = static_cast<uint32_t>(accs_.size());
    ++live_;
}

inline void
Replayer::publish(const ReconstructedAccess &acc, uint64_t tsc,
                  std::vector<ReconstructedAccess> &out)
{
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
    out.push_back(acc);
    out.back().tsc = tsc;
}

void
Replayer::recordResumePoint(uint64_t pos, isa::Flags flags_value,
                            bool flags_known, uint16_t flag_src_mask,
                            unsigned violations, size_t hints,
                            uint64_t bad_pos)
{
    ResumePoint &p = points_.emplace_back();
    p.pos = pos;
    p.regs = pm_.regValues();
    p.avail = pm_.availMask();
    p.flag_src_mask = flag_src_mask;
    p.flags_value = flags_value;
    p.flags_known = flags_known;
    p.violations = violations;
    p.violations_branch = stats_.violations_branch - pass_branch_;
    p.violations_fact = stats_.violations_fact - pass_fact_;
    p.violations_sample = stats_.violations_sample - pass_sample_;
    p.bad_pos = bad_pos;
    p.hints = hints;
    point_next_ = pos + kResumeSpacing;
}

const Replayer::ResumePoint *
Replayer::resumeAtOrBefore(uint64_t pos)
{
    auto after = std::upper_bound(points_.begin(), points_.end(), pos,
                                  [](uint64_t p, const ResumePoint &rp) {
                                      return p < rp.pos;
                                  });
    points_.erase(after, points_.end());
    return points_.empty() ? nullptr : &points_.back();
}

void
Replayer::forwardPass(const Window &win, const pmu::ThreadPath &path,
                      const FactList &facts, AccessOrigin tag,
                      FactList *hints_out, bool *consistent_out,
                      uint64_t *bad_pos_out, const ResumePoint *from)
{
    ProgramMap &pm = pm_;
    pm.reset();
    // Emulated condition flags, where computable. Every conditional
    // branch whose flags are known is cross-checked against the
    // PT-recorded direction: a contradiction proves the window's
    // register state is wrong (misaligned sample), and the window is
    // discarded.
    isa::Flags flags_value;
    bool flags_known = false;
    // A consistency violation proves the replayed state is wrong at
    // this point (usually a sample matched to the wrong loop iteration).
    // Repair locally: discard the reconstructions of the current loop
    // body, invalidate the registers that produced the contradiction,
    // and continue — but give up on the window beyond a violation
    // budget (alignment is then hopeless).
    constexpr unsigned kViolationBudget = 8;
    unsigned violations = 0;
    uint16_t flag_src_mask = 0; // regs feeding the live flags

    // A pass that collects hints records resume points as it goes; a
    // resumed one takes over the previous pass's state at @p from,
    // whose counts its skipped prefix would have added (DESIGN §12.4).
    uint64_t first = win.start;
    pass_branch_ = stats_.violations_branch;
    pass_fact_ = stats_.violations_fact;
    pass_sample_ = stats_.violations_sample;
    point_next_ = hints_out ? win.start : ~0ull;
    if (!from) {
        points_.clear();
        if (win.s1)
            pm.restoreRegs(win.s1->regs);
    } else {
        first = from->pos;
        pm.restoreRegs(from->regs, from->avail);
        flags_value = from->flags_value;
        flags_known = from->flags_known;
        flag_src_mask = from->flag_src_mask;
        violations = from->violations;
        stats_.violations_branch += from->violations_branch;
        stats_.violations_fact += from->violations_fact;
        stats_.violations_sample += from->violations_sample;
        if (consistent_out && violations > kViolationBudget)
            *consistent_out = false;
        if (bad_pos_out)
            *bad_pos_out = std::min(*bad_pos_out, from->bad_pos);
        point_next_ = from->pos + kResumeSpacing;
    }
    size_t fact_cursor = 0;
    while (fact_cursor < facts.size() && facts[fact_cursor].pos < first)
        ++fact_cursor;

    auto violation = [&](uint64_t pos) {
        ++violations;
        if (consistent_out && violations > kViolationBudget)
            *consistent_out = false;
        if (bad_pos_out && violations > kViolationBudget)
            *bad_pos_out = std::min(*bad_pos_out, pos);
        // Erase suspect reconstructions of the enclosing loop body.
        const uint64_t lo = pos > kViolationScope ? pos - kViolationScope
                                                  : 0;
        emit_.eraseIf(lo, pos, [](const ReconstructedAccess &acc) {
            return acc.origin == AccessOrigin::kForward ||
                acc.origin == AccessOrigin::kBackward;
        });
        // A pass resumed at a point past lo would miss the re-adds its
        // skipped prefix makes into the erased range.
        while (!points_.empty() &&
               points_.back().pos + kViolationScope > pos) {
            points_.pop_back();
        }
        // Invalidate the registers behind the contradiction.
        pm.invalidateRegs(flag_src_mask);
    };
    // After a step that emptied emulated memory, the registers, flags
    // and counts are the pass's whole state.
    auto memory_dropped = [&](uint64_t pos) {
        if (pos + 1 >= point_next_) [[unlikely]] {
            recordResumePoint(pos + 1, flags_value, flags_known,
                              flag_src_mask, violations, hints_out->size(),
                              *bad_pos_out);
        }
    };

    // A register operand that is not in the step's uses mask, and so
    // may be unknown even on a resolved step.
    auto src_val = [&](Reg r) -> std::optional<uint64_t> {
        if (!isGpr(r) || !pm.regAvailable(r))
            return std::nullopt;
        return pm.regValue(r);
    };

    stats_.forward_steps += win.end - first;
    stats_.forward_resumed_steps += first - win.start;
    uint64_t unresolved_steps = 0;
    for (uint64_t pos = first; pos < win.end; ++pos) {
        while (fact_cursor < facts.size() &&
               facts[fact_cursor].pos == pos) {
            const ReplayFact &fact = facts[fact_cursor];
            // Where forward and backward knowledge overlap they must
            // agree; disagreement reveals misaligned samples.
            if (pm.regAvailable(fact.reg) &&
                pm.regValue(fact.reg) != fact.val) {
                ++stats_.violations_fact;
                violation(pos);
            }
            pm.setReg(fact.reg, fact.val);
            ++fact_cursor;
        }
        const uint32_t idx = path.insns[pos];
        if (idx == kPathGap) {
            // Untraced code ran here: nothing survives.
            pm.invalidateAllRegs();
            pm.invalidateMemory();
            flags_known = false;
            memory_dropped(pos);
            continue;
        }
        const bool is_sample = pos == win.start && win.s1;
        const analysis::InsnFacts f = insnFacts(idx);

        // An operand the step needs is unknown: the outcome is the
        // shape's rule, and the instruction itself is never read.
        if (f.uses & ~uint32_t{pm.availMask()}) {
            PRORACE_ASSERT(!is_sample,
                           "unresolved step at a restored register file");
            ++unresolved_steps;
            switch (f.unresolved) {
              case analysis::UnresolvedRule::kCompare:
                flags_known = false;
                flag_src_mask = static_cast<uint16_t>(f.uses);
                break;
              case analysis::UnresolvedRule::kAlu:
                flags_known = false;
                break;
              case analysis::UnresolvedRule::kRead:
              case analysis::UnresolvedRule::kWrite:
                // Hints at unresolved memory instructions let the next
                // backward round extend its knowledge.
                if (hints_out) {
                    for (uint16_t m = pm.availMask(); m;
                         m &= static_cast<uint16_t>(m - 1)) {
                        const Reg reg = isa::gprFromIndex(
                            static_cast<unsigned>(std::countr_zero(m)));
                        hints_out->push_back({pos, reg, pm.regValue(reg)});
                    }
                }
                // A write to an unknown address may clobber any
                // emulated location.
                if (f.unresolved == analysis::UnresolvedRule::kWrite) {
                    pm.invalidateMemory();
                    pm.invalidateRegs(f.kill);
                    memory_dropped(pos);
                    continue;
                }
                break;
              case analysis::UnresolvedRule::kKill:
              case analysis::UnresolvedRule::kNone:
                break;
            }
            pm.invalidateRegs(f.kill);
            continue;
        }

        // Every register in f.uses is known from here on.
        const Insn &insn = program_.insnAt(idx);
        auto ea = [&](const isa::MemOperand &mem) {
            return isa::effectiveAddress(
                mem, [&](Reg r) { return pm.regValue(r); });
        };
        // The sampled address at the opening sample, else the emulated
        // one.
        auto access_addr = [&](uint64_t emulated) {
            return is_sample ? win.s1->addr : emulated;
        };

        auto origin_for = [&](bool rip_rel) {
            if (is_sample)
                return AccessOrigin::kSampled;
            if (rip_rel)
                return AccessOrigin::kPcRelative;
            return tag;
        };

        // The buffer keeps the first access of each (position, slot);
        // publish() counts the survivors by origin as they leave it.
        // Forced inline: left to itself, GCC makes this per-access step
        // a call once the pass's cold resume branches grow the loop.
        auto emit_access = [&](unsigned slot, uint64_t addr, uint8_t width,
                               bool is_write, bool atomic,
                               bool rip_rel) __attribute__((always_inline)) {
            ReconstructedAccess acc;
            acc.tid = win.tid;
            acc.position = pos;
            acc.insn_index = idx;
            acc.addr = addr;
            acc.width = width;
            acc.is_write = is_write;
            acc.is_atomic = atomic;
            acc.origin = origin_for(rip_rel);
            emit_.add(slot, acc);
        };

        switch (insn.op) {
          case Op::kNop:
          case Op::kHalt:
          case Op::kJmp:
          case Op::kJmpInd:
            break;

          case Op::kCmpRR:
          case Op::kTestRR: {
            const uint64_t a = pm.regValue(insn.dst);
            const uint64_t b = pm.regValue(insn.src);
            flags_value = insn.op == Op::kCmpRR ? isa::evalCmp(a, b)
                                                : isa::evalTest(a, b);
            flags_known = true;
            flag_src_mask = static_cast<uint16_t>(f.uses);
            break;
          }
          case Op::kCmpRI:
          case Op::kTestRI: {
            const uint64_t a = pm.regValue(insn.dst);
            const auto imm = static_cast<uint64_t>(insn.imm);
            flags_value = insn.op == Op::kCmpRI ? isa::evalCmp(a, imm)
                                                : isa::evalTest(a, imm);
            flags_known = true;
            flag_src_mask = static_cast<uint16_t>(f.uses);
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
            pm.setReg(insn.dst, pm.regValue(insn.src));
            break;

          case Op::kLoad:
          case Op::kLoadAcq: {
            // Acquire loads never sign-extend (the VM executes them so).
            const bool acquire = insn.op == Op::kLoadAcq;
            const bool sign_extend = !acquire && insn.sign_extend;
            const uint64_t addr = access_addr(ea(insn.mem));
            // Only a plain load cross-checks its sampled address.
            if (is_sample && !acquire && ea(insn.mem) != addr) {
                ++stats_.violations_sample;
                violation(pos);
            }
            emit_access(0, addr, insn.width, false, acquire,
                        insn.mem.rip_relative);
            if (auto v = pm.readMem(addr, insn.width)) {
                pm.setReg(insn.dst, isa::extendFromWidth(*v, insn.width,
                                                         sign_extend));
            } else {
                pm.invalidateReg(insn.dst);
            }
            break;
          }

          case Op::kStore:
          case Op::kStoreI:
          case Op::kStoreRel: {
            const uint64_t addr = access_addr(ea(insn.mem));
            emit_access(0, addr, insn.width, true,
                        insn.op == Op::kStoreRel, insn.mem.rip_relative);
            std::optional<uint64_t> value;
            if (insn.op == Op::kStoreI)
                value = static_cast<uint64_t>(insn.imm);
            else
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
            pm.setReg(insn.dst, ea(insn.mem));
            break;

          case Op::kAluRR:
          case Op::kAluRI: {
            const uint64_t b = insn.op == Op::kAluRR
                ? pm.regValue(insn.src)
                : static_cast<uint64_t>(insn.imm);
            const auto r = isa::evalAlu(insn.alu, pm.regValue(insn.dst), b);
            pm.setReg(insn.dst, r.value);
            flags_value = r.flags;
            flags_known = true;
            flag_src_mask = static_cast<uint16_t>(f.uses);
            break;
          }

          case Op::kCall:
          case Op::kCallInd:
          case Op::kPush: {
            std::optional<uint64_t> value = uint64_t{idx} + 1;
            if (insn.op == Op::kPush)
                value = src_val(insn.src);
            const uint64_t addr = pm.regValue(Reg::rsp) - 8;
            emit_access(0, access_addr(addr), 8, true, false, false);
            if (value)
                pm.writeMem(addr, *value, 8);
            else
                pm.invalidateMem(addr, 8);
            pm.setReg(Reg::rsp, addr);
            break;
          }

          case Op::kRet:
          case Op::kPop: {
            const uint64_t rsp = pm.regValue(Reg::rsp);
            emit_access(0, access_addr(rsp), 8, false, false, false);
            if (insn.op == Op::kPop) {
                if (auto v = pm.readMem(rsp, 8))
                    pm.setReg(insn.dst, *v);
                else
                    pm.invalidateReg(insn.dst);
            }
            pm.setReg(Reg::rsp, rsp + 8);
            break;
          }

          case Op::kAtomicRmw:
          case Op::kAtomicRmwAcqRel: {
            const uint64_t addr = access_addr(ea(insn.mem));
            emit_access(0, addr, insn.width, false, true,
                        insn.mem.rip_relative);
            emit_access(1, addr, insn.width, true, true,
                        insn.mem.rip_relative);
            auto old = pm.readMem(addr, insn.width);
            auto rhs = src_val(insn.src);
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
            const uint64_t addr = access_addr(ea(insn.mem));
            emit_access(0, addr, insn.width, false, true,
                        insn.mem.rip_relative);
            auto old = pm.readMem(addr, insn.width);
            auto expected = src_val(insn.dst);
            auto desired = src_val(insn.src);
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
            memory_dropped(pos);
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
            memory_dropped(pos);
            break;
          }

          case Op::kSyscall:
            pm.invalidateMemory();
            pm.invalidateReg(Reg::rax);
            memory_dropped(pos);
            break;
        }
    }

    stats_.forward_unresolved_steps += unresolved_steps;
    // Consumed marks stay in the reused map's pages; only its counters
    // are published here.
    stats_.program_map = pm.memStats();

    if (win.s2) {
        for (unsigned r = 0; r < isa::kNumGprs; ++r) {
            const Reg reg = isa::gprFromIndex(r);
            if (pm.regAvailable(reg) &&
                pm.regValue(reg) != win.s2->regs.gpr[r]) {
                ++stats_.violations_end;
                violation(win.end ? win.end - 1 : 0);
            }
        }
    }
}

uint64_t
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
    // Known registers whose value derives from the closing sample; the
    // others derive from forward hints alone. Facts are recorded at
    // non-increasing positions, so the last one recorded from a
    // sampled register is the lowest.
    uint16_t sampled = 0xffff;
    uint64_t first_sampled_fact = win.end;
    auto note_sampled = [&](uint64_t pos, uint16_t mask) {
        if ((mask & sampled) && pos < win.end)
            first_sampled_fact = pos;
    };

    facts_out.clear();
    auto record_fact = [&](uint64_t pos, Reg reg, uint64_t value) {
        if (pos >= win.end)
            return;
        facts_out.push_back({pos, reg, value});
    };
    // Record the registers of @p mask at @p pos, lowest register first.
    auto record_known = [&](uint64_t pos, uint16_t mask) {
        note_sampled(pos, mask);
        for (; mask; mask &= static_cast<uint16_t>(mask - 1)) {
            const unsigned r = static_cast<unsigned>(std::countr_zero(mask));
            record_fact(pos, isa::gprFromIndex(r), val[r]);
        }
    };

    // Registers that survive all the way to the window end are injected
    // wherever their validity begins; writes terminate validity.
    stats_.backward_steps += win.end - win.start;
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
        const uint16_t wmask = insnFacts(idx).kill;
        if (known & wmask) {
            const Insn &insn = program_.insnAt(idx);
            const uint16_t post = known; // known set after the insn
            // Default: a write makes the pre-state unknown; the
            // surviving post-state value is injected just after the
            // write (backward propagation, §5.2.1).
            record_known(pp + 1, known & wmask);
            known &= static_cast<uint16_t>(~wmask);
            auto post_known = [&](Reg r) { return (post & bit(r)) != 0; };
            // Learn @p r from the post-state of @p from_mask's registers.
            auto learn = [&](Reg r, uint64_t value, uint16_t from_mask) {
                known |= bit(r);
                val[gprIndex(r)] = value;
                const uint16_t from_sample =
                    (sampled & from_mask) ? bit(r) : uint16_t{0};
                sampled = static_cast<uint16_t>((sampled & ~bit(r)) |
                                                from_sample);
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
                    learn(insn.mem.base, base_pre, bit(insn.dst));
                    note_sampled(pp, bit(insn.mem.base));
                    record_fact(pp, insn.mem.base, base_pre);
                }
                break;
              case Op::kAluRI:
                if (invertibleAlu(insn.alu) && post_known(insn.dst)) {
                    uint64_t pre = 0;
                    if (isa::invertAlu(insn.alu, val[gprIndex(insn.dst)],
                                       static_cast<uint64_t>(insn.imm),
                                       pre)) {
                        learn(insn.dst, pre, bit(insn.dst));
                    }
                }
                break;
              case Op::kAluRR:
                if (invertibleAlu(insn.alu) && insn.src != insn.dst &&
                    post_known(insn.dst) && post_known(insn.src)) {
                    uint64_t pre = 0;
                    if (isa::invertAlu(insn.alu, val[gprIndex(insn.dst)],
                                       val[gprIndex(insn.src)], pre)) {
                        learn(insn.dst, pre, bit(insn.dst) | bit(insn.src));
                    }
                }
                break;
              case Op::kMovRR:
                // dst_post == src_pre == src_post: learn the source.
                if (post_known(insn.dst) && insn.src != insn.dst &&
                    !(known & bit(insn.src))) {
                    const uint64_t v = val[gprIndex(insn.dst)];
                    learn(insn.src, v, bit(insn.dst));
                    note_sampled(pp, bit(insn.src));
                    record_fact(pp, insn.src, v);
                }
                break;
              case Op::kPush:
              case Op::kCall:
              case Op::kCallInd:
                if (post_known(Reg::rsp)) {
                    learn(Reg::rsp, val[gprIndex(Reg::rsp)] + 8,
                          bit(Reg::rsp));
                }
                break;
              case Op::kPop:
              case Op::kRet:
                if (post_known(Reg::rsp)) {
                    learn(Reg::rsp, val[gprIndex(Reg::rsp)] - 8,
                          bit(Reg::rsp));
                }
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
                sampled &= static_cast<uint16_t>(~bit(hint.reg));
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
    return first_sampled_fact;
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

        // A round whose inputs repeat the previous round's repeats its
        // pass exactly: same facts, same violations, same emissions
        // into slots the previous pass already settled. It would emit
        // nothing, so the fixed point stops before it. A mixed pass
        // repeats the previous pass up to its first possibly-new fact,
        // so it resumes at the previous pass's last resume point at or
        // before that fact (DESIGN §12.4).
        size_t emitted = emit_.size();
        for (int round = 0; round < config_.max_backward_rounds; ++round) {
            if (round > 0 && hints_ == prev_hints_)
                break;
            ++stats_.backward_rounds;
            const uint64_t first_sampled =
                backwardScan(win, path, hints_, facts_, &bwd_ok);
            if (facts_.empty())
                break;
            // Round 0 follows the plain pass, whose hints every fact
            // not derived from the closing sample repeats; a later
            // round follows a mixed pass with the same tag.
            uint64_t first_new = first_sampled;
            if (round > 0) {
                const auto [a, b] =
                    std::mismatch(facts_.begin(), facts_.end(),
                                  prev_facts_.begin(), prev_facts_.end());
                if (a == facts_.end() && b == prev_facts_.end())
                    break;
                first_new = std::min(
                    a == facts_.end() ? win.end : a->pos,
                    b == prev_facts_.end() ? win.end : b->pos);
            }
            const ResumePoint *from = resumeAtOrBefore(first_new);
            prev_hints_ = hints_;
            prev_facts_ = facts_;
            hints_.resize(from ? from->hints : 0);
            bool mixed_ok = true;
            uint64_t mixed_bad_pos = ~0ull;
            forwardPass(win, path, facts_, AccessOrigin::kBackward,
                        &hints_, &mixed_ok, &mixed_bad_pos, from);
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

    // forEach visits the accesses in position order.
    size_t anchor = SIZE_MAX;
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
        if (keep)
            publish(acc, alignment.tscAt(acc.position, anchor), out);
    });
}

void
Replayer::replayBasicBlock(const trace::PebsRecord &rec,
                           std::vector<ReconstructedAccess> &out)
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
            written |= insnFacts(bb_path_.insns[p]).kill;
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

    emit_.forEach([&](const ReconstructedAccess &acc) {
        // Order accesses around the sample's timestamp while preserving
        // intra-block program order.
        const int64_t delta = static_cast<int64_t>(acc.position) -
            static_cast<int64_t>(sample_pos);
        publish(acc, rec.tsc + delta, out);
    });
}

Replayer::Plan
Replayer::plan(ReplayMode mode,
               const std::map<uint32_t, pmu::ThreadPath> &paths,
               const std::map<uint32_t, ThreadAlignment> &alignments,
               const trace::RunTrace &run)
{
    // RaceZ uses no PT: in basic-block mode no sample has a path.
    static const std::map<uint32_t, pmu::ThreadPath> kNoPaths;
    const std::map<uint32_t, pmu::ThreadPath> &traced =
        mode == ReplayMode::kBasicBlock ? kNoPaths : paths;

    // An alignment only places its own thread's samples, so one matched
    // mark per record serves every thread.
    std::vector<bool> matched(run.pebs.size());
    for (const auto &[tid, alignment] : alignments) {
        for (const AlignedSample &s : alignment.samples)
            matched[s.record_index] = true;
    }
    using Samples = std::vector<const trace::PebsRecord *>;
    std::map<uint32_t, Samples> unmatched;
    Samples pathless;
    for (size_t i = 0; i < run.pebs.size(); ++i) {
        const trace::PebsRecord &rec = run.pebs[i];
        if (!traced.count(rec.tid))
            pathless.push_back(&rec);
        else if (!matched[i])
            unmatched[rec.tid].push_back(&rec);
    }

    Plan plan;
    auto add_samples = [&plan](const Samples &samples) {
        for (size_t i = 0; i < samples.size(); ++i) {
            if (i % kTaskSamples == 0)
                plan.tasks.emplace_back();
            plan.tasks.back().samples.push_back(samples[i]);
        }
    };
    for (const auto &[tid, path] : traced) {
        auto it = alignments.find(tid);
        if (it == alignments.end())
            continue;
        const ThreadAlignment &alignment = it->second;
        // malloc/pthread_create results are visible to the offline
        // phase via the sync trace; map them to path positions for
        // register recovery.
        auto &sync_at = plan.sync_maps[tid];
        for (const AlignedSync &s : alignment.syncs) {
            const trace::SyncRecord &rec = run.sync[s.record_index];
            if (rec.kind == vm::SyncKind::kMalloc ||
                rec.kind == vm::SyncKind::kSpawn) {
                sync_at[s.position] = &rec;
            }
        }

        // Window k runs from sample k - 1 (or the path's start) to
        // sample k (or the path's end); there is no window before a
        // first sample at position 0.
        const std::vector<AlignedSample> &samples = alignment.samples;
        Task t;
        uint64_t positions = 0;
        for (size_t k = 0; k <= samples.size(); ++k) {
            Window w;
            w.tid = tid;
            w.start = k == 0 ? 0 : samples[k - 1].position;
            w.end = k < samples.size() ? samples[k].position
                                       : path.insns.size();
            if (k == 0 && !samples.empty() && w.end == 0)
                continue;
            w.s1 = k == 0 ? nullptr : &run.pebs[samples[k - 1].record_index];
            w.s2 = k < samples.size() ? &run.pebs[samples[k].record_index]
                                      : nullptr;
            w.sync_at = &sync_at;
            t.windows.push_back(w);
            positions += w.end - w.start;
            if (positions >= kTaskPositions || k == samples.size()) {
                t.path = &path;
                t.alignment = &alignment;
                plan.tasks.push_back(std::move(t));
                t = Task();
                positions = 0;
            }
        }
        if (auto u = unmatched.find(tid); u != unmatched.end())
            add_samples(u->second);
    }
    add_samples(pathless);
    return plan;
}

void
Replayer::replayTask(const Task &task, size_t first, size_t last,
                     std::vector<ReconstructedAccess> &out)
{
    for (size_t u = first; u < last; ++u) {
        if (u < task.windows.size()) {
            replayWindow(task.windows[u], *task.path, *task.alignment, out);
            continue;
        }
        const trace::PebsRecord &rec = *task.samples[u - task.windows.size()];
        // A record naming no instruction, or one that retires no
        // memory event, is hostile: no access can be built from it.
        if (rec.insn_index >= program_.size() ||
            insnFacts(rec.insn_index).mem_ops == 0) {
            ++stats_.samples_out_of_program;
            continue;
        }
        if (config_.mode == ReplayMode::kBasicBlock) {
            replayBasicBlock(rec, out);
            continue;
        }
        ReconstructedAccess acc;
        acc.tid = rec.tid;
        acc.insn_index = rec.insn_index;
        acc.addr = rec.addr;
        acc.width = rec.width;
        acc.is_write = rec.is_write;
        acc.is_atomic = rec.is_atomic;
        acc.origin = AccessOrigin::kSampled;
        // The path position is unknown (0); the sample's own
        // timestamp keeps the detector's same-thread ordering sane.
        publish(acc, rec.tsc, out);
    }
}

std::vector<ReconstructedAccess>
Replayer::replayAll(const std::map<uint32_t, pmu::ThreadPath> &paths,
                    const std::map<uint32_t, ThreadAlignment> &alignments,
                    const trace::RunTrace &run)
{
    const Plan p = plan(config_.mode, paths, alignments, run);
    std::vector<ReconstructedAccess> out;
    for (const Task &t : p.tasks)
        replayTask(t, 0, t.units(), out);
    sortByTsc(out);
    return out;
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
