/**
 * @file
 * Conservative thread-escape analysis: label each memory access site
 * definitely-thread-local (stack-confined, never escaping) or
 * may-shared.
 *
 * The classification rests on three facts, checked in order; if either
 * program-wide invariant fails, every site degrades to may-shared and
 * the detector prefilter prunes nothing:
 *
 *  1. *rsp integrity* (program-wide): every write to rsp anywhere in
 *     the binary is stack-preserving — the implicit ±8 of
 *     push/pop/call/ret, or an add/sub immediate bounded by
 *     kMaxStackDisp (frame setup). Inductively, rsp points into the
 *     executing thread's own stack region at every program point of
 *     every execution, independent of control flow.
 *
 *  2. *no stack escape* (program-wide): a flow-insensitive taint
 *     fixpoint over-approximates the registers that may ever hold a
 *     stack-derived pointer; if any such register is ever stored to
 *     memory, compared-and-swapped in, RMW-combined, or passed as a
 *     spawn argument, a stack pointer may escape to another thread and
 *     the whole stack-locality argument collapses.
 *
 *  3. *per-site must-stack* (flow-sensitive): a forward dataflow over
 *     the CFG computes, at each block entry, the set of registers that
 *     *definitely* hold a pointer into the executing thread's own
 *     stack with a bounded offset. Meet is intersection;
 *     unknown-entry blocks (thread entries, indirect targets, return
 *     sites) and blocks without predecessors start from the boundary
 *     value {rsp}, which invariant 1 makes correct at *any* entry
 *     point. Within a block the set is transferred per instruction.
 *
 * An access site is thread-local iff the invariants hold and the site
 * is an implicit stack access (push/pop/call/ret) or an explicit
 * access whose base register is must-stack, with no index register and
 * |disp| <= kMaxStackDisp. Since thread stacks are disjoint regions
 * and no stack pointer escapes, such an access can never race with
 * another thread — see DESIGN.md §12 for the full argument.
 */

#ifndef PRORACE_ANALYSIS_ESCAPE_HH
#define PRORACE_ANALYSIS_ESCAPE_HH

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/insn_facts.hh"

namespace prorace::analysis {

/**
 * Largest stack displacement (bytes) a thread-local classification
 * tolerates, per derivation step. Far below the gap between a thread's
 * usable stack and its region bound, so bounded-offset derivations
 * cannot walk into a neighbouring thread's stack.
 */
inline constexpr int64_t kMaxStackDisp = 4096;

/** Classification of one instruction's memory access site. */
enum class SiteClass : uint8_t {
    kNoAccess = 0,      ///< instruction has no data-memory access
    kStackImplicit,     ///< push/pop/call/ret through rsp
    kStackDirect,       ///< load/store with a must-stack base
    kMayShared,         ///< everything else
};

/** Printable site-class name. */
const char *siteClassName(SiteClass c);

/** Whole-program escape-analysis result. */
class EscapeAnalysis
{
  public:
    /** @p facts must be the per-instruction table of cfg's program. */
    EscapeAnalysis(const Cfg &cfg, const std::vector<InsnFacts> &facts);

    /** Invariant 1: every rsp write program-wide is stack-preserving. */
    bool rspIntegrity() const { return rsp_integrity_; }

    /** Invariant 2: no stack-derived value may reach memory/another thread. */
    bool noStackEscape() const { return no_stack_escape_; }

    /** True when thread-local classifications are trustworthy at all. */
    bool sound() const { return rsp_integrity_ && no_stack_escape_; }

    /** Site classification of instruction @p index. */
    SiteClass site(uint32_t index) const { return sites_[index]; }
    const std::vector<SiteClass> &sites() const { return sites_; }

    /** True when @p index's access can only touch the own thread's stack. */
    bool
    threadLocal(uint32_t index) const
    {
        const SiteClass c = sites_[index];
        return c == SiteClass::kStackImplicit ||
            c == SiteClass::kStackDirect;
    }

    /** Must-stack register mask at one block's entry. */
    uint16_t mustStackIn(uint32_t block) const
    {
        return must_stack_in_[block];
    }

    /** Flow-insensitive may-stack-derived register over-approximation. */
    uint16_t mayStackRegs() const { return may_stack_; }

    uint32_t numSites() const { return num_sites_; }
    uint32_t numThreadLocal() const { return num_thread_local_; }

  private:
    void checkRspIntegrity(const asmkit::Program &p);
    void solveMayStack(const asmkit::Program &p);
    void solveMustStack(const Cfg &cfg);
    void classifySites(const Cfg &cfg,
                       const std::vector<InsnFacts> &facts);

    bool rsp_integrity_ = true;
    bool no_stack_escape_ = true;
    uint16_t may_stack_ = 0;
    std::vector<uint16_t> must_stack_in_;
    std::vector<SiteClass> sites_;
    uint32_t num_sites_ = 0;
    uint32_t num_thread_local_ = 0;
};

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_ESCAPE_HH
