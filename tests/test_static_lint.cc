/**
 * @file
 * Differential lint of the static fact tables against the VM itself:
 * execute programs on vm::Machine with the oracle logs on and check
 * that what the machine *actually did* is covered by what the analysis
 * *claims* an instruction may do —
 *
 *  - every observed register change between two memory events of a
 *    thread lies inside the union of the kill masks of the
 *    instructions retired in between (a kill-mask hole here would
 *    silently corrupt backward replay and alignment);
 *  - the number of memory events each retired instruction produced
 *    matches the static memOpCount (exactly, except kCas which may
 *    retire one or two);
 *  - every access the machine performed at a site the escape analysis
 *    calls thread-local landed inside the executing thread's own stack
 *    region (the empirical face of the prefilter soundness argument).
 *
 * Subjects: the branchy two-worker program and fuzzer-style random
 * straight-line programs. Seeded via testutil::testSeed, so any CI
 * failure reproduces with PRORACE_TEST_SEED=<seed>.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "analysis/analysis.hh"
#include "asmkit/layout.hh"
#include "support/rng.hh"
#include "testutil.hh"
#include "vm/hooks.hh"

namespace prorace::analysis {
namespace {

using asmkit::Program;
using isa::AluOp;
using isa::Insn;
using isa::MemOperand;
using isa::Op;
using isa::Reg;
using testutil::makeBranchyProgram;

/** Register-file snapshot taken at each memory event's retirement. */
struct Snapshot {
    uint32_t insn_index = 0;
    uint64_t gpr[isa::kNumGprs] = {};
};

/** Observer capturing the before-instruction register file per event. */
class SnapshotObserver : public vm::ExecutionObserver
{
  public:
    uint64_t
    onMemOp(const vm::MemOpEvent &ev) override
    {
        Snapshot s;
        s.insn_index = ev.insn_index;
        for (unsigned r = 0; r < isa::kNumGprs; ++r)
            s.gpr[r] = ev.regs->gpr[r];
        by_tid[ev.tid].push_back(s);
        return 0;
    }

    std::map<uint32_t, std::vector<Snapshot>> by_tid;
};

/**
 * Run @p program with the oracle logs and the snapshot observer and
 * lint every thread's event stream against the analysis tables.
 */
void
lintProgram(const Program &program, uint64_t seed)
{
    const ProgramAnalysis pa(program);

    vm::MachineConfig mcfg;
    mcfg.seed = seed;
    mcfg.record_memory_log = true;
    mcfg.record_path_log = true;
    vm::Machine machine(program, mcfg);
    SnapshotObserver observer;
    machine.setObserver(&observer);
    machine.addThread("main");
    machine.run();

    const auto paths = testutil::oraclePaths(machine);

    // Group the memory log per thread, preserving order.
    std::map<uint32_t, std::vector<vm::MemoryLogEntry>> log_by_tid;
    for (const vm::MemoryLogEntry &e : machine.memoryLog())
        log_by_tid[e.tid].push_back(e);

    for (const auto &[tid, log] : log_by_tid) {
        const auto &snaps = observer.by_tid[tid];
        const auto &path = paths.at(tid);
        ASSERT_EQ(snaps.size(), log.size()) << "tid " << tid;

        // Per-insn memory-event counts vs the static table: group
        // consecutive events by retirement position, then compare each
        // group's size (kCas may retire with one or two events).
        std::map<uint64_t, unsigned> events_per_retire;
        for (const vm::MemoryLogEntry &e : log)
            ++events_per_retire[e.retire_index];
        for (const auto &[pos, count] : events_per_retire) {
            ASSERT_LT(pos, path.size());
            const uint32_t insn = path[pos];
            const unsigned want = pa.facts(insn).mem_ops;
            if (program.insnAt(insn).op == Op::kCas) {
                EXPECT_GE(count, 1u) << "insn " << insn;
                EXPECT_LE(count, want) << "insn " << insn;
            } else {
                EXPECT_EQ(count, want) << "insn " << insn;
            }
        }

        for (size_t j = 0; j < log.size(); ++j) {
            // The log's retire_index is the thread-path position of the
            // instruction that produced the event.
            ASSERT_LT(log[j].retire_index, path.size());
            ASSERT_EQ(path[log[j].retire_index], log[j].insn_index);
            ASSERT_EQ(snaps[j].insn_index, log[j].insn_index);

            // Thread-local sites must access the own stack region.
            if (pa.siteThreadLocal(log[j].insn_index)) {
                const uint64_t top = asmkit::stackTopFor(tid);
                EXPECT_LE(log[j].addr, top);
                EXPECT_GT(log[j].addr + log[j].width,
                          top - asmkit::kStackRegion)
                    << "thread-local access off tid " << tid
                    << "'s stack at insn " << log[j].insn_index;
            }

            // Register-diff coverage between consecutive snapshots.
            if (j == 0)
                continue;
            const uint64_t lo = log[j - 1].retire_index;
            const uint64_t hi = log[j].retire_index;
            uint16_t allowed = 0;
            for (uint64_t p = lo; p < hi; ++p)
                allowed |= pa.facts(static_cast<uint32_t>(path[p])).kill;
            if (lo == hi) {
                // Two events of one instruction (atomics): its own
                // write-back may land between the two reports.
                allowed |=
                    pa.facts(static_cast<uint32_t>(path[lo])).kill;
            }
            for (unsigned r = 0; r < isa::kNumGprs; ++r) {
                if (snaps[j].gpr[r] != snaps[j - 1].gpr[r]) {
                    EXPECT_TRUE(allowed & (1u << r))
                        << "register " << isa::regName(
                               isa::gprFromIndex(r))
                        << " changed across path [" << lo << ", " << hi
                        << ") without a kill bit (tid " << tid << ")";
                }
            }
        }
    }
}

TEST(StaticLint, BranchyProgramCoverage)
{
    const Program program = makeBranchyProgram(40);
    for (const uint64_t seed : testutil::testSeeds({2, 13})) {
        PRORACE_SEED_TRACE(seed);
        lintProgram(program, seed);
    }
}

// ---------------------------------------------------------------------
// Fuzzer-style random straight-line programs: every opcode class with
// a memory event or a register write, safe to execute single-threaded.
// ---------------------------------------------------------------------

Reg
randomGpr(Rng &rng)
{
    // Avoid rsp so the generated program keeps its stack intact.
    static const Reg kPool[] = {Reg::rax, Reg::rbx, Reg::rcx, Reg::rdx,
                                Reg::rsi, Reg::rdi, Reg::rbp, Reg::r8,
                                Reg::r9,  Reg::r10, Reg::r11, Reg::r12,
                                Reg::r13, Reg::r14, Reg::r15};
    return kPool[rng.below(sizeof(kPool) / sizeof(kPool[0]))];
}

Program
randomProgram(Rng &rng, uint64_t data_base)
{
    std::vector<Insn> code;
    // Point a couple of registers at scratch globals.
    Insn init;
    init.op = Op::kMovRI;
    init.dst = Reg::rsi;
    init.imm = static_cast<int64_t>(data_base);
    code.push_back(init);

    const unsigned n = 12 + static_cast<unsigned>(rng.below(20));
    for (unsigned u = 0; u < n; ++u) {
        switch (rng.below(8)) {
          case 0: { // alu immediate
            Insn i;
            i.op = Op::kAluRI;
            i.alu = static_cast<AluOp>(rng.below(6));
            i.dst = randomGpr(rng);
            i.imm = static_cast<int64_t>(rng.below(1 << 16));
            code.push_back(i);
            break;
          }
          case 1: { // alu reg-reg
            Insn i;
            i.op = Op::kAluRR;
            i.alu = static_cast<AluOp>(rng.below(6));
            i.dst = randomGpr(rng);
            i.src = randomGpr(rng);
            code.push_back(i);
            break;
          }
          case 2: { // store to scratch
            Insn i;
            i.op = Op::kStore;
            i.src = randomGpr(rng);
            i.mem = MemOperand::baseDisp(
                Reg::rsi, static_cast<int64_t>(rng.below(64)) * 8);
            code.push_back(i);
            break;
          }
          case 3: { // load from scratch
            Insn i;
            i.op = Op::kLoad;
            i.dst = randomGpr(rng);
            i.mem = MemOperand::baseDisp(
                Reg::rsi, static_cast<int64_t>(rng.below(64)) * 8);
            code.push_back(i);
            break;
          }
          case 4: { // balanced push/pop
            Insn p;
            p.op = Op::kPush;
            p.src = randomGpr(rng);
            code.push_back(p);
            Insn q;
            q.op = Op::kPop;
            q.dst = randomGpr(rng);
            code.push_back(q);
            break;
          }
          case 5: { // atomic rmw on scratch
            Insn i;
            i.op = Op::kAtomicRmw;
            i.alu = AluOp::kAdd;
            i.dst = randomGpr(rng);
            i.src = randomGpr(rng);
            i.mem = MemOperand::baseDisp(
                Reg::rsi, static_cast<int64_t>(rng.below(64)) * 8);
            code.push_back(i);
            break;
          }
          case 6: { // cas on scratch
            Insn i;
            i.op = Op::kCas;
            i.dst = randomGpr(rng);
            i.src = randomGpr(rng);
            i.mem = MemOperand::baseDisp(
                Reg::rsi, static_cast<int64_t>(rng.below(64)) * 8);
            code.push_back(i);
            break;
          }
          default: { // mov
            Insn i;
            i.op = rng.chance(0.5) ? Op::kMovRR : Op::kMovRI;
            i.dst = randomGpr(rng);
            if (i.op == Op::kMovRR)
                i.src = randomGpr(rng);
            else
                i.imm = static_cast<int64_t>(rng.below(1 << 20));
            code.push_back(i);
            break;
          }
        }
    }
    Insn halt;
    halt.op = Op::kHalt;
    code.push_back(halt);
    return Program(code, {{"main", 0}}, {},
                   {{"main", 0, static_cast<uint32_t>(code.size())}});
}

TEST(StaticLint, RandomProgramCoverage)
{
    // Scratch memory for the generated loads/stores: a fixed page in
    // the globals segment (memory is sparse first-touch, so no symbol
    // needs to back it).
    constexpr uint64_t kScratch = asmkit::kGlobalBase + 0x1000;
    for (const uint64_t seed : testutil::testSeeds({7, 21, 33})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        for (int p = 0; p < 8; ++p) {
            const Program program = randomProgram(rng, kScratch);
            lintProgram(program, seed + static_cast<uint64_t>(p));
        }
    }
}

} // namespace
} // namespace prorace::analysis
