/**
 * @file
 * Tests for the static binary-analysis subsystem (src/analysis): CFG
 * recovery edge cases, escape-analysis soundness
 * gating, the detector prefilter's report-identity guarantee, and the
 * replayer's analysis-accelerated fast path producing bit-identical
 * reconstructions.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "analysis/analysis.hh"
#include "asmkit/layout.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "oracle/generator.hh"
#include "oracle/scorer.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "testutil.hh"

namespace prorace::analysis {
namespace {

using asmkit::Program;
using asmkit::ProgramBuilder;
using isa::AluOp;
using isa::CondCode;
using isa::MemOperand;
using isa::Reg;
using testutil::makeBranchyProgram;

// ---------------------------------------------------------------------
// Per-instruction facts: the table must agree with the per-instruction
// derivations the aligner and replayer fall back to, on every insn.
// ---------------------------------------------------------------------

TEST(InsnFacts, TableMatchesPerInsnDerivation)
{
    const Program program = makeBranchyProgram(10);
    const ProgramAnalysis pa(program);
    for (uint32_t i = 0; i < program.size(); ++i) {
        const isa::Insn &insn = program.insnAt(i);
        const InsnFacts &f = pa.facts(i);
        EXPECT_EQ(f.kill, regWriteMask(insn)) << "insn " << i;
        EXPECT_EQ(f.mem_ops, memOpCount(insn)) << "insn " << i;
        EXPECT_EQ(pa.syncRecords(i), syncRecordCount(insn)) << "insn " << i;
    }
}

TEST(InsnFacts, SyncRecordCountPerOp)
{
    // What alignThread expects in the sync trace per retired instruction.
    asmkit::ProgramBuilder b;
    const MemOperand var = MemOperand::baseDisp(Reg::rdi, 0);
    const uint32_t wait = b.condWait(var, Reg::rsi);
    const uint32_t barrier = b.barrier(var, 2);
    const uint32_t lock = b.lock(var);
    const uint32_t acquire = b.loadAcq(Reg::rax, var);
    const uint32_t load = b.load(Reg::rax, var);
    const uint32_t halt = b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);
    EXPECT_EQ(pa.syncRecords(wait), 2u);
    EXPECT_EQ(pa.syncRecords(barrier), 2u);
    EXPECT_EQ(pa.syncRecords(lock), 1u);
    EXPECT_EQ(pa.syncRecords(acquire), 1u);
    EXPECT_EQ(pa.syncRecords(load), 0u);
    EXPECT_EQ(pa.syncRecords(halt), 1u);
}

TEST(InsnFacts, UnresolvedRuleKillsWhatEachShapeWrites)
{
    // One instruction per access shape: the registers whose
    // unavailability leaves forward replay unresolved, the rule it then
    // applies, and the registers that rule clears (the kill mask).
    const auto bit = [](Reg r) { return operandBit(r); };
    const MemOperand mem = MemOperand::baseIndex(Reg::rsi, Reg::rcx, 8, 16);
    const uint32_t addr = bit(Reg::rsi) | bit(Reg::rcx);
    const uint16_t rsp = regBit(Reg::rsp);
    struct Shape {
        isa::Op op;
        uint32_t uses;
        UnresolvedRule rule;
        uint16_t kill; ///< dst is rax, src rbx, where present
    };
    using R = UnresolvedRule;
    using isa::Op;
    const uint16_t rax = regBit(Reg::rax);
    const Shape kShapes[] = {
        {Op::kMovRR, bit(Reg::rbx), R::kKill, rax},
        {Op::kLea, addr, R::kKill, rax},
        {Op::kAluRR, bit(Reg::rax) | bit(Reg::rbx), R::kAlu, rax},
        {Op::kAluRI, bit(Reg::rax), R::kAlu, rax},
        {Op::kCmpRR, bit(Reg::rax) | bit(Reg::rbx), R::kCompare, 0},
        {Op::kTestRI, bit(Reg::rax), R::kCompare, 0},
        {Op::kLoad, addr, R::kRead, rax},
        {Op::kLoadAcq, addr, R::kRead, rax},
        {Op::kPop, bit(Reg::rsp), R::kRead, static_cast<uint16_t>(rax | rsp)},
        {Op::kRet, bit(Reg::rsp), R::kRead, rsp},
        {Op::kStore, addr, R::kWrite, 0},
        {Op::kStoreI, addr, R::kWrite, 0},
        {Op::kStoreRel, addr, R::kWrite, 0},
        {Op::kAtomicRmw, addr, R::kWrite, rax},
        {Op::kAtomicRmwAcqRel, addr, R::kWrite, rax},
        {Op::kCas, addr, R::kWrite, rax},
        {Op::kPush, bit(Reg::rsp), R::kWrite, rsp},
        {Op::kCall, bit(Reg::rsp), R::kWrite, rsp},
        {Op::kCallInd, bit(Reg::rsp), R::kWrite, rsp},
        {Op::kJmp, 0, R::kNone, 0},
        {Op::kMovRI, 0, R::kNone, rax},
        {Op::kLock, 0, R::kNone, 0},
        {Op::kSyscall, 0, R::kNone, regBit(Reg::rax)},
    };
    for (const Shape &shape : kShapes) {
        isa::Insn insn;
        insn.op = shape.op;
        insn.dst = Reg::rax;
        insn.src = Reg::rbx;
        insn.mem = mem;
        const InsnFacts f = classifyInsn(insn);
        EXPECT_EQ(f.uses, shape.uses) << isa::opName(shape.op);
        EXPECT_EQ(f.unresolved, shape.rule) << isa::opName(shape.op);
        EXPECT_EQ(f.kill, shape.kill) << isa::opName(shape.op);
    }

    // A PC-relative operand depends on no register.
    isa::Insn load;
    load.op = isa::Op::kLoad;
    load.dst = Reg::rax;
    load.mem = MemOperand::ripRel(0x1000);
    EXPECT_EQ(classifyInsn(load).uses, 0u);

    // A non-GPR operand is never available, so the step never resolves.
    isa::Insn mov;
    mov.op = isa::Op::kMovRR;
    mov.dst = Reg::rax;
    mov.src = Reg::rip;
    EXPECT_NE(classifyInsn(mov).uses & ~uint32_t{0xffff}, 0u);
}

// ---------------------------------------------------------------------
// CFG edge cases
// ---------------------------------------------------------------------

TEST(Cfg, SingleBlockProgram)
{
    ProgramBuilder b;
    b.label("main");
    b.movri(Reg::rax, 1);
    b.addri(Reg::rax, 2);
    b.halt();
    const Program program = b.build();

    const Cfg cfg(program);
    ASSERT_EQ(cfg.numBlocks(), 1u);
    EXPECT_TRUE(cfg.block(0).succs.empty());
    EXPECT_TRUE(cfg.block(0).reachable);
    EXPECT_TRUE(cfg.block(0).is_thread_entry);
    EXPECT_EQ(cfg.numEdges(), 0u);
    EXPECT_FALSE(cfg.hasIndirectTransfers());
}

TEST(Cfg, ProgramEndingWithoutRetOrHalt)
{
    ProgramBuilder b;
    b.label("main");
    b.movri(Reg::rax, 1);
    b.cmpri(Reg::rax, 0);
    b.jcc(CondCode::kEq, "main");
    b.movri(Reg::rbx, 2); // program just ends here
    const Program program = b.build();

    const Cfg cfg(program);
    const uint32_t last = cfg.numBlocks() - 1;
    // The trailing block has no fall-through block to go to.
    EXPECT_TRUE(cfg.block(last).succs.empty());
}

TEST(Cfg, UnreachableBlockIsFlagged)
{
    ProgramBuilder b;
    b.label("main");
    b.jmp("end");
    b.label("dead");
    b.movri(Reg::rax, 1);
    b.jmp("end");
    b.label("end");
    b.halt();
    const Program program = b.build();

    const Cfg cfg(program);
    const uint32_t dead = program.blockOf(1); // first insn of "dead"
    EXPECT_FALSE(cfg.block(dead).reachable);
    EXPECT_LT(cfg.numReachable(), cfg.numBlocks());
    // The dead block still has its edge into "end" recorded.
    ASSERT_EQ(cfg.block(dead).succs.size(), 1u);
}

TEST(Cfg, IndirectTransfersFanOutToAddressTaken)
{
    const Program program = makeBranchyProgram(10);
    const Cfg cfg(program);
    EXPECT_TRUE(cfg.hasIndirectTransfers());
    // The dispatch-table targets (movLabel immediates) are
    // address-taken, and everything address-taken is reachable because
    // a reachable indirect call exists.
    ASSERT_GE(cfg.addressTaken().size(), 2u);
    for (const uint32_t target : cfg.addressTaken()) {
        const uint32_t blk = program.blockOf(target);
        EXPECT_TRUE(cfg.block(blk).is_address_taken);
        EXPECT_TRUE(cfg.block(blk).unknown_entry);
        EXPECT_TRUE(cfg.block(blk).reachable) << "target " << target;
    }
    // The indirect-call block fans out to every address-taken block.
    bool found_callind = false;
    for (uint32_t i = 0; i < program.size(); ++i) {
        if (program.insnAt(i).op != isa::Op::kCallInd)
            continue;
        found_callind = true;
        const CfgBlock &blk = cfg.block(program.blockOf(i));
        for (const uint32_t target : cfg.addressTaken()) {
            const uint32_t tb = program.blockOf(target);
            EXPECT_NE(std::find(blk.succs.begin(), blk.succs.end(), tb),
                      blk.succs.end())
                << "missing edge to address-taken block " << tb;
        }
    }
    EXPECT_TRUE(found_callind);
}

TEST(Cfg, SpawnTargetsAreThreadEntries)
{
    const Program program = makeBranchyProgram(10);
    const Cfg cfg(program);
    bool found_spawn = false;
    for (uint32_t i = 0; i < program.size(); ++i) {
        const isa::Insn &insn = program.insnAt(i);
        if (insn.op != isa::Op::kSpawn)
            continue;
        found_spawn = true;
        const uint32_t tb = program.blockOf(insn.target);
        EXPECT_TRUE(cfg.block(tb).is_thread_entry);
        EXPECT_TRUE(cfg.block(tb).unknown_entry);
        EXPECT_TRUE(cfg.block(tb).reachable);
        // No intra-thread edge into the spawned entry from the spawn.
        const CfgBlock &sb = cfg.block(program.blockOf(i));
        EXPECT_EQ(std::find(sb.succs.begin(), sb.succs.end(), tb),
                  sb.succs.end());
    }
    EXPECT_TRUE(found_spawn);
}

TEST(Cfg, EdgesAreSymmetric)
{
    const Program program = makeBranchyProgram(10);
    const Cfg cfg(program);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        for (const uint32_t s : cfg.block(b).succs) {
            const auto &preds = cfg.block(s).preds;
            EXPECT_NE(std::find(preds.begin(), preds.end(), b),
                      preds.end())
                << "edge " << b << "->" << s << " missing back-link";
        }
    }
}

// ---------------------------------------------------------------------
// Escape analysis
// ---------------------------------------------------------------------

TEST(Escape, BranchyProgramIsSoundWithThreadLocalSites)
{
    const Program program = makeBranchyProgram(10);
    const ProgramAnalysis pa(program);
    const EscapeAnalysis &ea = pa.escape();
    EXPECT_TRUE(ea.sound());
    EXPECT_GT(ea.numThreadLocal(), 0u);
    for (uint32_t i = 0; i < program.size(); ++i) {
        const isa::Op op = program.insnAt(i).op;
        if (op == isa::Op::kPush || op == isa::Op::kPop ||
            op == isa::Op::kCall || op == isa::Op::kCallInd ||
            op == isa::Op::kRet) {
            EXPECT_EQ(ea.site(i), SiteClass::kStackImplicit)
                << "insn " << i;
        }
        // The global accumulator store must stay may-shared.
        if (op == isa::Op::kStore) {
            EXPECT_EQ(ea.site(i), SiteClass::kMayShared) << "insn " << i;
        }
    }
}

TEST(Escape, FramePointerSpillsAreStackDirect)
{
    ProgramBuilder b;
    b.label("main");
    b.movrr(Reg::rbp, Reg::rsp);
    b.movri(Reg::rax, 7);
    b.store(MemOperand::baseDisp(Reg::rbp, -8), Reg::rax);
    b.load(Reg::rbx, MemOperand::baseDisp(Reg::rbp, -8));
    b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);
    ASSERT_TRUE(pa.escape().sound());
    for (uint32_t i = 0; i < program.size(); ++i) {
        const isa::Op op = program.insnAt(i).op;
        if (op == isa::Op::kStore || op == isa::Op::kLoad) {
            EXPECT_EQ(pa.escape().site(i), SiteClass::kStackDirect)
                << "insn " << i;
        }
    }
    EXPECT_EQ(pa.escape().numThreadLocal(), 2u);
}

TEST(Escape, StoredStackPointerKillsEverything)
{
    ProgramBuilder b;
    b.global("leak", 8);
    b.label("main");
    b.movrr(Reg::rbp, Reg::rsp);
    b.store(MemOperand::baseDisp(Reg::rbp, -8), Reg::rax); // local spill
    b.store(b.symRef("leak"), Reg::rbp); // stack pointer escapes!
    b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);
    EXPECT_TRUE(pa.escape().rspIntegrity());
    EXPECT_FALSE(pa.escape().noStackEscape());
    EXPECT_FALSE(pa.escape().sound());
    // Demotion: nothing is thread-local anymore, the spill included.
    EXPECT_EQ(pa.escape().numThreadLocal(), 0u);
    for (uint32_t i = 0; i < program.size(); ++i)
        EXPECT_FALSE(pa.siteThreadLocal(i));
}

TEST(Escape, ArbitraryRspWriteBreaksIntegrity)
{
    ProgramBuilder b;
    b.label("main");
    b.movri(Reg::rsp, 0x1000);
    b.push(Reg::rax);
    b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);
    EXPECT_FALSE(pa.escape().rspIntegrity());
    EXPECT_FALSE(pa.escape().sound());
    EXPECT_EQ(pa.escape().numThreadLocal(), 0u);
}

TEST(Escape, ForgedStackImmediateBreaksNoEscape)
{
    ProgramBuilder b;
    b.label("main");
    b.movri(Reg::rax,
            static_cast<int64_t>(asmkit::stackTopFor(1) - 64));
    b.store(MemOperand::baseDisp(Reg::rax, 0), Reg::rbx);
    b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);
    EXPECT_FALSE(pa.escape().noStackEscape());
    EXPECT_EQ(pa.escape().numThreadLocal(), 0u);
}

TEST(Escape, LargeDisplacementIsNotThreadLocal)
{
    ProgramBuilder b;
    b.label("main");
    b.store(MemOperand::baseDisp(Reg::rsp, -(kMaxStackDisp + 8)),
            Reg::rax);
    b.store(MemOperand::baseDisp(Reg::rsp, -16), Reg::rbx);
    b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);
    ASSERT_TRUE(pa.escape().sound());
    EXPECT_EQ(pa.escape().site(0), SiteClass::kMayShared);
    EXPECT_EQ(pa.escape().site(1), SiteClass::kStackDirect);
}

// ---------------------------------------------------------------------
// Replayer fast path: analysis-accelerated replay is bit-identical.
// ---------------------------------------------------------------------

/** Traced-run fixture (mirrors the one in test_replay.cc). */
struct Fixture {
    trace::RunTrace trace;
    std::map<uint32_t, pmu::ThreadPath> paths;
    std::map<uint32_t, replay::ThreadAlignment> alignments;

    Fixture(const Program &program, uint64_t period,
            const pmu::PtFilter &filter, uint64_t seed = 3)
    {
        vm::MachineConfig mcfg;
        mcfg.seed = seed;
        driver::TraceConfig tcfg;
        tcfg.pebs_period = period;
        tcfg.seed = seed + 100;
        tcfg.pt.filter = filter;

        vm::Machine machine(program, mcfg);
        driver::TracingSession tracing(tcfg, mcfg.num_cores);
        machine.setObserver(&tracing);
        machine.addThread("main");
        machine.run();
        trace = tracing.finish();
        for (uint32_t tid = 0; tid < machine.numThreads(); ++tid)
            trace.meta.threads.push_back(
                {tid, machine.thread(tid).entry_ip});
        paths = pmu::decodePt(program, trace.meta.pt_filter, trace);
        alignments = replay::alignTrace(program, paths, trace);
    }
};

using AccessKey = std::tuple<uint32_t, uint64_t, uint32_t, uint64_t,
                             uint8_t, bool, bool, uint64_t, uint8_t>;

AccessKey
keyOf(const replay::ReconstructedAccess &a)
{
    return {a.tid,      a.position, a.insn_index,
            a.addr,     a.width,    a.is_write,
            a.is_atomic, a.tsc,
            static_cast<uint8_t>(a.origin)};
}

void
expectIdenticalReplay(const Program &program, const Fixture &fx)
{
    const ProgramAnalysis pa(program);
    replay::ReplayConfig base;
    replay::Replayer plain(program, base);
    const auto without =
        plain.replayAll(fx.paths, fx.alignments, fx.trace);

    replay::ReplayConfig accel;
    accel.analysis = &pa;
    replay::Replayer fast(program, accel);
    const auto with = fast.replayAll(fx.paths, fx.alignments, fx.trace);

    ASSERT_EQ(without.size(), with.size());
    for (size_t i = 0; i < without.size(); ++i)
        EXPECT_EQ(keyOf(without[i]), keyOf(with[i])) << "access " << i;
    EXPECT_EQ(plain.stats().totalAccesses(), fast.stats().totalAccesses());
    EXPECT_EQ(plain.stats().recovered_backward,
              fast.stats().recovered_backward);
    EXPECT_EQ(plain.stats().backward_rounds, fast.stats().backward_rounds);
    EXPECT_EQ(plain.stats().forward_steps, fast.stats().forward_steps);
    EXPECT_EQ(plain.stats().forward_unresolved_steps,
              fast.stats().forward_unresolved_steps);
    EXPECT_EQ(plain.stats().forward_resumed_steps,
              fast.stats().forward_resumed_steps);
    EXPECT_EQ(plain.stats().backward_steps, fast.stats().backward_steps);
    EXPECT_EQ(plain.stats().program_map.mem_invalidations,
              fast.stats().program_map.mem_invalidations);
    EXPECT_EQ(plain.stats().program_map.page_lookups,
              fast.stats().program_map.page_lookups);
}

TEST(ReplayFastPath, FullTraceIsBitIdentical)
{
    const Program program = makeBranchyProgram(80);
    for (const uint64_t seed : testutil::testSeeds({3, 11})) {
        PRORACE_SEED_TRACE(seed);
        const Fixture fx(program, 7, pmu::PtFilter::all(), seed);
        expectIdenticalReplay(program, fx);
    }
}

TEST(ReplayFastPath, PathGapWindowsAreBitIdentical)
{
    // Exclude the helper/dispatch functions from the PT filter so the
    // decoded paths contain kPathGap runs; the block-skip fast path
    // must handle gap-bearing windows identically.
    const Program program = makeBranchyProgram(60);
    pmu::PtFilter filter; // empty: admits nothing until ranges are added
    for (const asmkit::Function &fn : program.functions()) {
        if (fn.name == "main" || fn.name == "worker")
            filter.addRange(fn.begin, fn.end);
    }
    const Fixture fx(program, 5, filter, 9);
    bool has_gap = false;
    for (const auto &[tid, path] : fx.paths)
        for (const uint32_t idx : path.insns)
            has_gap = has_gap || idx == pmu::kPathGap;
    ASSERT_TRUE(has_gap) << "filter produced no path gaps";
    expectIdenticalReplay(program, fx);
}

// ---------------------------------------------------------------------
// Detector prefilter: byte-identical reports, serial and parallel.
// ---------------------------------------------------------------------

TEST(Prefilter, ReportsIdenticalOnOracleBattery)
{
    const auto battery =
        oracle::standardBattery(testutil::testSeed(501), 3);
    for (const oracle::GeneratorConfig &cfg : battery) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc =
            core::proRaceConfig(40, 17, gw.workload.pt_filter);
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);

        for (const unsigned jobs : {0u, 2u}) {
            core::OfflineOptions on = pc.offline;
            on.num_threads = jobs;
            on.static_prefilter = true;
            core::OfflineOptions off = on;
            off.static_prefilter = false;

            core::OfflineAnalyzer a_on(*gw.workload.program, on);
            core::OfflineResult r_on = a_on.analyze(run.trace);
            core::OfflineAnalyzer a_off(*gw.workload.program, off);
            core::OfflineResult r_off = a_off.analyze(run.trace);

            EXPECT_EQ(oracle::reportPairs(r_on.report),
                      oracle::reportPairs(r_off.report))
                << gw.workload.name << " jobs=" << jobs;
            EXPECT_TRUE(r_on.prefilter.enabled);
            EXPECT_GT(r_on.prefilter.pruned(), 0u) << gw.workload.name;
            EXPECT_LE(r_on.prefilter.pruned(),
                      r_on.prefilter.events_seen);
            EXPECT_FALSE(r_off.prefilter.enabled);
            EXPECT_EQ(r_off.prefilter.pruned(), 0u);
            // Pre-filter event counts must match: the pipelines only
            // diverge after reconstruction.
            EXPECT_EQ(r_on.extended_trace_events,
                      r_off.extended_trace_events);
        }
    }
}

TEST(Prefilter, DisabledForUnsoundPrograms)
{
    // A program that leaks a stack pointer: analysis demotes every
    // site, the prefilter reports itself off, and nothing is pruned.
    ProgramBuilder b;
    b.global("leak", 8);
    b.label("main");
    b.movrr(Reg::rbp, Reg::rsp);
    b.store(b.symRef("leak"), Reg::rbp);
    b.push(Reg::rax);
    b.pop(Reg::rbx);
    b.halt();
    const Program program = b.build();

    core::PipelineConfig pc =
        core::proRaceConfig(2, 5, pmu::PtFilter::all());
    core::RunArtifacts run = core::Session::run(
        program, [](vm::Machine &m) { m.addThread("main"); },
        pc.session);
    core::OfflineAnalyzer analyzer(program, pc.offline);
    core::OfflineResult result = analyzer.analyze(run.trace);
    EXPECT_FALSE(result.prefilter.enabled);
    EXPECT_FALSE(result.prefilter.analysis_sound);
    EXPECT_EQ(result.prefilter.pruned(), 0u);
}

} // namespace
} // namespace prorace::analysis
