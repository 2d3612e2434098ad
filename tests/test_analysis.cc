/**
 * @file
 * Tests for the static binary-analysis subsystem (src/analysis): CFG
 * recovery edge cases, dataflow fixpoints, escape-analysis soundness
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
#include "replay/static_info.hh"
#include "support/rng.hh"
#include "testutil.hh"
#include "workload/registry.hh"

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
// Per-instruction facts: the table must agree with the replay layer's
// historical definitions (now forwarding wrappers) on every insn.
// ---------------------------------------------------------------------

TEST(InsnFacts, TableMatchesReplayStaticInfo)
{
    const Program program = makeBranchyProgram(10);
    const ProgramAnalysis pa(program);
    for (uint32_t i = 0; i < program.size(); ++i) {
        const isa::Insn &insn = program.insnAt(i);
        const InsnFacts &f = pa.facts(i);
        EXPECT_EQ(f.kill, replay::regWriteMask(insn)) << "insn " << i;
        EXPECT_EQ(f.mem_ops, replay::memOpCount(insn)) << "insn " << i;
        EXPECT_EQ(f.uses, regReadMask(insn)) << "insn " << i;
        // Invertible registers are written registers; learned registers
        // are, by definition, *not* written.
        EXPECT_EQ(f.invertible & ~f.kill, 0) << "insn " << i;
        EXPECT_EQ(f.learns & f.kill, 0) << "insn " << i;
    }
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
    // Dataflow must treat the ragged end conservatively: everything
    // potentially live out, so nothing is wrongly proved dead.
    const ProgramAnalysis pa(program);
    EXPECT_EQ(pa.dataflow().block(last).live_out, 0xffff);
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
// Dataflow
// ---------------------------------------------------------------------

TEST(Dataflow, BlockKillIsUnionOfInsnKills)
{
    const Program program = makeBranchyProgram(10);
    const ProgramAnalysis pa(program);
    for (uint32_t b = 0; b < pa.cfg().numBlocks(); ++b) {
        uint16_t expect = 0;
        uint32_t mem = 0;
        for (uint32_t i = program.blockBegin(b); i < program.blockEnd(b);
             ++i) {
            expect |= pa.facts(i).kill;
            mem += pa.facts(i).mem_ops;
        }
        EXPECT_EQ(pa.blockKill(b), expect) << "block " << b;
        EXPECT_EQ(pa.dataflow().block(b).mem_ops, mem) << "block " << b;
    }
}

TEST(Dataflow, LivenessOnDiamond)
{
    ProgramBuilder b;
    b.global("out", 8);
    b.label("main");
    b.movri(Reg::rax, 1);
    b.cmpri(Reg::rax, 0);
    b.jcc(CondCode::kEq, "right");
    b.movrr(Reg::rbx, Reg::rax); // left: reads rax
    b.jmp("join");
    b.label("right");
    b.movri(Reg::rbx, 5); // right: rax dead here
    b.label("join");
    b.store(b.symRef("out"), Reg::rbx);
    b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);

    const uint16_t rax = regBit(Reg::rax);
    const uint16_t rbx = regBit(Reg::rbx);
    // rax is live into the left arm (movrr reads it), not the right.
    bool saw_left = false, saw_right = false, saw_join = false;
    for (uint32_t blk = 0; blk < pa.cfg().numBlocks(); ++blk) {
        const isa::Insn &first = program.insnAt(program.blockBegin(blk));
        const BlockDataflow &df = pa.dataflow().block(blk);
        if (first.op == isa::Op::kMovRR) {
            saw_left = true;
            EXPECT_TRUE(df.live_in & rax);
        } else if (first.op == isa::Op::kMovRI &&
                   first.dst == Reg::rbx) {
            saw_right = true;
            EXPECT_FALSE(df.live_in & rax);
        } else if (first.op == isa::Op::kStore) {
            saw_join = true;
            EXPECT_TRUE(df.live_in & rbx);
        }
    }
    EXPECT_TRUE(saw_left && saw_right && saw_join);
}

TEST(Dataflow, ReachingDefsUniqueAmbiguousExternal)
{
    ProgramBuilder b;
    b.global("out", 8);
    b.label("main");
    const uint32_t def_a = b.movri(Reg::rax, 1); // unique def of rax
    b.movri(Reg::rcx, 0);
    b.cmpri(Reg::rcx, 0);
    b.jcc(CondCode::kEq, "right");
    b.movri(Reg::rbx, 2); // def 1 of rbx
    b.jmp("join");
    b.label("right");
    b.movri(Reg::rbx, 3); // def 2 of rbx
    b.label("join");
    b.store(b.symRef("out"), Reg::rbx);
    b.halt();
    const Program program = b.build();
    const ProgramAnalysis pa(program);

    // At the join block: rax has the unique entry def, rbx is
    // ambiguous (two arms), and at the entry block everything is
    // external (thread entry).
    const unsigned ax = isa::gprIndex(Reg::rax);
    const unsigned bx = isa::gprIndex(Reg::rbx);
    const uint32_t entry = program.blockOf(0);
    EXPECT_EQ(pa.dataflow().block(entry).reach_in[ax].kind,
              ReachingDef::kExternal);
    bool saw_join = false;
    for (uint32_t blk = 0; blk < pa.cfg().numBlocks(); ++blk) {
        if (program.insnAt(program.blockBegin(blk)).op != isa::Op::kStore)
            continue;
        saw_join = true;
        const BlockDataflow &df = pa.dataflow().block(blk);
        EXPECT_EQ(df.reach_in[ax].kind, ReachingDef::kUnique);
        EXPECT_EQ(df.reach_in[ax].insn, def_a);
        EXPECT_EQ(df.reach_in[bx].kind, ReachingDef::kAmbiguous);
    }
    EXPECT_TRUE(saw_join);
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

// ---------------------------------------------------------------------
// Andersen solver: differential against a naive cubic reference that
// implements the documented memory model by brute-force chaotic
// iteration, plus fixpoint algebra (idempotence, monotonicity) and
// cycle-collapse equivalence.
// ---------------------------------------------------------------------

/**
 * A random synthetic constraint system, replayable into both solvers
 * with identical node-id assignment: node 0 is the hidden all-values
 * node (solver ctor), nodes 1..num_objects are the contents of every
 * object (instantiated upfront, in object order), and the remaining
 * extra_nodes are plain variables.
 */
struct SolverScript {
    enum Kind { kSeed, kCopy, kAdjust, kLoad, kStore };
    struct ScriptOp {
        Kind kind;
        uint32_t a; ///< kSeed: node; else: from / addr
        uint32_t b; ///< kSeed: object; else: to / dst / src
    };
    uint32_t num_objects = 0;
    std::vector<uint32_t> code_objs; ///< includes kObjTopCode
    uint32_t extra_nodes = 0;
    std::vector<ScriptOp> ops;

    uint32_t numNodes() const { return 1 + num_objects + extra_nodes; }
};

SolverScript
randomScript(Rng &rng)
{
    SolverScript s;
    s.num_objects = 4 + static_cast<uint32_t>(rng.below(6));
    s.code_objs.push_back(AndersenSolver::kObjTopCode);
    for (uint32_t obj = 2; obj < s.num_objects; ++obj) {
        if (rng.chance(0.25))
            s.code_objs.push_back(obj);
    }
    s.extra_nodes = 3 + static_cast<uint32_t>(rng.below(8));
    const uint32_t nodes = s.numNodes();
    const unsigned n_ops = 8 + static_cast<unsigned>(rng.below(25));
    for (unsigned i = 0; i < n_ops; ++i) {
        SolverScript::ScriptOp op;
        const uint64_t pick = rng.below(10);
        if (pick < 3) {
            op = {SolverScript::kSeed,
                  static_cast<uint32_t>(rng.below(nodes)),
                  static_cast<uint32_t>(rng.below(s.num_objects))};
        } else {
            op.kind = pick < 6   ? SolverScript::kCopy
                      : pick < 7 ? SolverScript::kAdjust
                      : pick < 8 ? SolverScript::kLoad
                                 : SolverScript::kStore;
            op.a = static_cast<uint32_t>(rng.below(nodes));
            op.b = static_cast<uint32_t>(rng.below(nodes));
        }
        s.ops.push_back(op);
    }
    return s;
}

/** Replay @p s into a real solver (constructed by the caller). */
void
applyScript(const SolverScript &s, AndersenSolver &solver)
{
    ObjSet code(s.num_objects);
    for (const uint32_t obj : s.code_objs)
        code.set(obj);
    solver.setCodeObjects(code);
    for (uint32_t obj = 0; obj < s.num_objects; ++obj)
        ASSERT_EQ(solver.contents(obj), obj + 1);
    for (uint32_t n = 0; n < s.extra_nodes; ++n)
        solver.addNode();
    for (const SolverScript::ScriptOp &op : s.ops) {
        switch (op.kind) {
          case SolverScript::kSeed: solver.seed(op.a, op.b); break;
          case SolverScript::kCopy: solver.copy(op.a, op.b); break;
          case SolverScript::kAdjust: solver.copyAdjust(op.a, op.b); break;
          case SolverScript::kLoad: solver.load(op.a, op.b); break;
          case SolverScript::kStore: solver.store(op.a, op.b); break;
        }
    }
    solver.solve();
}

/**
 * Naive cubic reference: re-applies every constraint until nothing
 * grows. Mirrors the documented built-in memory model — contents fold
 * into the all-values node, loads through ⊤/⊤code/code objects read
 * the all-values node, a store through ⊤/⊤code makes every store's
 * source escape into ⊤'s contents.
 */
struct ReferenceSolver {
    uint32_t num_objects;
    ObjSet code;
    std::vector<ObjSet> sets;
    bool top_store = false;

    explicit ReferenceSolver(const SolverScript &s)
        : num_objects(s.num_objects), code(s.num_objects)
    {
        for (const uint32_t obj : s.code_objs)
            code.set(obj);
        for (uint32_t n = 0; n < s.numNodes(); ++n)
            sets.emplace_back(num_objects);
        sets[0].set(AndersenSolver::kObjTop); // the all-values node
    }

    uint32_t contentsOf(uint32_t obj) const { return obj + 1; }
    bool
    opaque(uint32_t obj) const
    {
        return obj == AndersenSolver::kObjTop ||
            obj == AndersenSolver::kObjTopCode || code.test(obj);
    }

    void
    solve(const SolverScript &s)
    {
        for (const SolverScript::ScriptOp &op : s.ops) {
            if (op.kind == SolverScript::kSeed)
                sets[op.a].set(op.b);
        }
        bool changed = true;
        while (changed) {
            changed = false;
            // Contents of every object fold into all-values.
            for (uint32_t obj = 0; obj < num_objects; ++obj)
                changed |= sets[0].merge(sets[contentsOf(obj)]);
            for (const SolverScript::ScriptOp &op : s.ops) {
                switch (op.kind) {
                  case SolverScript::kSeed:
                    break;
                  case SolverScript::kCopy:
                    changed |= sets[op.b].merge(sets[op.a]);
                    break;
                  case SolverScript::kAdjust: {
                    ObjSet adj = sets[op.a];
                    if (adj.intersects(code))
                        adj.set(AndersenSolver::kObjTopCode);
                    changed |= sets[op.b].merge(adj);
                    break;
                  }
                  case SolverScript::kLoad:
                    for (const uint32_t obj : sets[op.a].toVector()) {
                        changed |= sets[op.b].merge(
                            opaque(obj) ? sets[0]
                                        : sets[contentsOf(obj)]);
                    }
                    break;
                  case SolverScript::kStore:
                    for (const uint32_t obj : sets[op.a].toVector()) {
                        if (obj == AndersenSolver::kObjTop ||
                            obj == AndersenSolver::kObjTopCode) {
                            if (!top_store) {
                                top_store = true;
                                changed = true;
                            }
                        } else {
                            changed |= sets[contentsOf(obj)].merge(
                                sets[op.b]);
                        }
                    }
                    break;
                }
            }
            if (top_store) {
                // Retroactive escape: every store's source is
                // reachable once any store may smear ⊤/⊤code.
                const uint32_t top =
                    contentsOf(AndersenSolver::kObjTop);
                for (const SolverScript::ScriptOp &op : s.ops) {
                    if (op.kind == SolverScript::kStore)
                        changed |= sets[top].merge(sets[op.b]);
                }
            }
        }
    }
};

std::string
objSetStr(const ObjSet &set)
{
    std::string out = "{";
    for (const uint32_t obj : set.toVector())
        out += std::to_string(obj) + ",";
    out += "}";
    return out;
}

TEST(AndersenSolverTest, RandomDifferentialVsNaiveReference)
{
    for (const uint64_t seed : testutil::testSeeds({101, 202})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        for (int trial = 0; trial < 20; ++trial) {
            const SolverScript s = randomScript(rng);
            AndersenSolver fast(s.num_objects, true);
            applyScript(s, fast);
            AndersenSolver plain(s.num_objects, false);
            applyScript(s, plain);
            ReferenceSolver ref(s);
            ref.solve(s);

            EXPECT_EQ(fast.topStoreSeen(), ref.top_store)
                << "trial " << trial;
            EXPECT_EQ(plain.topStoreSeen(), ref.top_store)
                << "trial " << trial;
            for (uint32_t n = 0; n < s.numNodes(); ++n) {
                EXPECT_EQ(objSetStr(fast.pointsTo(n)),
                          objSetStr(ref.sets[n]))
                    << "trial " << trial << " node " << n
                    << " (cycle collapse on)";
                EXPECT_EQ(objSetStr(plain.pointsTo(n)),
                          objSetStr(ref.sets[n]))
                    << "trial " << trial << " node " << n
                    << " (cycle collapse off)";
            }
        }
    }
}

TEST(AndersenSolverTest, SolveIsIdempotent)
{
    Rng rng(testutil::testSeed(303));
    for (int trial = 0; trial < 10; ++trial) {
        const SolverScript s = randomScript(rng);
        AndersenSolver solver(s.num_objects, true);
        applyScript(s, solver);
        std::vector<ObjSet> before;
        for (uint32_t n = 0; n < s.numNodes(); ++n)
            before.push_back(solver.pointsTo(n));
        const bool top_before = solver.topStoreSeen();
        solver.solve();
        EXPECT_EQ(solver.topStoreSeen(), top_before);
        for (uint32_t n = 0; n < s.numNodes(); ++n)
            EXPECT_EQ(solver.pointsTo(n), before[n]) << "node " << n;
    }
}

TEST(AndersenSolverTest, AddedConstraintsGrowSolutionsMonotonically)
{
    Rng rng(testutil::testSeed(404));
    for (int trial = 0; trial < 10; ++trial) {
        const SolverScript s = randomScript(rng);
        AndersenSolver solver(s.num_objects, true);
        applyScript(s, solver);
        std::vector<ObjSet> before;
        for (uint32_t n = 0; n < s.numNodes(); ++n)
            before.push_back(solver.pointsTo(n));

        // Re-open the system with a few extra constraints and re-solve:
        // inclusion constraints only ever grow solutions.
        const uint32_t nodes = s.numNodes();
        for (int extra = 0; extra < 4; ++extra) {
            const uint32_t a = static_cast<uint32_t>(rng.below(nodes));
            const uint32_t b = static_cast<uint32_t>(rng.below(nodes));
            if (rng.chance(0.5))
                solver.seed(a, static_cast<uint32_t>(
                                   rng.below(s.num_objects)));
            else
                solver.copy(a, b);
        }
        solver.solve();
        for (uint32_t n = 0; n < nodes; ++n) {
            ObjSet after = solver.pointsTo(n);
            EXPECT_FALSE(after.merge(before[n]))
                << "node " << n << " lost objects after re-solve";
        }
    }
}

TEST(AndersenSolverTest, CycleCollapsePreservesSolutionAndFires)
{
    // A copy ring with one seeded member: every node on the ring ends
    // up with the seed, the lazy collapse actually triggers, and the
    // collapsed solution equals the collapse-free one.
    AndersenSolver fast(4, true);
    AndersenSolver plain(4, false);
    for (AndersenSolver *s : {&fast, &plain}) {
        const uint32_t a = s->addNode();
        const uint32_t b = s->addNode();
        const uint32_t c = s->addNode();
        const uint32_t d = s->addNode();
        s->seed(a, 2);
        s->copy(a, b);
        s->copy(b, c);
        s->copy(c, a); // closes the ring
        s->copy(c, d);
        s->solve();
        for (const uint32_t n : {a, b, c, d})
            EXPECT_TRUE(s->pointsToObj(n, 2)) << "node " << n;
        EXPECT_FALSE(s->topStoreSeen());
    }
    EXPECT_GT(fast.cyclesCollapsed(), 0u);
    EXPECT_EQ(plain.cyclesCollapsed(), 0u);
    for (uint32_t n = 1; n <= 4; ++n)
        EXPECT_EQ(fast.pointsTo(n), plain.pointsTo(n)) << "node " << n;
}

// ---------------------------------------------------------------------
// Program-level points-to: the three consumers and their gating.
// ---------------------------------------------------------------------

TEST(PointsTo, PtrDispatchConsumersAllLive)
{
    // The heap-heavy dispatch workload exercises all three consumers:
    // a thread-local allocation site, resolvable indirect calls, and
    // immutable global tables.
    const auto w = workload::findWorkload("ptr-dispatch", 0.05);
    ASSERT_TRUE(w.has_value());
    const ProgramAnalysis pa(*w->program, true);
    const PointsTo *pt = pa.pointsTo();
    ASSERT_NE(pt, nullptr);
    const PointsToStats &st = pt->stats();

    EXPECT_TRUE(pt->noHeapForgery());
    EXPECT_FALSE(st.top_store);
    EXPECT_TRUE(pt->heapSound());
    EXPECT_GE(st.thread_local_allocs, 1u);
    EXPECT_GE(st.heap_local_sites, 1u);
    EXPECT_FALSE(pt->threadLocalAllocSites().empty());
    EXPECT_GE(st.immutable_globals, 1u);
    EXPECT_TRUE(pt->anyImmutable());
    EXPECT_GT(st.indirect_sites, 0u);
    EXPECT_EQ(st.resolved_indirect_sites, st.indirect_sites);
    EXPECT_LT(st.fanout_sharp, st.fanout_blunt);

    // The merged classification exposes heap-local sites, and the
    // sharp CFG's indirect fan-out matches the resolved target sets.
    uint32_t heap_local = 0;
    for (uint32_t i = 0; i < w->program->size(); ++i)
        heap_local += pa.siteClass(i) == SiteClass::kHeapLocal;
    EXPECT_EQ(heap_local, st.heap_local_sites);
    EXPECT_FALSE(pt->indirectTargets().empty());
}

TEST(PointsTo, UndereferencedHeapLiteralKeepsHeapSoundness)
{
    // A PRNG-seed-style constant that merely lands in the heap address
    // range must not void heap soundness: nothing dereferences it.
    ProgramBuilder b;
    b.beginFunction("main");
    b.movri(Reg::rax, static_cast<int64_t>(asmkit::kHeapBase + 0x100));
    b.movri(Reg::rcx, 64);
    b.mallocCall(Reg::rbx, Reg::rcx);
    b.storei(MemOperand::baseDisp(Reg::rbx, 0), 7);
    b.freeCall(Reg::rbx);
    b.halt();
    b.endFunction();
    const Program program = b.build();

    const ProgramAnalysis pa(program, true);
    const PointsTo *pt = pa.pointsTo();
    ASSERT_NE(pt, nullptr);
    EXPECT_TRUE(pt->noHeapForgery());
    EXPECT_TRUE(pt->heapSound());
    EXPECT_EQ(pt->stats().thread_local_allocs, 1u);
}

TEST(PointsTo, DereferencedHeapLiteralVoidsHeapSoundness)
{
    // The same constant stored through: now a forged heap pointer is
    // dereferenced, so every heap-locality conclusion must self-degrade
    // (the store could alias any allocation).
    ProgramBuilder b;
    b.beginFunction("main");
    b.movri(Reg::rax, static_cast<int64_t>(asmkit::kHeapBase + 0x100));
    b.movri(Reg::rcx, 64);
    b.mallocCall(Reg::rbx, Reg::rcx);
    b.storei(MemOperand::baseDisp(Reg::rax, 0), 7);
    b.halt();
    b.endFunction();
    const Program program = b.build();

    const ProgramAnalysis pa(program, true);
    const PointsTo *pt = pa.pointsTo();
    ASSERT_NE(pt, nullptr);
    EXPECT_FALSE(pt->noHeapForgery());
    EXPECT_FALSE(pt->heapSound());
    EXPECT_EQ(pt->stats().thread_local_allocs, 0u);
    EXPECT_TRUE(pt->threadLocalAllocSites().empty());
}

TEST(PointsTo, BoundaryPoolsAvoidPhantomTopStore)
{
    // A helper reached only through an indirect call stores through
    // rdi. Its entry block has no enumerable predecessors, so the old
    // blanket-⊤ wiring would have smeared the store and killed both
    // immutability and CFG sharpening; the per-register boundary pools
    // constrain rdi to what the call site actually passed.
    ProgramBuilder b;
    const uint64_t cell_addr = b.global("cell", 8);
    const uint64_t table_addr = b.globalU64("table", 123);
    // main comes first: an immediate of 0 reads as a scalar zero, so a
    // helper at instruction index 0 could not be typed as code.
    b.beginFunction("main");
    b.movLabel(Reg::r8, "helper");
    b.lea(Reg::rdi, b.symRef("cell"));
    b.movri(Reg::rsi, 5);
    b.callind(Reg::r8);
    b.halt();
    b.endFunction();
    b.beginFunction("helper");
    b.store(MemOperand::baseDisp(Reg::rdi, 0), Reg::rsi);
    b.ret();
    b.endFunction();
    const Program program = b.build();

    const ProgramAnalysis pa(program, true);
    const PointsTo *pt = pa.pointsTo();
    ASSERT_NE(pt, nullptr);
    EXPECT_FALSE(pt->stats().top_store);
    // The written global is mutable, the untouched one immutable.
    EXPECT_FALSE(pt->immutableCovers(cell_addr, 8));
    EXPECT_TRUE(pt->immutableCovers(table_addr, 8));
    EXPECT_EQ(pt->constantAt(table_addr, 8), 123u);
    // The indirect call resolves to exactly the taken helper.
    EXPECT_EQ(pt->stats().indirect_sites, 1u);
    EXPECT_EQ(pt->stats().resolved_indirect_sites, 1u);
    ASSERT_EQ(pt->indirectTargets().size(), 1u);
    const auto &[site, targets] = *pt->indirectTargets().begin();
    EXPECT_EQ(program.insnAt(site).op, isa::Op::kCallInd);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0], program.labelAddr("helper"));
}

TEST(PointsTo, ReportsIdenticalOnOracleBattery)
{
    // The end-to-end guarantee: the racy-pair set is byte-identical
    // with the points-to layer on and off, under planted races.
    const auto battery =
        oracle::standardBattery(testutil::testSeed(521), 3);
    for (const oracle::GeneratorConfig &cfg : battery) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc =
            core::proRaceConfig(40, 19, gw.workload.pt_filter);
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);

        for (const unsigned jobs : {0u, 2u}) {
            core::OfflineOptions on = pc.offline;
            on.num_threads = jobs;
            on.static_prefilter = true;
            on.pointsto = true;
            core::OfflineOptions off = on;
            off.pointsto = false;

            core::OfflineAnalyzer a_on(*gw.workload.program, on);
            core::OfflineResult r_on = a_on.analyze(run.trace);
            core::OfflineAnalyzer a_off(*gw.workload.program, off);
            core::OfflineResult r_off = a_off.analyze(run.trace);

            EXPECT_EQ(oracle::reportPairs(r_on.report),
                      oracle::reportPairs(r_off.report))
                << gw.workload.name << " jobs=" << jobs;
            // Points-to off must not recover constants.
            EXPECT_EQ(r_off.replay_stats.recovered_constant, 0u);
            // The heap layer only ever prunes more, never less.
            EXPECT_GE(r_on.prefilter.pruned(),
                      r_off.prefilter.pruned())
                << gw.workload.name;
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
