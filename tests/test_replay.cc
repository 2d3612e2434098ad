/**
 * @file
 * Tests for the offline reconstruction pipeline: alignment, forward and
 * backward replay, and end-to-end race detection.
 *
 * The central property: every reconstructed access must be *correct* —
 * it must match the oracle access the machine actually performed at
 * that exact path position.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_set>

#include "core/offline.hh"
#include "core/session.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "testutil.hh"

namespace prorace::replay {
namespace {

using testutil::makeBranchyProgram;
using isa::AluOp;
using isa::CondCode;
using isa::MemOperand;
using isa::Reg;

/** Everything a reconstruction test needs from one traced run. */
struct Fixture {
    vm::MachineConfig mcfg;
    driver::TraceConfig tcfg;
    trace::RunTrace trace;
    std::map<std::pair<uint32_t, uint64_t>,
             std::vector<vm::MemoryLogEntry>> oracle; ///< (tid,pos) -> accs
    std::map<uint32_t, pmu::ThreadPath> paths;
    std::map<uint32_t, ThreadAlignment> alignments;
    AlignStats align_stats;

    Fixture(const asmkit::Program &program, uint64_t period,
            uint64_t seed = 3)
    {
        mcfg.seed = seed;
        mcfg.record_memory_log = true;
        tcfg.pebs_period = period;
        tcfg.seed = seed + 100;

        vm::Machine machine(program, mcfg);
        driver::TracingSession tracing(tcfg, mcfg.num_cores);
        machine.setObserver(&tracing);
        machine.addThread("main");
        machine.run();
        trace = tracing.finish();
        for (uint32_t tid = 0; tid < machine.numThreads(); ++tid)
            trace.meta.threads.push_back({tid, machine.thread(tid).entry_ip});
        for (const auto &e : machine.memoryLog())
            oracle[{e.tid, e.retire_index}].push_back(e);

        paths = pmu::decodePt(program, pmu::PtFilter::all(), trace);
        alignments = alignTrace(program, paths, trace, &align_stats);
    }
};

/** Assert every access matches the oracle at its claimed position. */
void
verifyAgainstOracle(const Fixture &fx,
                    const std::vector<ReconstructedAccess> &accesses)
{
    for (const auto &acc : accesses) {
        auto it = fx.oracle.find({acc.tid, acc.position});
        ASSERT_NE(it, fx.oracle.end())
            << "no oracle access at tid " << acc.tid << " pos "
            << acc.position << " insn #" << acc.insn_index << " ("
            << detect::accessOriginName(acc.origin) << ")";
        bool matched = false;
        for (const auto &e : it->second) {
            if (e.insn_index == acc.insn_index && e.addr == acc.addr &&
                e.is_write == acc.is_write && e.width == acc.width) {
                matched = true;
            }
        }
        EXPECT_TRUE(matched)
            << "reconstructed access mismatches oracle: tid " << acc.tid
            << " pos " << acc.position << " insn #" << acc.insn_index
            << " addr 0x" << std::hex << acc.addr << std::dec << " ("
            << detect::accessOriginName(acc.origin) << ")";
    }
}

TEST(Align, SamplesLandOnCorrectPathPositions)
{
    asmkit::Program program = makeBranchyProgram(120);
    Fixture fx(program, 7);
    ASSERT_GT(fx.align_stats.samples_matched, 20u);
    // Matching is near-total (tight loops plus anchors plus register
    // verification).
    EXPECT_LT(fx.align_stats.samples_unmatched,
              fx.align_stats.samples_matched / 10 + 2);

    for (const auto &[tid, align] : fx.alignments) {
        const auto &path = fx.paths.at(tid);
        for (const AlignedSample &s : align.samples) {
            const trace::PebsRecord &rec = fx.trace.pebs[s.record_index];
            ASSERT_LT(s.position, path.insns.size());
            EXPECT_EQ(path.insns[s.position], rec.insn_index);
            // The oracle access at this exact position must match the
            // record's address: the match is position-exact, not merely
            // instruction-exact.
            auto it = fx.oracle.find({tid, s.position});
            ASSERT_NE(it, fx.oracle.end());
            bool ok = false;
            for (const auto &e : it->second)
                ok |= e.addr == rec.addr && e.is_write == rec.is_write;
            EXPECT_TRUE(ok) << "sample matched to wrong loop iteration";
        }
    }
}

TEST(Align, TscInterpolationIsMonotone)
{
    asmkit::Program program = makeBranchyProgram(80);
    Fixture fx(program, 13);
    for (const auto &[tid, align] : fx.alignments) {
        uint64_t last = 0;
        const auto &path = fx.paths.at(tid);
        for (uint64_t pos = 0; pos < path.insns.size();
             pos += 1 + path.insns.size() / 200) {
            const uint64_t t = align.tscAt(pos);
            EXPECT_GE(t, last);
            last = t;
        }
    }
}

TEST(Replayer, ReconstructionMatchesOracleExactly)
{
    asmkit::Program program = makeBranchyProgram(150);
    for (uint64_t seed : testutil::testSeeds({3ull, 11ull, 29ull})) {
        PRORACE_SEED_TRACE(seed);
        Fixture fx(program, 23, seed);
        Replayer replayer(program, {});
        auto accesses = replayer.replayAll(fx.paths, fx.alignments,
                                           fx.trace);
        ASSERT_GT(accesses.size(), 100u);
        verifyAgainstOracle(fx, accesses);
    }
}

TEST(Replayer, RecoveryRatioIsSubstantial)
{
    asmkit::Program program = makeBranchyProgram(200);
    Fixture fx(program, 50);
    Replayer replayer(program, {});
    auto accesses = replayer.replayAll(fx.paths, fx.alignments, fx.trace);
    (void)accesses;
    const ReplayStats &st = replayer.stats();
    ASSERT_GT(st.sampled, 10u);
    EXPECT_GT(st.recoveryRatio(), 10.0)
        << "forward+backward replay should multiply coverage";
}

TEST(Replayer, ModesFormAStrictHierarchy)
{
    asmkit::Program program = makeBranchyProgram(200);
    Fixture fx(program, 50);

    auto run_mode = [&](ReplayMode mode) {
        ReplayConfig cfg;
        cfg.mode = mode;
        Replayer replayer(program, cfg);
        auto accesses = replayer.replayAll(fx.paths, fx.alignments,
                                           fx.trace);
        // Basic-block mode uses block-relative positions, so the
        // position-exact oracle check only applies to the PT modes.
        if (mode != ReplayMode::kBasicBlock)
            verifyAgainstOracle(fx, accesses);
        return replayer.stats().totalAccesses();
    };

    const uint64_t bb = run_mode(ReplayMode::kBasicBlock);
    const uint64_t fwd = run_mode(ReplayMode::kForwardOnly);
    const uint64_t both = run_mode(ReplayMode::kForwardBackward);
    EXPECT_GT(fwd, bb) << "PT-guided forward replay beats basic-block";
    EXPECT_GE(both, fwd);
    EXPECT_GT(both, bb * 2);
}

TEST(Replayer, BackwardReplayRecoversPointerChase)
{
    // The paper's Fig. 5 situation: a pointer loaded from (unavailable)
    // memory is dereferenced; forward replay cannot compute the second
    // address, but the next sample's registers restore it backwards.
    asmkit::ProgramBuilder b;
    b.global("slots", 64 * 8);
    b.globalU64("sink", 0);
    b.label("main");
    b.movri(Reg::rcx, 0);
    b.lea(Reg::r15, b.symRef("slots"));
    b.label("loop");
    // rsi = slots[rcx % 8]; rdx = [rsi + 8]  (pointer chase)
    b.movrr(Reg::rax, Reg::rcx);
    b.aluri(AluOp::kAnd, Reg::rax, 7);
    b.load(Reg::rsi, MemOperand::baseIndex(Reg::r15, Reg::rax, 8)); // A
    b.load(Reg::rdx, MemOperand::baseDisp(Reg::rsi, 8));            // B
    b.store(b.symRef("sink"), Reg::rdx);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 4000);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    asmkit::Program program = b.build();

    // Initialize slots with self-referential pointers so load B has a
    // meaningful address.
    vm::MachineConfig mcfg;
    mcfg.seed = 7;
    mcfg.record_memory_log = true;
    driver::TraceConfig tcfg;
    tcfg.pebs_period = 101;

    vm::Machine machine(program, mcfg);
    const uint64_t slots = program.symbol("slots").addr;
    for (int i = 0; i < 8; ++i)
        machine.memory().write(slots + 8 * i, slots + 256 + 32 * i, 8);
    driver::TracingSession tracing(tcfg, mcfg.num_cores);
    machine.setObserver(&tracing);
    machine.addThread("main");
    machine.run();
    trace::RunTrace trace = tracing.finish();
    trace.meta.threads.push_back({0, machine.thread(0).entry_ip});

    auto paths = pmu::decodePt(program, pmu::PtFilter::all(), trace);
    auto alignments = alignTrace(program, paths, trace);

    auto count_b = [&](ReplayMode mode) {
        ReplayConfig cfg;
        cfg.mode = mode;
        Replayer replayer(program, cfg);
        auto accesses = replayer.replayAll(paths, alignments, trace);
        const uint32_t insn_b = 5; // load B above (0-based emission order)
        uint64_t n = 0;
        for (const auto &a : accesses) {
            if (a.insn_index == insn_b &&
                a.origin == detect::AccessOrigin::kBackward) {
                ++n;
            }
        }
        return n;
    };

    EXPECT_EQ(count_b(ReplayMode::kForwardOnly), 0u);
    EXPECT_GT(count_b(ReplayMode::kForwardBackward), 10u)
        << "backward propagation must restore the chased pointer";

    // And all reconstructed addresses must still be correct.
    std::map<std::pair<uint32_t, uint64_t>,
             std::vector<vm::MemoryLogEntry>> oracle;
    for (const auto &e : machine.memoryLog())
        oracle[{e.tid, e.retire_index}].push_back(e);
    ReplayConfig cfg;
    Replayer replayer(program, cfg);
    auto accesses = replayer.replayAll(paths, alignments, trace);
    for (const auto &acc : accesses) {
        auto it = oracle.find({acc.tid, acc.position});
        ASSERT_NE(it, oracle.end());
        bool matched = false;
        for (const auto &e : it->second) {
            matched |= e.insn_index == acc.insn_index &&
                e.addr == acc.addr && e.is_write == acc.is_write;
        }
        EXPECT_TRUE(matched) << "backward-recovered address is wrong at "
                             << acc.position;
    }
}

TEST(Replayer, PcRelativeRecoveredWithoutAnySample)
{
    // PC-relative accesses need only the PT path (paper §7.4): even with
    // (almost) no samples the extended trace contains them.
    asmkit::ProgramBuilder b;
    b.globalU64("flag", 0);
    b.label("main");
    b.movri(Reg::rcx, 0);
    b.label("loop");
    b.load(Reg::rax, b.symRef("flag"));   // pc-relative load
    b.addri(Reg::rax, 1);
    b.store(b.symRef("flag"), Reg::rax);  // pc-relative store
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 500);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    asmkit::Program program = b.build();

    vm::MachineConfig mcfg;
    mcfg.seed = 5;
    driver::TraceConfig tcfg;
    tcfg.pebs_period = 1'000'000; // effectively no samples

    vm::Machine machine(program, mcfg);
    driver::TracingSession tracing(tcfg, mcfg.num_cores);
    machine.setObserver(&tracing);
    machine.addThread("main");
    machine.run();
    trace::RunTrace trace = tracing.finish();
    trace.meta.threads.push_back({0, machine.thread(0).entry_ip});

    auto paths = pmu::decodePt(program, pmu::PtFilter::all(), trace);
    auto alignments = alignTrace(program, paths, trace);
    Replayer replayer(program, {});
    auto accesses = replayer.replayAll(paths, alignments, trace);

    uint64_t pcrel = 0;
    for (const auto &a : accesses)
        pcrel += a.origin == detect::AccessOrigin::kPcRelative;
    EXPECT_GE(pcrel, 1000u) << "one load + one store per iteration";
}

/** Field-wise equality of two extended traces. */
void
expectSameTrace(const std::vector<ReconstructedAccess> &a,
                const std::vector<ReconstructedAccess> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tid, b[i].tid) << "access " << i;
        EXPECT_EQ(a[i].position, b[i].position) << "access " << i;
        EXPECT_EQ(a[i].insn_index, b[i].insn_index) << "access " << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << "access " << i;
        EXPECT_EQ(a[i].width, b[i].width) << "access " << i;
        EXPECT_EQ(a[i].is_write, b[i].is_write) << "access " << i;
        EXPECT_EQ(a[i].is_atomic, b[i].is_atomic) << "access " << i;
        EXPECT_EQ(a[i].tsc, b[i].tsc) << "access " << i;
        EXPECT_EQ(a[i].origin, b[i].origin) << "access " << i;
    }
}

/**
 * The extended trace assembled the way the parallel analyzer builds it:
 * every window on its own fresh replayer, samples appended per thread.
 */
std::vector<ReconstructedAccess>
replayWindowByWindow(const asmkit::Program &program, const ReplayConfig &cfg,
                     const Fixture &fx, ReplayStats &stats,
                     std::unordered_set<uint64_t> &consumed)
{
    std::vector<ReconstructedAccess> out;
    Replayer samples(program, cfg);
    const auto unmatched = Replayer::unmatchedSamples(fx.alignments,
                                                      fx.trace);
    for (const auto &[tid, path] : fx.paths) {
        const ThreadAlignment &alignment = fx.alignments.at(tid);
        const auto sync_at = Replayer::syncAtMap(alignment, fx.trace);
        for (const Replayer::Window &w :
             Replayer::buildWindows(path, alignment, fx.trace, sync_at)) {
            Replayer fresh(program, cfg);
            const size_t first = out.size();
            fresh.replayWindow(w, path, alignment, out);
            // A window appends in position order, inside its range.
            for (size_t i = first; i < out.size(); ++i) {
                EXPECT_GE(out[i].position, w.start);
                EXPECT_LT(out[i].position, w.end);
                if (i > first) {
                    EXPECT_LE(out[i - 1].position, out[i].position);
                }
            }
            stats.merge(fresh.stats());
            const auto c = fresh.consumedAddresses();
            consumed.insert(c.begin(), c.end());
        }
        if (auto u = unmatched.find(tid); u != unmatched.end())
            samples.appendSamples(u->second, fx.trace, out);
    }
    samples.appendPathlessSamples(fx.paths, fx.trace, out);
    Replayer::sortByTsc(out);
    stats.merge(samples.stats());
    return out;
}

/**
 * A loop that spills to the stack and to a global and reloads both, so
 * forward replay consumes emulated memory in every window.
 */
asmkit::Program
makeSpillProgram(int iterations)
{
    asmkit::ProgramBuilder b;
    b.globalU64("sink", 0);
    b.label("main");
    b.movri(Reg::rcx, 0);
    b.label("loop");
    b.push(Reg::rcx);
    b.addri(Reg::rcx, 1);
    b.pop(Reg::rax);                     // reloads the pushed value
    b.store(b.symRef("sink"), Reg::rax);
    b.load(Reg::rdx, b.symRef("sink"));  // reloads the stored value
    b.alurr(AluOp::kAdd, Reg::rdx, Reg::rcx);
    b.cmpri(Reg::rcx, iterations);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    return b.build();
}

TEST(Replayer, ReusedScratchMatchesAFreshReplayerPerWindow)
{
    // One replayer carries its ProgramMap, emit buffer and fact lists
    // from window to window (and from run to run); replaying every
    // window on its own fresh replayer must give the same trace, the
    // same counters and the same consumed set.
    asmkit::Program program = makeSpillProgram(600);
    Fixture fx(program, 23);

    const ReplayConfig cfg;
    Replayer reused(program, cfg);
    const auto first = reused.replayAll(fx.paths, fx.alignments, fx.trace);
    ASSERT_GT(reused.stats().windows, 20u);
    const auto consumed = reused.consumedAddresses();
    ASSERT_FALSE(consumed.empty());

    ReplayStats fresh_stats;
    std::unordered_set<uint64_t> fresh_consumed;
    expectSameTrace(first, replayWindowByWindow(program, cfg, fx,
                                                fresh_stats,
                                                fresh_consumed));
    EXPECT_EQ(consumed, fresh_consumed);
    EXPECT_EQ(reused.stats().totalAccesses(), fresh_stats.totalAccesses());
    EXPECT_EQ(reused.stats().recovered_backward,
              fresh_stats.recovered_backward);
    EXPECT_EQ(reused.stats().backward_rounds, fresh_stats.backward_rounds);
    EXPECT_EQ(reused.stats().inconsistent_windows,
              fresh_stats.inconsistent_windows);
    // A warm map allocates far fewer shadow pages than one per window.
    EXPECT_LT(reused.stats().program_map.pages_allocated,
              fresh_stats.program_map.pages_allocated);

    // A second run on the warm replayer leaves no residue.
    expectSameTrace(first,
                    reused.replayAll(fx.paths, fx.alignments, fx.trace));
    EXPECT_EQ(reused.consumedAddresses(), consumed);
}

TEST(Replayer, BlacklistHoldsAcrossReusedPasses)
{
    // The blacklist is applied once per replayer and must veto every
    // later pass: a blacklisted byte is never consumed, and the result
    // matches a fresh replayer per window.
    asmkit::Program program = makeSpillProgram(600);
    Fixture fx(program, 23);
    Replayer probe(program, {});
    probe.replayAll(fx.paths, fx.alignments, fx.trace);
    std::vector<uint64_t> granules;
    for (const uint64_t a : probe.consumedAddresses())
        granules.push_back(a & ~7ull);
    ASSERT_FALSE(granules.empty());
    std::sort(granules.begin(), granules.end());
    granules.erase(std::unique(granules.begin(), granules.end()),
                   granules.end());

    ReplayConfig cfg;
    for (size_t i = 0; i < granules.size(); i += 2)
        cfg.mem_blacklist.emplace_back(granules[i], 8);
    Replayer replayer(program, cfg);
    const auto trace = replayer.replayAll(fx.paths, fx.alignments, fx.trace);
    verifyAgainstOracle(fx, trace);
    const auto consumed = replayer.consumedAddresses();
    for (const uint64_t a : consumed) {
        for (const auto &[lo, size] : cfg.mem_blacklist)
            EXPECT_FALSE(a >= lo && a < lo + size)
                << "blacklisted byte 0x" << std::hex << a << " consumed";
    }

    ReplayStats fresh_stats;
    std::unordered_set<uint64_t> fresh_consumed;
    expectSameTrace(trace, replayWindowByWindow(program, cfg, fx,
                                                fresh_stats,
                                                fresh_consumed));
    EXPECT_EQ(consumed, fresh_consumed);
}

TEST(Offline, DetectsARealRaceEndToEnd)
{
    // Two workers increment a shared counter without a lock; one worker
    // updates a locked counter too (so there is sync traffic).
    asmkit::ProgramBuilder b;
    b.globalU64("shared", 0);
    b.globalU64("safe", 0);
    b.global("mtx", 8);
    b.label("main");
    b.movri(Reg::r12, 0);
    b.spawn(Reg::r8, "worker", Reg::r12);
    b.spawn(Reg::r9, "worker", Reg::r12);
    b.join(Reg::r8);
    b.join(Reg::r9);
    b.halt();
    b.beginFunction("worker");
    b.movri(Reg::rcx, 0);
    b.label("loop");
    uint32_t racy_load = b.load(Reg::rax, b.symRef("shared"));
    b.addri(Reg::rax, 1);
    uint32_t racy_store = b.store(b.symRef("shared"), Reg::rax);
    b.lock(b.symRef("mtx"));
    b.load(Reg::rbx, b.symRef("safe"));
    b.addri(Reg::rbx, 1);
    b.store(b.symRef("safe"), Reg::rbx);
    b.unlock(b.symRef("mtx"));
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 300);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    asmkit::Program program = b.build();

    core::SessionOptions opt;
    opt.machine.seed = 9;
    opt.run_baseline = false;
    opt.tracing.pebs_period = 100;
    core::RunArtifacts run = core::Session::run(
        program, [](vm::Machine &m) { m.addThread("main"); }, opt);

    core::OfflineAnalyzer analyzer(program, {});
    core::OfflineResult result = analyzer.analyze(run.trace);

    EXPECT_FALSE(result.report.empty()) << "the race must be detected";
    const uint64_t shared = program.symbol("shared").addr;
    EXPECT_TRUE(result.report.containsAddressRange(shared, 8));
    bool hits_site = result.report.containsInsn(racy_load) ||
        result.report.containsInsn(racy_store);
    EXPECT_TRUE(hits_site) << "report should name the racy instructions";
    // The locked counter must NOT be reported.
    EXPECT_FALSE(result.report.containsAddressRange(
        program.symbol("safe").addr, 8))
        << "lock-protected accesses misreported";
}

TEST(Offline, NoFalsePositivesOnSynchronizedProgram)
{
    // A fully synchronized program must produce an empty report for
    // every seed (FastTrack precision: no false positives).
    asmkit::Program program = makeBranchyProgram(100);
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        core::SessionOptions opt;
        opt.machine.seed = seed;
        opt.run_baseline = false;
        opt.tracing.pebs_period = 20;
        core::RunArtifacts run = core::Session::run(
            program, [](vm::Machine &m) { m.addThread("main"); }, opt);
        core::OfflineAnalyzer analyzer(program, {});
        core::OfflineResult result = analyzer.analyze(run.trace);
        EXPECT_TRUE(result.report.empty())
            << "false positive with seed " << seed << ":\n"
            << result.report.format(&program);
    }
}

TEST(Offline, TimingBreakdownIsPopulated)
{
    asmkit::Program program = makeBranchyProgram(150);
    core::SessionOptions opt;
    opt.machine.seed = 4;
    opt.run_baseline = false;
    opt.tracing.pebs_period = 30;
    core::RunArtifacts run = core::Session::run(
        program, [](vm::Machine &m) { m.addThread("main"); }, opt);
    core::OfflineAnalyzer analyzer(program, {});
    core::OfflineResult result = analyzer.analyze(run.trace);
    EXPECT_GT(result.decode_stats.packets, 0u);
    EXPECT_GT(result.extended_trace_events, 0u);
    EXPECT_GT(result.totalSeconds(), 0.0);
    EXPECT_GT(result.detect_stats.reads + result.detect_stats.writes, 0u);
}

} // namespace
} // namespace prorace::replay
