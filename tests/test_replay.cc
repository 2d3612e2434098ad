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
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/offline.hh"
#include "core/session.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "support/crc32.hh"
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

        paths = pmu::decodePt(program, trace.meta.pt_filter, trace);
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

TEST(Align, TscInterpolationStaysInItsBracket)
{
    // Brackets whose TSC spans reach past 2^53, up to the whole 64-bit
    // range, where the double product can round beyond the span or past
    // 2^64: every interpolated TSC stays within its bracket's anchors.
    const uint64_t kMax = ~uint64_t{0};
    const std::pair<uint64_t, uint64_t> brackets[] = {
        {0, kMax},
        {kMax - (uint64_t{1} << 62), kMax},
        {1, kMax - 1},
        {3, (uint64_t{1} << 60) + 1}, // the span rounds up as a double
        {kMax - (uint64_t{1} << 54) - 3, kMax - 2},
    };
    for (const auto &[lo, hi] : brackets) {
        ThreadAlignment align;
        align.anchors = {{0, lo}, {1000, hi}, {1001, hi}};
        for (uint64_t pos = 0; pos <= 1001; ++pos) {
            const uint64_t t = align.tscAt(pos);
            ASSERT_GE(t, lo) << "bracket " << lo << ".." << hi << " pos "
                             << pos;
            ASSERT_LE(t, hi) << "bracket " << lo << ".." << hi << " pos "
                             << pos;
        }
        EXPECT_EQ(align.tscAt(0), lo);
        EXPECT_EQ(align.tscAt(1000), hi);
    }
    // Below 2^53 the interpolation is exact: the midpoint of an even
    // span lands on it, however high the anchors sit.
    ThreadAlignment small;
    const uint64_t base = kMax - (uint64_t{1} << 52);
    small.anchors = {{0, base}, {2, base + (uint64_t{1} << 50)}};
    EXPECT_EQ(small.tscAt(1), base + (uint64_t{1} << 49));
}

TEST(Align, TscCursorMatchesTheSearch)
{
    // Runs of ascending positions, each with a fresh cursor, starting
    // before, on, between and after anchors (two share a position, two
    // a TSC): the cursor walk gives what the binary search gives.
    ThreadAlignment align;
    align.anchors = {{4, 100}, {10, 160}, {10, 170}, {25, 170}, {40, 400}};
    for (uint64_t start = 0; start <= 45; ++start) {
        size_t cursor = SIZE_MAX;
        for (uint64_t pos = start; pos <= 45; pos += 1 + pos % 3)
            ASSERT_EQ(align.tscAt(pos, cursor), align.tscAt(pos))
                << "start " << start << " pos " << pos;
    }
    size_t cursor = SIZE_MAX;
    EXPECT_EQ(ThreadAlignment().tscAt(7, cursor), 0u);
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

    auto paths = pmu::decodePt(program, trace.meta.pt_filter, trace);
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

    auto paths = pmu::decodePt(program, trace.meta.pt_filter, trace);
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
 * The extended trace assembled from the replay plan with every window
 * on its own fresh replayer and the samples on one more.
 */
std::vector<ReconstructedAccess>
replayWindowByWindow(const asmkit::Program &program, const ReplayConfig &cfg,
                     const Fixture &fx, ReplayStats &stats,
                     std::unordered_set<uint64_t> &consumed)
{
    std::vector<ReconstructedAccess> out;
    Replayer samples(program, cfg);
    const Replayer::Plan plan =
        Replayer::plan(cfg.mode, fx.paths, fx.alignments, fx.trace);
    for (const Replayer::Task &t : plan.tasks) {
        for (size_t u = 0; u < t.windows.size(); ++u) {
            const Replayer::Window &w = t.windows[u];
            Replayer fresh(program, cfg);
            const size_t first = out.size();
            fresh.replayTask(t, u, u + 1, out);
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
        samples.replayTask(t, t.windows.size(), t.units(), out);
    }
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

TEST(Replayer, PlanPlacesEverySampleOnce)
{
    // The plan gives every PEBS record exactly one home: a matched
    // sample opens one window, and every other sample is a sample unit.
    // RaceZ uses no PT, so in basic-block mode the plan has no windows,
    // its sample units are the whole trace in record order, and
    // replayAll ignores any paths it is handed.
    asmkit::Program program = makeSpillProgram(600);
    Fixture fx(program, 23);
    ASSERT_GT(fx.trace.pebs.size(), 20u);

    const Replayer::Plan pt = Replayer::plan(
        ReplayMode::kForwardBackward, fx.paths, fx.alignments, fx.trace);
    std::vector<int> homes(fx.trace.pebs.size());
    size_t windows = 0;
    for (const Replayer::Task &t : pt.tasks) {
        ASSERT_TRUE(t.windows.empty() || t.samples.empty());
        windows += t.windows.size();
        for (const Replayer::Window &w : t.windows) {
            if (w.s1)
                ++homes[w.s1 - fx.trace.pebs.data()];
        }
        for (const trace::PebsRecord *rec : t.samples)
            ++homes[rec - fx.trace.pebs.data()];
    }
    EXPECT_GT(windows, 20u);
    for (size_t i = 0; i < homes.size(); ++i)
        EXPECT_EQ(homes[i], 1) << "record " << i;

    const Replayer::Plan bb = Replayer::plan(
        ReplayMode::kBasicBlock, fx.paths, fx.alignments, fx.trace);
    std::vector<const trace::PebsRecord *> order;
    for (const Replayer::Task &t : bb.tasks) {
        EXPECT_TRUE(t.windows.empty());
        order.insert(order.end(), t.samples.begin(), t.samples.end());
    }
    ASSERT_EQ(order.size(), fx.trace.pebs.size());
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], &fx.trace.pebs[i]);

    ReplayConfig cfg;
    cfg.mode = ReplayMode::kBasicBlock;
    Replayer with_paths(program, cfg);
    Replayer without(program, cfg);
    expectSameTrace(with_paths.replayAll(fx.paths, fx.alignments, fx.trace),
                    without.replayAll({}, {}, fx.trace));
    EXPECT_GT(with_paths.stats().totalAccesses(),
              with_paths.stats().sampled);
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

// --- resumable backward rounds (DESIGN §12.4) ---
//
// A mixed forward pass restarts at the previous pass's last resume
// point at or before its first possibly-new fact. The windows below
// are built by hand; every expected trace and counter was recorded
// with a replayer that ran every pass in full, and forward_steps +
// forward_resumed_steps is that replayer's forward_steps.

/** A hand-built window: its program, path and boundary samples. */
struct HandWindow {
    asmkit::Program program;
    pmu::ThreadPath path;
    trace::PebsRecord s1;
    trace::PebsRecord s2;
};

constexpr uint32_t kGap = pmu::kPathGap;

/** Both boundary register files: rbx, rdi and rsi point at memory. */
void
setBoundaryRegs(HandWindow &hw)
{
    for (trace::PebsRecord *s : {&hw.s1, &hw.s2}) {
        for (unsigned r = 0; r < isa::kNumGprs; ++r)
            s->regs.gpr[r] = 0x100 * (r + 1);
        s->regs.set(Reg::rbx, 0x1000);
        s->regs.set(Reg::rsp, 0x8000);
    }
    hw.s1.addr = 0x1000; // the sampled load at the window start
    hw.s2.regs.set(Reg::rdi, 0x3000);
    hw.s2.regs.set(Reg::rsi, 0x4000);
}

/**
 * Replay @p hw as one window and describe what it emits, one
 * "position:origin:address" item per access.
 */
std::string
replayHand(const HandWindow &hw, ReplayStats &stats)
{
    Replayer replayer(hw.program, ReplayConfig{});
    Replayer::Window w;
    w.end = hw.path.insns.size();
    w.s1 = &hw.s1;
    w.s2 = &hw.s2;
    std::vector<ReconstructedAccess> out;
    replayer.replayWindow(w, hw.path, ThreadAlignment{}, out);
    stats = replayer.stats();
    std::string text;
    for (const ReconstructedAccess &a : out) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%llu:%s:%llx",
                      text.empty() ? "" : " ",
                      static_cast<unsigned long long>(a.position),
                      detect::accessOriginName(a.origin),
                      static_cast<unsigned long long>(a.addr));
        text += buf;
    }
    return text;
}

/** Window A: a drop at position 2, a gap at 3, a load at 4. */
HandWindow
dropThenGap(bool unresolved_store)
{
    asmkit::ProgramBuilder b;
    b.label("main");
    b.load(Reg::rax, MemOperand::baseDisp(Reg::rbx, 0));  // #0 sampled
    b.load(Reg::rcx, MemOperand::baseDisp(Reg::rbx, 16)); // #1 rcx unknown
    if (unresolved_store)
        b.store(MemOperand::baseDisp(Reg::rcx, 0), Reg::rax); // #2
    else
        b.syscall(isa::SyscallNo::kWrite); // #2
    b.load(Reg::rsi, MemOperand::baseDisp(Reg::rdi, 0)); // #3
    b.halt();
    HandWindow hw{b.build()};
    hw.path.insns = {0, 1, 2, kGap, 3};
    setBoundaryRegs(hw);
    return hw;
}

/** Window B: a branch contradiction 2 positions after a syscall. */
HandWindow
violationAfterDrop()
{
    asmkit::ProgramBuilder b;
    b.label("main");
    b.load(Reg::rax, MemOperand::baseDisp(Reg::rbx, 0));  // #0 sampled
    b.syscall(isa::SyscallNo::kWrite);                    // #1
    b.nop();                                              // #2
    b.cmpri(Reg::rbx, 1);                                 // #3
    b.jcc(CondCode::kEq, "main");                         // #4
    b.load(Reg::rsi, MemOperand::baseDisp(Reg::rdi, 0));  // #5
    b.halt();
    HandWindow hw{b.build()};
    hw.path.insns = {0, 1};
    hw.path.insns.insert(hw.path.insns.end(), 68, 2);
    // rbx != 1, yet the path takes the je: a violation at 72.
    for (uint32_t i : {1u, 3u, 4u, 0u, kGap, 5u})
        hw.path.insns.push_back(i);
    setBoundaryRegs(hw);
    return hw;
}

/** Window C: a second round whose facts first differ at 72. */
HandWindow
secondRoundDifference()
{
    asmkit::ProgramBuilder b;
    b.label("main");
    b.load(Reg::rax, MemOperand::baseDisp(Reg::rbx, 0));  // #0 sampled
    b.syscall(isa::SyscallNo::kWrite);                    // #1
    b.load(Reg::rsi, MemOperand::baseDisp(Reg::rdi, 0));  // #2
    b.nop();                                              // #3
    b.movri(Reg::rbp, 0x5000);                            // #4
    b.load(Reg::rdx, MemOperand::baseDisp(Reg::rsi, 0));  // #5
    b.movri(Reg::rbp, 0x6000);                            // #6
    b.halt();
    HandWindow hw{b.build()};
    hw.path.insns = {0, 1, kGap, 2};
    hw.path.insns.insert(hw.path.insns.end(), 66, 3);
    for (uint32_t i : {1u, 4u, 5u, 6u})
        hw.path.insns.push_back(i);
    setBoundaryRegs(hw);
    hw.s2.regs.set(Reg::rbp, 0x6000);
    return hw;
}

/** Window D: hints on both sides of a syscall, and a second round. */
HandWindow
hintsAroundDrop()
{
    asmkit::ProgramBuilder b;
    b.label("main");
    b.load(Reg::rax, MemOperand::baseDisp(Reg::rbx, 0));  // #0 sampled
    b.load(Reg::rcx, MemOperand::baseDisp(Reg::rbx, 16)); // #1 rcx unknown
    b.load(Reg::rdx, MemOperand::baseDisp(Reg::rcx, 0));  // #2 hint
    b.syscall(isa::SyscallNo::kWrite);                    // #3
    b.load(Reg::r8, MemOperand::baseDisp(Reg::rcx, 8));   // #4 hint
    b.load(Reg::rsi, MemOperand::baseDisp(Reg::rdi, 0));  // #5
    b.load(Reg::r9, MemOperand::baseDisp(Reg::r10, 0));   // #6
    b.movri(Reg::r10, 5);                                 // #7
    b.halt();
    HandWindow hw{b.build()};
    hw.path.insns = {0, 1, 2, 3, 4, kGap, 5, 6, 7};
    setBoundaryRegs(hw);
    hw.s2.regs.set(Reg::r10, 5);
    return hw;
}

/**
 * A window generated from @p seed: a random straight-line program over
 * six registers and a path through it with jumps, gaps, drops and
 * branch contradictions, boundary registers drawn from a few nearby
 * addresses so that emulated memory hits. Every draw is sequenced, so
 * a seed names one window on every compiler.
 */
HandWindow
generatedWindow(uint64_t seed, int &max_rounds, bool &has_s1)
{
    std::mt19937_64 rng(seed);
    auto draw = [&rng](uint64_t n) { return rng() % n; };
    static const Reg kRegs[] = {Reg::rax, Reg::rbx, Reg::rcx,
                                Reg::rdx, Reg::rsi, Reg::rdi};
    auto reg = [&] { return kRegs[draw(6)]; };
    auto addr = [&] { return static_cast<int64_t>(0x1000 + 8 * draw(6)); };
    auto mem = [&] {
        const Reg base = reg();
        const auto disp = static_cast<int32_t>(8 * draw(3));
        return MemOperand::baseDisp(base, disp);
    };
    asmkit::ProgramBuilder b;
    b.label("main");
    const uint64_t n = 12 + draw(20);
    for (uint64_t i = 0; i < n; ++i) {
        const Reg r = reg();
        switch (draw(16)) {
          case 0: b.movri(r, addr()); break;
          case 1: b.movrr(r, reg()); break;
          case 2: b.aluri(AluOp::kAdd, r, static_cast<int64_t>(8 * draw(3)));
                  break;
          case 3: b.alurr(AluOp::kXor, r, reg()); break;
          case 4: b.lea(r, mem()); break;
          case 5: case 6: b.load(r, mem()); break;
          case 7: case 8: b.store(mem(), r); break;
          case 9: b.cmpri(r, addr()); break;
          case 10: b.jcc(CondCode::kEq, "main"); break;
          case 11: b.syscall(isa::SyscallNo::kWrite); break;
          case 12: b.push(r); break;
          case 13: b.pop(r); break;
          case 14: b.cmprr(r, reg()); break;
          default: b.nop(); break;
        }
    }
    b.halt();
    HandWindow hw{b.build()};
    const auto body = static_cast<uint32_t>(hw.program.size() - 1);
    const uint64_t len = 100 + draw(400);
    auto idx = static_cast<uint32_t>(draw(body));
    for (uint64_t p = 0; p < len; ++p) {
        if (draw(200) == 0) {
            hw.path.insns.push_back(kGap);
            idx = static_cast<uint32_t>(draw(body));
            continue;
        }
        hw.path.insns.push_back(idx);
        const isa::Insn &insn = hw.program.insnAt(idx);
        if (insn.op == isa::Op::kJcc && draw(2))
            idx = insn.target;
        else if (draw(8) == 0)
            idx = static_cast<uint32_t>(draw(body));
        else
            idx = (idx + 1) % body;
    }
    for (unsigned g = 0; g < isa::kNumGprs; ++g) {
        hw.s1.regs.gpr[g] = static_cast<uint64_t>(addr());
        hw.s2.regs.gpr[g] = static_cast<uint64_t>(addr());
    }
    hw.s1.regs.set(Reg::rsp, 0x8000);
    hw.s2.regs.set(Reg::rsp, 0x8000 - 8 * draw(3));
    hw.s1.addr = static_cast<uint64_t>(addr());
    max_rounds = 1 + static_cast<int>(draw(4));
    has_s1 = draw(4) != 0 && hw.path.insns[0] != kGap;
    return hw;
}

/**
 * Replay generated window @p seed; its accesses and every replay
 * counter but the ProgramMap's, with forward work counted as if every
 * pass ran in full. Empty when replay rejects the window.
 */
std::string
generatedDigest(uint64_t seed, uint64_t &resumed)
{
    int max_rounds = 0;
    bool has_s1 = false;
    const HandWindow hw = generatedWindow(seed, max_rounds, has_s1);
    ReplayConfig cfg;
    cfg.max_backward_rounds = max_rounds;
    Replayer replayer(hw.program, cfg);
    Replayer::Window w;
    w.end = hw.path.insns.size();
    w.s1 = has_s1 ? &hw.s1 : nullptr;
    w.s2 = &hw.s2;
    std::vector<ReconstructedAccess> out;
    try {
        replayer.replayWindow(w, hw.path, ThreadAlignment{}, out);
    } catch (const std::logic_error &) {
        return {}; // a stack pointer run below zero, say
    }
    const ReplayStats &s = replayer.stats();
    std::string text;
    for (const ReconstructedAccess &a : out) {
        text += std::to_string(a.position) + ':' +
            std::to_string(a.insn_index) + ':' + std::to_string(a.addr) +
            ':' + std::to_string(static_cast<int>(a.origin)) +
            (a.is_write ? "w " : "r ");
    }
    for (const uint64_t v :
         {s.sampled, s.recovered_forward, s.recovered_backward,
          s.inconsistent_windows, s.backward_rounds, s.violations_branch,
          s.violations_fact, s.violations_sample, s.violations_end,
          s.violations_backward, s.forward_steps + s.forward_resumed_steps,
          s.backward_steps}) {
        text += ' ' + std::to_string(v);
    }
    resumed = s.forward_resumed_steps;
    return text;
}

TEST(ReplayResume, FirstRoundResumesAfterAMidWindowDrop)
{
    // Position 2 empties emulated memory (a syscall, or a store whose
    // address is unknown) and the gap at 3 ends what the closing sample
    // tells backwards, so the first backward round's facts start at 4
    // and its mixed pass resumes at 3.
    for (const bool unresolved_store : {false, true}) {
        ReplayStats s;
        EXPECT_EQ(replayHand(dropThenGap(unresolved_store), s),
                  "0:sampled:1000 1:forward-replay:1010 "
                  "4:backward-replay:3000")
            << unresolved_store;
        EXPECT_EQ(s.backward_rounds, 1u);
        EXPECT_EQ(s.forward_steps + s.forward_resumed_steps, 10u);
        EXPECT_EQ(s.forward_resumed_steps, 3u);
    }
}

TEST(ReplayResume, ViolationDropsTheResumePointsItReaches)
{
    // Syscalls at 1 and 70 leave resume points at 2 and 71; the branch
    // contradiction at 72 erases positions 48..72, so it drops the
    // point at 71 and the mixed pass resumes at 2.
    ReplayStats s;
    EXPECT_EQ(replayHand(violationAfterDrop(), s),
              "0:sampled:1000 75:backward-replay:3000");
    EXPECT_EQ(s.backward_rounds, 1u);
    EXPECT_EQ(s.violations_branch, 2u);
    EXPECT_EQ(s.forward_steps + s.forward_resumed_steps, 152u);
    EXPECT_EQ(s.forward_resumed_steps, 2u);
}

TEST(ReplayResume, SecondRoundResumesAtTheFirstFactDifference)
{
    // Round one resumes at 2, after the first syscall. Its mixed pass
    // resolves the load at 72 and so leaves no hint there; without
    // that hint the second round's facts lose rbp at 72, their first
    // difference from the first round's, and the second mixed pass
    // resumes at the point the first one recorded at 71.
    ReplayStats s;
    EXPECT_EQ(replayHand(secondRoundDifference(), s),
              "0:sampled:1000 3:backward-replay:3000 "
              "72:backward-replay:4000");
    EXPECT_EQ(s.backward_rounds, 2u);
    EXPECT_EQ(s.forward_steps + s.forward_resumed_steps, 222u);
    EXPECT_EQ(s.forward_resumed_steps, 2u + 71u);
}

TEST(ReplayResume, HintsBeforeThePointReachTheNextScan)
{
    // The hint at 2 precedes the resume point at 4. The resumed pass
    // keeps it, so the second round's scan derives the same facts as
    // the first and the fixed point stops before a second mixed pass.
    ReplayStats s;
    EXPECT_EQ(replayHand(hintsAroundDrop(), s),
              "0:sampled:1000 1:forward-replay:1010 "
              "6:backward-replay:3000");
    EXPECT_EQ(s.backward_rounds, 2u);
    EXPECT_EQ(s.forward_steps + s.forward_resumed_steps, 18u);
    EXPECT_EQ(s.forward_resumed_steps, 4u);
}

TEST(ReplayResume, GeneratedWindowsKeepTheirDigests)
{
    // 2000 generated windows plus two whose trace a resumed pass that
    // kept a point a later violation reaches would change; one CRC
    // over every window's trace and counters.
    std::vector<uint64_t> seeds;
    for (uint64_t seed = 0; seed < 2000; ++seed)
        seeds.push_back(seed);
    seeds.push_back(2300);
    seeds.push_back(126979);
    std::string all;
    uint64_t resumed = 0;
    size_t rejected = 0;
    for (const uint64_t seed : seeds) {
        uint64_t r = 0;
        const std::string digest = generatedDigest(seed, r);
        rejected += digest.empty();
        resumed += r;
        all += digest + '\n';
        if (seed == 2300 || seed == 126979) {
            EXPECT_EQ(crc32(digest.data(), digest.size()),
                      seed == 2300 ? 0xe5e099c9u : 0x2034cb38u)
                << seed;
        }
    }
    EXPECT_EQ(crc32(all.data(), all.size()), 0xde7964a4u);
    EXPECT_EQ(rejected, 1u);
    EXPECT_GT(resumed, 0u);
}

} // namespace
} // namespace prorace::replay
