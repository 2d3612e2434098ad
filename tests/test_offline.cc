/**
 * @file
 * Tests for the offline pipeline's glue: program map, feed ordering,
 * racy-location regeneration, the end-to-end condvar/barrier HB
 * edges through reconstruction, and the pinned replay baselines of
 * RaceZ and of the two PT modes, report and extended trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/analysis.hh"
#include "asmkit/builder.hh"
#include "baseline/racez.hh"
#include "core/pipeline.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/program_map.hh"
#include "replay/replayer.hh"
#include "support/crc32.hh"
#include "workload/racybugs.hh"
#include "workload/registry.hh"

namespace prorace {
namespace {

using asmkit::Program;
using asmkit::ProgramBuilder;
using isa::AluOp;
using isa::CondCode;
using isa::Reg;

TEST(ProgramMap, RegisterAvailabilityLifecycle)
{
    replay::ProgramMap pm;
    EXPECT_FALSE(pm.regAvailable(Reg::rax));
    EXPECT_EQ(pm.availableRegCount(), 0u);

    pm.setReg(Reg::rax, 42);
    EXPECT_TRUE(pm.regAvailable(Reg::rax));
    EXPECT_EQ(pm.regValue(Reg::rax), 42u);
    EXPECT_EQ(pm.availableRegCount(), 1u);

    pm.invalidateReg(Reg::rax);
    EXPECT_FALSE(pm.regAvailable(Reg::rax));

    vm::RegFile regs;
    regs.set(Reg::rbx, 7);
    pm.restoreRegs(regs);
    EXPECT_EQ(pm.availableRegCount(), isa::kNumGprs);
    EXPECT_EQ(pm.regValue(Reg::rbx), 7u);

    pm.invalidateAllRegs();
    EXPECT_EQ(pm.availableRegCount(), 0u);
}

TEST(ProgramMap, MemoryEmulationByteGranular)
{
    replay::ProgramMap pm;
    EXPECT_FALSE(pm.readMem(0x1000, 8).has_value());

    pm.writeMem(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(pm.readMem(0x1000, 8).value(), 0x1122334455667788ull);
    EXPECT_EQ(pm.readMem(0x1002, 2).value(), 0x5566ull);

    // Partially invalidated range: reads touching it fail.
    pm.invalidateMem(0x1003, 1);
    EXPECT_FALSE(pm.readMem(0x1000, 8).has_value());
    EXPECT_TRUE(pm.readMem(0x1000, 2).has_value());

    pm.invalidateMemory();
    EXPECT_FALSE(pm.readMem(0x1000, 2).has_value());
}

TEST(ProgramMap, ConsumedAddressesAreTracked)
{
    replay::ProgramMap pm;
    pm.writeMem(0x2000, 9, 8);
    EXPECT_TRUE(pm.consumedAddresses().empty());
    (void)pm.readMem(0x2000, 4);
    EXPECT_EQ(pm.consumedAddresses().size(), 4u);
    EXPECT_TRUE(pm.consumedAddresses().count(0x2003));
    EXPECT_FALSE(pm.consumedAddresses().count(0x2004));
}

TEST(ProgramMap, BlacklistBlocksEmulation)
{
    replay::ProgramMap pm;
    pm.blacklistMem(0x3000, 8);
    pm.writeMem(0x3000, 1, 8);
    EXPECT_FALSE(pm.readMem(0x3000, 8).has_value());
    // Neighbours unaffected.
    pm.writeMem(0x3008, 2, 8);
    EXPECT_TRUE(pm.readMem(0x3008, 8).has_value());
}

/** A producer/consumer program with condvar handoff and no races. */
Program
condvarProgram()
{
    ProgramBuilder b;
    b.globalU64("cell", 0);
    b.globalU64("ready", 0);
    b.globalU64("out", 0);
    b.global("mtx", 8);
    b.global("cv", 8);
    b.label("main");
    b.movri(Reg::r12, 0);
    b.spawn(Reg::r8, "consumer", Reg::r12);
    b.movri(Reg::rcx, 0);
    b.label("produce");
    b.lock(b.symRef("mtx"));
    b.load(Reg::rax, b.symRef("cell"));
    b.addri(Reg::rax, 5);
    b.store(b.symRef("cell"), Reg::rax);
    b.movri(Reg::rax, 1);
    b.store(b.symRef("ready"), Reg::rax);
    b.condSignal(b.symRef("cv"));
    b.unlock(b.symRef("mtx"));
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 40);
    b.jcc(CondCode::kLt, "produce");
    b.join(Reg::r8);
    b.halt();
    b.beginFunction("consumer");
    b.movri(Reg::rbx, 0);
    b.label("consume");
    b.lock(b.symRef("mtx"));
    b.label("wait_loop");
    b.load(Reg::rax, b.symRef("ready"));
    b.cmpri(Reg::rax, 1);
    b.jcc(CondCode::kEq, "got");
    b.lea(Reg::r13, b.symRef("mtx"));
    b.condWait(b.symRef("cv"), Reg::r13);
    b.jmp("wait_loop");
    b.label("got");
    b.load(Reg::rax, b.symRef("cell"));
    b.store(b.symRef("out"), Reg::rax);
    b.movri(Reg::rax, 0);
    b.store(b.symRef("ready"), Reg::rax);
    b.unlock(b.symRef("mtx"));
    b.addri(Reg::rbx, 1);
    b.cmpri(Reg::rbx, 40);
    b.jcc(CondCode::kLt, "consume");
    b.halt();
    return b.build();
}

TEST(Offline, CondvarHandoffIsRaceFreeThroughThePipeline)
{
    Program p = condvarProgram();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        auto cfg = core::proRaceConfig(50, seed);
        auto result = core::runPipeline(
            p, [](vm::Machine &m) { m.addThread("main"); }, cfg);
        EXPECT_TRUE(result.offline.report.empty())
            << "seed " << seed << "\n"
            << result.offline.report.format(&p);
    }
}

TEST(Offline, HeapRaceSurvivesRegenerationRounds)
{
    // A race on a heap object whose pointer the replay *can* emulate
    // (stored then reloaded in the same window): the §5.1 regeneration
    // loop must not erase the genuine race.
    ProgramBuilder b;
    b.globalU64("obj_ptr", 0);
    b.label("main");
    b.movri(Reg::rsi, 64);
    b.mallocCall(Reg::rax, Reg::rsi);
    b.store(b.symRef("obj_ptr"), Reg::rax);
    b.movri(Reg::r12, 0);
    b.spawn(Reg::r8, "worker", Reg::r12);
    b.spawn(Reg::r9, "worker", Reg::r12);
    b.join(Reg::r8);
    b.join(Reg::r9);
    b.halt();
    b.beginFunction("worker");
    b.movri(Reg::rcx, 0);
    b.label("loop");
    b.load(Reg::rsi, b.symRef("obj_ptr"));
    b.load(Reg::rax, isa::MemOperand::baseDisp(Reg::rsi, 8));
    b.addri(Reg::rax, 1);
    b.store(isa::MemOperand::baseDisp(Reg::rsi, 8), Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 400);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    Program p = b.build();

    int detected = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        auto cfg = core::proRaceConfig(25, seed);
        auto result = core::runPipeline(
            p, [](vm::Machine &m) { m.addThread("main"); }, cfg);
        detected += !result.offline.report.empty();
    }
    EXPECT_GE(detected, 3);
}

TEST(Offline, BasicBlockModeSkipsPtDecode)
{
    Program p = condvarProgram();
    core::SessionOptions sopt;
    sopt.machine.seed = 2;
    sopt.run_baseline = false;
    sopt.tracing.pebs_period = 40;
    auto run = core::Session::run(
        p, [](vm::Machine &m) { m.addThread("main"); }, sopt);

    core::OfflineOptions oopt;
    oopt.replay.mode = replay::ReplayMode::kBasicBlock;
    core::OfflineAnalyzer analyzer(p, oopt);
    auto result = analyzer.analyze(run.trace);
    EXPECT_EQ(result.decode_stats.packets, 0u);
    EXPECT_EQ(result.decode_seconds, 0.0);
    EXPECT_GT(result.extended_trace_events, 0u);
}

TEST(Offline, RecoveryRatioIsOneWithPebsOnly)
{
    // Without PT there are no paths: the extended trace is exactly the
    // samples (the degenerate configuration RaceZ improves on).
    Program p = condvarProgram();
    core::SessionOptions sopt;
    sopt.machine.seed = 2;
    sopt.run_baseline = false;
    sopt.tracing.pebs_period = 40;
    sopt.tracing.enable_pt = false;
    auto run = core::Session::run(
        p, [](vm::Machine &m) { m.addThread("main"); }, sopt);
    core::OfflineAnalyzer analyzer(p, {});
    auto result = analyzer.analyze(run.trace);
    EXPECT_DOUBLE_EQ(result.replay_stats.recoveryRatio(), 1.0);
    EXPECT_EQ(result.extended_trace_events,
              run.trace.pebs.size());
}

/**
 * A replay-based analysis pinned as text: the CRC of the report, the
 * extended trace size and every replay counter except the paged
 * ProgramMap's.
 */
std::string
replayDigest(const core::OfflineResult &r, const asmkit::Program &program)
{
    const std::string report = r.report.format(&program);
    const replay::ReplayStats &s = r.replay_stats;
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "%08x %zu events %llu replay %llu %llu %llu %llu %llu %llu %llu "
        "%llu %llu %llu %llu %llu %llu",
        crc32(report.data(), report.size()), r.report.size(),
        static_cast<unsigned long long>(r.extended_trace_events),
        static_cast<unsigned long long>(s.sampled),
        static_cast<unsigned long long>(s.recovered_forward),
        static_cast<unsigned long long>(s.recovered_backward),
        static_cast<unsigned long long>(s.recovered_pcrel),
        static_cast<unsigned long long>(s.windows),
        static_cast<unsigned long long>(s.inconsistent_windows),
        static_cast<unsigned long long>(s.backward_rounds),
        static_cast<unsigned long long>(s.violations_branch),
        static_cast<unsigned long long>(s.violations_fact),
        static_cast<unsigned long long>(s.violations_sample),
        static_cast<unsigned long long>(s.violations_end),
        static_cast<unsigned long long>(s.violations_backward),
        static_cast<unsigned long long>(s.samples_out_of_program));
    return buf;
}

TEST(RaceZBaseline, Table2BugsKeepTheirReportsAndCounters)
{
    // The RaceZ column of Table 2 and the basic-block ratios of Fig 11
    // rest on basic-block reconstruction. Each of the twelve bugs,
    // traced with raceZConfig at P=100 and P=1000 (one fixed seed) and
    // analyzed, must reproduce the committed report CRC, race count,
    // extended-trace size and replay counters exactly.
    struct Pinned {
        const char *bug;
        uint64_t period;
        const char *digest;
    };
    static const Pinned kPinned[] = {
        {"apache-21287", 100,
         "7dd95ccd 2 events 3100 replay 1276 1824 0 38 0 0 0 0 0 0 0 0 0"},
        {"apache-21287", 1000,
         "64bcefec 2 events 475 replay 196 279 0 11 0 0 0 0 0 0 0 0 0"},
        {"apache-25520", 100,
         "ed9ba08b 2 events 2622 replay 1196 1426 0 1 0 0 0 0 0 0 0 0 0"},
        {"apache-25520", 1000,
         "d8c3b7d0 0 events 410 replay 188 222 0 0 0 0 0 0 0 0 0 0 0"},
        {"apache-45605", 100,
         "44be2fff 2 events 3012 replay 1288 1724 0 0 0 0 0 0 0 0 0 0 0"},
        {"apache-45605", 1000,
         "d8c3b7d0 0 events 465 replay 200 265 0 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-3596", 100,
         "657ac755 2 events 3155 replay 1381 1774 0 32 0 0 0 0 0 0 0 0 0"},
        {"mysql-3596", 1000,
         "d8c3b7d0 0 events 485 replay 208 277 0 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-644", 100,
         "b4b3d617 2 events 3652 replay 1484 2168 0 26 0 0 0 0 0 0 0 0 0"},
        {"mysql-644", 1000,
         "d8c3b7d0 0 events 530 replay 220 310 0 1 0 0 0 0 0 0 0 0 0"},
        {"mysql-791", 100,
         "7dd95ccd 2 events 3100 replay 1276 1824 0 38 0 0 0 0 0 0 0 0 0"},
        {"mysql-791", 1000,
         "64bcefec 2 events 475 replay 196 279 0 11 0 0 0 0 0 0 0 0 0"},
        {"cherokee-0.9.2", 100,
         "e7b31249 2 events 2610 replay 1168 1442 0 0 0 0 0 0 0 0 0 0 0"},
        {"cherokee-0.9.2", 1000,
         "d8c3b7d0 0 events 419 replay 188 231 0 0 0 0 0 0 0 0 0 0 0"},
        {"cherokee-bug326", 100,
         "6a3c1cb6 2 events 2443 replay 1131 1312 0 0 0 0 0 0 0 0 0 0 0"},
        {"cherokee-bug326", 1000,
         "73b1fc40 2 events 435 replay 184 251 0 0 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.4", 100,
         "518ddb33 2 events 1975 replay 895 1080 0 15 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.4", 1000,
         "d8c3b7d0 0 events 354 replay 160 194 0 0 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.5", 100,
         "84a1ff77 2 events 1985 replay 902 1083 0 6 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.5", 1000,
         "d8c3b7d0 0 events 334 replay 160 174 0 0 0 0 0 0 0 0 0 0 0"},
        {"pfscan", 100,
         "08f36b2e 2 events 2755 replay 1132 1623 0 9 0 0 0 0 0 0 0 0 0"},
        {"pfscan", 1000,
         "d8c3b7d0 0 events 435 replay 184 251 0 1 0 0 0 0 0 0 0 0 0"},
        {"aget-bug2", 100,
         "d8c3b7d0 0 events 2493 replay 1014 1479 0 0 0 0 0 0 0 0 0 0 0"},
        {"aget-bug2", 1000,
         "d8c3b7d0 0 events 419 replay 172 247 0 0 0 0 0 0 0 0 0 0 0"},
    };
    constexpr uint64_t kSeed = 5000; // table2's first trial
    const auto bugs = workload::racyBugWorkloads(1.0);
    size_t checked = 0;
    for (const workload::Workload &w : bugs) {
        for (const uint64_t period : {100ull, 1000ull}) {
            const core::PipelineResult r = core::runPipeline(
                *w.program, w.setup, baseline::raceZConfig(period, kSeed));
            const std::string digest = replayDigest(r.offline, *w.program);
            const Pinned *pin = nullptr;
            for (const Pinned &p : kPinned) {
                if (w.name == p.bug && period == p.period)
                    pin = &p;
            }
            if (!pin) {
                ADD_FAILURE() << "unpinned: {\"" << w.name << "\", "
                              << period << ", \"" << digest << "\"},";
                continue;
            }
            EXPECT_EQ(digest, pin->digest) << w.name << " P=" << period;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 24u);
}

/** The subjects of the PT-mode replay pins. */
constexpr const char *kReplaySubjects[] = {
    "mpmc-queue-racy", "event-loop",   "ptr-dispatch", "rcu-table",
    "cherokee-0.9.2",  "pbzip2-0.9.4", "memcached",    "aget-bug2",
};

TEST(ReplayBaseline, PtModesKeepTheirReportsAndCounters)
{
    // Forward and forward+backward replay, pinned like the RaceZ
    // baseline above. The subjects cover every access shape replay
    // knows: acquire loads, release stores and acq_rel RMWs
    // (mpmc-queue-racy, event-loop), indirect dispatch (ptr-dispatch),
    // rwlocks (rcu-table) and four Table 2 bugs. Each is traced once
    // with proRaceConfig at P=16, P=1000 and P=10000 (one fixed seed,
    // scale 0.25) and analyzed in both modes. At P=10000, the paper's
    // deployment period, most forward steps find an operand unknown,
    // so those rows also pin the two ProgramMap counters the
    // unresolved rule drives: invalidateMemory() epoch bumps and page
    // lookups.
    struct Pinned {
        const char *subject;
        uint64_t period;
        replay::ReplayMode mode;
        const char *digest;
    };
    constexpr auto kFwd = replay::ReplayMode::kForwardOnly;
    constexpr auto kFwdBwd = replay::ReplayMode::kForwardBackward;
    static const Pinned kPinned[] = {
        {"mpmc-queue-racy", 16, kFwd,
         "d8c3b7d0 0 events 1411 replay 100 1311 0 80 100 0 0 10 0 0 10 0 0"},
        {"mpmc-queue-racy", 16, kFwdBwd,
         "b6e90b0a 1 events 1453 replay 100 1311 42 80 100 10 135 19 12 0 10 20 0"},
        {"mpmc-queue-racy", 1000, kFwd,
         "d8c3b7d0 0 events 162 replay 1 161 0 80 6 0 0 0 0 0 0 0 0"},
        {"mpmc-queue-racy", 1000, kFwdBwd,
         "d8c3b7d0 0 events 441 replay 1 161 279 80 6 0 2 0 0 0 0 0 0"},
        {"event-loop", 16, kFwd,
         "d8c3b7d0 0 events 938 replay 85 853 0 209 83 0 0 34 0 0 77 0 0"},
        {"event-loop", 16, kFwdBwd,
         "d8c3b7d0 0 events 1075 replay 85 850 140 209 83 33 108 76 87 0 87 51 0"},
        {"event-loop", 1000, kFwd,
         "d8c3b7d0 0 events 305 replay 1 304 0 216 5 0 0 0 0 0 0 0 0"},
        {"event-loop", 1000, kFwdBwd,
         "d8c3b7d0 0 events 571 replay 1 304 266 216 5 0 2 0 0 0 0 0 0"},
        {"ptr-dispatch", 16, kFwd,
         "d8c3b7d0 0 events 883 replay 60 823 0 35 60 0 0 5 0 0 6 0 0"},
        {"ptr-dispatch", 16, kFwdBwd,
         "d8c3b7d0 0 events 921 replay 60 818 43 35 60 4 87 12 8 0 6 5 0"},
        {"ptr-dispatch", 1000, kFwd,
         "d8c3b7d0 0 events 151 replay 1 150 0 37 5 0 0 0 0 0 0 0 0"},
        {"ptr-dispatch", 1000, kFwdBwd,
         "d8c3b7d0 0 events 406 replay 1 150 255 37 5 0 2 0 0 0 0 0 0"},
        {"rcu-table", 16, kFwd,
         "d8c3b7d0 0 events 2553 replay 196 2357 0 73 190 0 0 60 0 0 63 0 0"},
        {"rcu-table", 16, kFwdBwd,
         "d8c3b7d0 0 events 2481 replay 196 2274 11 73 190 60 186 117 68 0 66 66 0"},
        {"rcu-table", 1000, kFwd,
         "d8c3b7d0 0 events 1318 replay 2 1316 0 75 7 0 0 1 0 0 1 0 0"},
        {"rcu-table", 1000, kFwdBwd,
         "d8c3b7d0 0 events 1609 replay 2 1312 295 75 7 1 4 1 2 0 1 2 0"},
        {"cherokee-0.9.2", 16, kFwd,
         "39294ad8 2 events 35372 replay 2975 32397 0 265 2813 0 0 722 0 0 1694 0 0"},
        {"cherokee-0.9.2", 16, kFwdBwd,
         "39294ad8 2 events 38507 replay 2975 30816 4716 265 2813 723 2819 1415 1762 52 1779 839 0"},
        {"cherokee-0.9.2", 1000, kFwd,
         "d8c3b7d0 0 events 44565 replay 48 44517 0 269 51 0 0 10 0 0 12 0 0"},
        {"cherokee-0.9.2", 1000, kFwdBwd,
         "1c90d5d7 2 events 46444 replay 48 44490 1906 269 51 10 52 19 12 0 13 11 0"},
        {"pbzip2-0.9.4", 16, kFwd,
         "2902fb87 2 events 33394 replay 2544 30850 0 248 1962 0 0 405 0 0 1275 0 0"},
        {"pbzip2-0.9.4", 16, kFwdBwd,
         "2902fb87 2 events 36447 replay 2544 30105 3798 248 1962 395 1966 804 1242 0 1304 412 0"},
        {"pbzip2-0.9.4", 1000, kFwd,
         "d8c3b7d0 0 events 37320 replay 40 37280 0 249 44 0 0 9 0 0 9 0 0"},
        {"pbzip2-0.9.4", 1000, kFwdBwd,
         "d8c3b7d0 0 events 39178 replay 40 37256 1882 249 44 9 45 17 10 0 9 10 0"},
        {"memcached", 16, kFwd,
         "d8c3b7d0 0 events 45400 replay 3946 41454 0 69 3777 0 0 1000 0 0 1773 0 0"},
        {"memcached", 16, kFwdBwd,
         "e881e739 2 events 48783 replay 3946 40333 4504 69 3777 978 3816 1977 1923 525 1901 1238 0"},
        {"memcached", 1000, kFwd,
         "d8c3b7d0 0 events 55529 replay 62 55467 0 70 51 0 0 20 0 0 20 0 0"},
        {"memcached", 1000, kFwdBwd,
         "d8c3b7d0 0 events 58042 replay 62 55424 2556 70 51 20 50 37 23 0 23 25 0"},
        {"aget-bug2", 16, kFwd,
         "b7bea230 2 events 36827 replay 2740 34087 0 77 2554 0 0 454 0 0 1203 0 0"},
        {"aget-bug2", 16, kFwdBwd,
         "b7bea230 2 events 38987 replay 2740 33157 3090 77 2554 452 2553 905 1165 0 1228 469 0"},
        {"aget-bug2", 1000, kFwd,
         "69eb5c22 2 events 40253 replay 44 40209 0 77 47 0 0 9 0 0 9 0 0"},
        {"aget-bug2", 1000, kFwdBwd,
         "69eb5c22 2 events 42162 replay 44 40185 1933 77 47 9 46 17 10 0 9 10 0"},
        {"mpmc-queue-racy", 10000, kFwd,
         "d8c3b7d0 0 events 80 replay 0 80 0 80 5 0 0 0 0 0 0 0 0 pm 532 80"},
        {"mpmc-queue-racy", 10000, kFwdBwd,
         "d8c3b7d0 0 events 80 replay 0 80 0 80 5 0 0 0 0 0 0 0 0 pm 532 80"},
        {"event-loop", 10000, kFwd,
         "d8c3b7d0 0 events 216 replay 0 216 0 216 4 0 0 0 0 0 0 0 0 pm 796 216"},
        {"event-loop", 10000, kFwdBwd,
         "d8c3b7d0 0 events 216 replay 0 216 0 216 4 0 0 0 0 0 0 0 0 pm 796 216"},
        {"ptr-dispatch", 10000, kFwd,
         "d8c3b7d0 0 events 145 replay 0 145 0 37 4 0 0 0 0 0 0 0 0 pm 286 145"},
        {"ptr-dispatch", 10000, kFwdBwd,
         "d8c3b7d0 0 events 145 replay 0 145 0 37 4 0 0 0 0 0 0 0 0 pm 286 145"},
        {"rcu-table", 10000, kFwd,
         "d8c3b7d0 0 events 450 replay 0 450 0 75 5 0 0 0 0 0 0 0 0 pm 1032 450"},
        {"rcu-table", 10000, kFwdBwd,
         "d8c3b7d0 0 events 450 replay 0 450 0 75 5 0 0 0 0 0 0 0 0 pm 1032 450"},
        {"cherokee-0.9.2", 10000, kFwd,
         "d8c3b7d0 0 events 26907 replay 5 26902 0 269 10 0 0 2 0 0 2 0 0 pm 8528 26783"},
        {"cherokee-0.9.2", 10000, kFwdBwd,
         "d8c3b7d0 0 events 45543 replay 5 26899 18639 269 10 2 9 3 3 0 2 3 0 pm 8806 77025"},
        {"pbzip2-0.9.4", 10000, kFwd,
         "d8c3b7d0 0 events 19892 replay 4 19888 0 249 9 0 0 1 0 0 1 0 0 pm 8958 19787"},
        {"pbzip2-0.9.4", 10000, kFwdBwd,
         "d8c3b7d0 0 events 38303 replay 4 19888 18411 249 9 1 8 1 2 0 1 2 0 pm 9204 59685"},
        {"memcached", 10000, kFwd,
         "d8c3b7d0 0 events 28593 replay 6 28587 0 70 10 0 0 2 0 0 2 0 0 pm 11362 28454"},
        {"memcached", 10000, kFwdBwd,
         "d8c3b7d0 0 events 37759 replay 6 28587 9166 70 10 2 8 2 4 0 4 6 0 pm 11798 68168"},
        {"aget-bug2", 10000, kFwd,
         "2d4f5f7f 2 events 23359 replay 4 23355 0 77 9 0 0 1 0 0 1 0 0 pm 8106 23245"},
        {"aget-bug2", 10000, kFwdBwd,
         "2d4f5f7f 2 events 42268 replay 4 23355 18909 77 9 1 8 1 2 0 1 2 0 pm 8122 64045"},
    };
    constexpr uint64_t kSeed = 5000;
    // Each counter below is nonzero somewhere in the table, so the pin
    // reaches every branch that feeds one.
    replay::ReplayStats any;
    size_t checked = 0;
    for (const char *subject : kReplaySubjects) {
        const auto w = workload::findWorkload(subject, 0.25);
        ASSERT_TRUE(w) << subject;
        for (const uint64_t period : {16ull, 1000ull, 10000ull}) {
            const core::PipelineConfig cfg =
                core::proRaceConfig(period, kSeed);
            const core::RunArtifacts online =
                core::Session::run(*w->program, w->setup, cfg.session);
            for (const replay::ReplayMode mode : {kFwd, kFwdBwd}) {
                core::OfflineOptions options = cfg.offline;
                options.replay.mode = mode;
                core::OfflineAnalyzer analyzer(*w->program, options);
                const core::OfflineResult r = analyzer.analyze(online.trace);
                any.merge(r.replay_stats);
                std::string digest = replayDigest(r, *w->program);
                if (period == 10000) {
                    const replay::ProgramMapStats &pm =
                        r.replay_stats.program_map;
                    digest += " pm " + std::to_string(pm.mem_invalidations) +
                        " " + std::to_string(pm.page_lookups);
                }
                const Pinned *pin = nullptr;
                for (const Pinned &p : kPinned) {
                    if (w->name == p.subject && period == p.period &&
                        mode == p.mode) {
                        pin = &p;
                    }
                }
                if (!pin) {
                    ADD_FAILURE()
                        << "unpinned: {\"" << w->name << "\", " << period
                        << ", " << (mode == kFwd ? "kFwd" : "kFwdBwd")
                        << ",\n         \"" << digest << "\"},";
                    continue;
                }
                EXPECT_EQ(digest, pin->digest)
                    << w->name << " P=" << period << ' '
                    << replay::replayModeName(mode);
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 48u);
    EXPECT_GT(any.sampled, 0u);
    EXPECT_GT(any.recovered_forward, 0u);
    EXPECT_GT(any.recovered_backward, 0u);
    EXPECT_GT(any.recovered_pcrel, 0u);
    EXPECT_GT(any.windows, 0u);
    EXPECT_GT(any.inconsistent_windows, 0u);
    EXPECT_GT(any.backward_rounds, 0u);
    EXPECT_GT(any.violations_branch, 0u);
    EXPECT_GT(any.violations_fact, 0u);
    EXPECT_GT(any.violations_sample, 0u);
    EXPECT_GT(any.violations_end, 0u);
    EXPECT_GT(any.violations_backward, 0u);
}

TEST(ReplayBaseline, SubjectFilterKeepsReportsAndWork)
{
    // The rows above trace everything, so the forward/backward fixed
    // point rarely meets a gap or an untraced call. These rows trace
    // each subject with its own PT filter (main executable only), at
    // P=1000 and the deployment period P=10000, in forward+backward
    // mode, and pin the report, every replay counter and the replay
    // work: the path positions forward passes cover (emulated or
    // resumed) and the backward steps.
    struct Pinned {
        const char *subject;
        uint64_t period;
        const char *digest;
    };
    static const Pinned kPinned[] = {
        {"mpmc-queue-racy", 1000,
         "d8c3b7d0 0 events 441 replay 1 161 279 80 6 0 2 0 0 0 0 0 0 steps 9062 2506"},
        {"mpmc-queue-racy", 10000,
         "d8c3b7d0 0 events 80 replay 0 80 0 80 5 0 0 0 0 0 0 0 0 steps 6556 0"},
        {"event-loop", 1000,
         "d8c3b7d0 0 events 571 replay 1 304 266 216 5 0 2 0 0 0 0 0 0 steps 8976 2794"},
        {"event-loop", 10000,
         "d8c3b7d0 0 events 216 replay 0 216 0 216 4 0 0 0 0 0 0 0 0 steps 6182 0"},
        {"ptr-dispatch", 1000,
         "d8c3b7d0 0 events 406 replay 1 150 255 37 5 0 2 0 0 0 0 0 0 steps 6263 2452"},
        {"ptr-dispatch", 10000,
         "d8c3b7d0 0 events 145 replay 0 145 0 37 4 0 0 0 0 0 0 0 0 steps 3811 0"},
        {"rcu-table", 1000,
         "d8c3b7d0 0 events 1609 replay 2 1312 295 75 7 1 4 1 2 0 1 2 0 steps 20889 7472"},
        {"rcu-table", 10000,
         "d8c3b7d0 0 events 450 replay 0 450 0 75 5 0 0 0 0 0 0 0 0 steps 13417 0"},
        {"cherokee-0.9.2", 1000,
         "dfb9bc9c 2 events 4721 replay 48 4265 408 269 48 38 83 102 80 0 52 84 0 steps 558872 368244"},
        {"cherokee-0.9.2", 10000,
         "d8c3b7d0 0 events 714 replay 5 709 0 269 10 5 9 6 9 0 7 9 0 steps 403314 208509"},
        {"pbzip2-0.9.4", 1000,
         "d8c3b7d0 0 events 4678 replay 40 4073 565 249 44 33 77 89 68 0 41 65 0 steps 471380 317654"},
        {"pbzip2-0.9.4", 10000,
         "d8c3b7d0 0 events 804 replay 4 674 126 249 9 3 7 3 5 0 5 5 0 steps 335275 164834"},
        {"memcached", 1000,
         "d8c3b7d0 0 events 5743 replay 62 5200 481 70 58 48 104 136 105 0 70 124 0 steps 621094 403008"},
        {"memcached", 10000,
         "d8c3b7d0 0 events 928 replay 6 922 0 70 12 6 12 8 14 0 10 18 0 steps 462682 244596"},
        {"aget-bug2", 1000,
         "d1edd8d8 2 events 4890 replay 44 4834 12 77 45 37 78 95 73 0 48 72 0 steps 484200 327323"},
        {"aget-bug2", 10000,
         "ccde46dd 2 events 667 replay 4 661 2 77 9 2 8 2 4 0 2 4 0 steps 285301 170016"},
    };
    constexpr uint64_t kSeed = 5000;
    size_t checked = 0;
    uint64_t resumed = 0;
    for (const char *subject : kReplaySubjects) {
        const auto w = workload::findWorkload(subject, 0.25);
        ASSERT_TRUE(w) << subject;
        for (const uint64_t period : {1000ull, 10000ull}) {
            const core::PipelineConfig cfg =
                core::proRaceConfig(period, kSeed, w->pt_filter);
            const core::RunArtifacts online =
                core::Session::run(*w->program, w->setup, cfg.session);
            core::OfflineAnalyzer analyzer(*w->program, cfg.offline);
            const core::OfflineResult r = analyzer.analyze(online.trace);
            const replay::ReplayStats &s = r.replay_stats;
            resumed += s.forward_resumed_steps;
            const std::string digest = replayDigest(r, *w->program) +
                " steps " +
                std::to_string(s.forward_steps + s.forward_resumed_steps) +
                " " + std::to_string(s.backward_steps);
            const Pinned *pin = nullptr;
            for (const Pinned &p : kPinned) {
                if (w->name == p.subject && period == p.period)
                    pin = &p;
            }
            if (!pin) {
                ADD_FAILURE() << "unpinned: {\"" << w->name << "\", "
                              << period << ",\n         \"" << digest
                              << "\"},";
                continue;
            }
            EXPECT_EQ(digest, pin->digest) << w->name << " P=" << period;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 16u);
    // Mixed passes do resume on these traces.
    EXPECT_GT(resumed, 0u);
}

/**
 * The extended trace pinned as text: the number of accesses
 * Replayer::replayAll returns and a CRC over every field of every one,
 * in order.
 */
std::string
extendedTraceDigest(const std::vector<replay::ReconstructedAccess> &accs)
{
    std::vector<uint8_t> bytes;
    auto put = [&bytes](uint64_t v, unsigned width) {
        for (unsigned i = 0; i < width; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    for (const replay::ReconstructedAccess &a : accs) {
        put(a.tid, 4);
        put(a.insn_index, 4);
        put(a.position, 8);
        put(a.addr, 8);
        put(a.tsc, 8);
        put(a.width, 1);
        put(a.is_write, 1);
        put(a.is_atomic, 1);
        put(static_cast<uint64_t>(a.origin), 1);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%08x %zu", crc32(bytes), accs.size());
    return buf;
}

TEST(ExtendedTraceBaseline, PtModesKeepEveryAccess)
{
    // ReplayBaseline's subjects, periods, seed and modes, pinned one
    // layer lower: the extended trace itself, before the prefilter and
    // the detector can hide a moved, retimed or relabelled access.
    struct Pinned {
        const char *subject;
        uint64_t period;
        replay::ReplayMode mode;
        const char *digest;
    };
    constexpr auto kFwd = replay::ReplayMode::kForwardOnly;
    constexpr auto kFwdBwd = replay::ReplayMode::kForwardBackward;
    static const Pinned kPinned[] = {
        {"mpmc-queue-racy", 16, kFwd, "35996e65 1411"},
        {"mpmc-queue-racy", 16, kFwdBwd, "e879547c 1453"},
        {"mpmc-queue-racy", 1000, kFwd, "58864c4b 162"},
        {"mpmc-queue-racy", 1000, kFwdBwd, "c584f41c 441"},
        {"mpmc-queue-racy", 10000, kFwd, "f5f21705 80"},
        {"mpmc-queue-racy", 10000, kFwdBwd, "f5f21705 80"},
        {"event-loop", 16, kFwd, "127ea667 938"},
        {"event-loop", 16, kFwdBwd, "368b9f96 1075"},
        {"event-loop", 1000, kFwd, "0282f64a 305"},
        {"event-loop", 1000, kFwdBwd, "fe1031df 571"},
        {"event-loop", 10000, kFwd, "b2ac7a7d 216"},
        {"event-loop", 10000, kFwdBwd, "b2ac7a7d 216"},
        {"ptr-dispatch", 16, kFwd, "221e21ec 883"},
        {"ptr-dispatch", 16, kFwdBwd, "b398f62e 921"},
        {"ptr-dispatch", 1000, kFwd, "680f9b0d 151"},
        {"ptr-dispatch", 1000, kFwdBwd, "bf80b820 406"},
        {"ptr-dispatch", 10000, kFwd, "6d5e6511 145"},
        {"ptr-dispatch", 10000, kFwdBwd, "6d5e6511 145"},
        {"rcu-table", 16, kFwd, "d7d7893b 2553"},
        {"rcu-table", 16, kFwdBwd, "beb31f15 2481"},
        {"rcu-table", 1000, kFwd, "5e8b8ed7 1318"},
        {"rcu-table", 1000, kFwdBwd, "35471972 1609"},
        {"rcu-table", 10000, kFwd, "d17122ca 450"},
        {"rcu-table", 10000, kFwdBwd, "d17122ca 450"},
        {"cherokee-0.9.2", 16, kFwd, "e930b445 35372"},
        {"cherokee-0.9.2", 16, kFwdBwd, "29bda0be 38507"},
        {"cherokee-0.9.2", 1000, kFwd, "b33823cb 44565"},
        {"cherokee-0.9.2", 1000, kFwdBwd, "0407b3ae 46444"},
        {"cherokee-0.9.2", 10000, kFwd, "5a6e42e7 26907"},
        {"cherokee-0.9.2", 10000, kFwdBwd, "ca2eae37 45543"},
        {"pbzip2-0.9.4", 16, kFwd, "b5d7e0ff 33394"},
        {"pbzip2-0.9.4", 16, kFwdBwd, "704b2e2a 36447"},
        {"pbzip2-0.9.4", 1000, kFwd, "da3be17f 37320"},
        {"pbzip2-0.9.4", 1000, kFwdBwd, "34601f39 39178"},
        {"pbzip2-0.9.4", 10000, kFwd, "94de4f63 19892"},
        {"pbzip2-0.9.4", 10000, kFwdBwd, "f24e3cbb 38303"},
        {"memcached", 16, kFwd, "bde39582 45400"},
        {"memcached", 16, kFwdBwd, "110c6fad 48783"},
        {"memcached", 1000, kFwd, "88ec9cb7 55529"},
        {"memcached", 1000, kFwdBwd, "eae5ec04 58042"},
        {"memcached", 10000, kFwd, "9fdcba5b 28593"},
        {"memcached", 10000, kFwdBwd, "34da7c27 37759"},
        {"aget-bug2", 16, kFwd, "ef489a45 36827"},
        {"aget-bug2", 16, kFwdBwd, "190da80b 38987"},
        {"aget-bug2", 1000, kFwd, "89e542b9 40253"},
        {"aget-bug2", 1000, kFwdBwd, "eff84991 42162"},
        {"aget-bug2", 10000, kFwd, "21c214f5 23359"},
        {"aget-bug2", 10000, kFwdBwd, "99ea889d 42268"},
    };
    constexpr uint64_t kSeed = 5000;
    size_t checked = 0;
    for (const char *subject : kReplaySubjects) {
        const auto w = workload::findWorkload(subject, 0.25);
        ASSERT_TRUE(w) << subject;
        const analysis::ProgramAnalysis facts(*w->program);
        for (const uint64_t period : {16ull, 1000ull, 10000ull}) {
            const core::PipelineConfig cfg =
                core::proRaceConfig(period, kSeed);
            const core::RunArtifacts online =
                core::Session::run(*w->program, w->setup, cfg.session);
            const trace::RunTrace &run = online.trace;
            const auto paths =
                pmu::decodePt(*w->program, run.meta.pt_filter, run);
            const auto alignments = replay::alignTrace(
                *w->program, paths, run, nullptr, &facts);
            for (const replay::ReplayMode mode : {kFwd, kFwdBwd}) {
                replay::ReplayConfig config = cfg.offline.replay;
                config.mode = mode;
                config.analysis = &facts;
                replay::Replayer replayer(*w->program, config);
                const std::string digest = extendedTraceDigest(
                    replayer.replayAll(paths, alignments, run));
                const Pinned *pin = nullptr;
                for (const Pinned &p : kPinned) {
                    if (w->name == p.subject && period == p.period &&
                        mode == p.mode) {
                        pin = &p;
                    }
                }
                if (!pin) {
                    ADD_FAILURE()
                        << "unpinned: {\"" << w->name << "\", " << period
                        << ", " << (mode == kFwd ? "kFwd" : "kFwdBwd")
                        << ", \"" << digest << "\"},";
                    continue;
                }
                EXPECT_EQ(digest, pin->digest)
                    << w->name << " P=" << period << ' '
                    << replay::replayModeName(mode);
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 48u);
}

TEST(ExtendedTraceBaseline, SubjectFilterKeepsEveryAccess)
{
    // ReplayBaseline.SubjectFilterKeepsReportsAndWork's runs, pinned at
    // the extended trace.
    struct Pinned {
        const char *subject;
        uint64_t period;
        const char *digest;
    };
    static const Pinned kPinned[] = {
        {"mpmc-queue-racy", 1000, "c584f41c 441"},
        {"mpmc-queue-racy", 10000, "f5f21705 80"},
        {"event-loop", 1000, "fe1031df 571"},
        {"event-loop", 10000, "b2ac7a7d 216"},
        {"ptr-dispatch", 1000, "bf80b820 406"},
        {"ptr-dispatch", 10000, "6d5e6511 145"},
        {"rcu-table", 1000, "35471972 1609"},
        {"rcu-table", 10000, "d17122ca 450"},
        {"cherokee-0.9.2", 1000, "d5df947d 4721"},
        {"cherokee-0.9.2", 10000, "06e46061 714"},
        {"pbzip2-0.9.4", 1000, "605ab884 4678"},
        {"pbzip2-0.9.4", 10000, "f600cd89 804"},
        {"memcached", 1000, "0aae581c 5743"},
        {"memcached", 10000, "c7ce78de 928"},
        {"aget-bug2", 1000, "5ca55d91 4890"},
        {"aget-bug2", 10000, "04f00c8c 667"},
    };
    constexpr uint64_t kSeed = 5000;
    size_t checked = 0;
    for (const char *subject : kReplaySubjects) {
        const auto w = workload::findWorkload(subject, 0.25);
        ASSERT_TRUE(w) << subject;
        const analysis::ProgramAnalysis facts(*w->program);
        for (const uint64_t period : {1000ull, 10000ull}) {
            const core::PipelineConfig cfg =
                core::proRaceConfig(period, kSeed, w->pt_filter);
            const core::RunArtifacts online =
                core::Session::run(*w->program, w->setup, cfg.session);
            const trace::RunTrace &run = online.trace;
            const auto paths =
                pmu::decodePt(*w->program, run.meta.pt_filter, run);
            const auto alignments = replay::alignTrace(
                *w->program, paths, run, nullptr, &facts);
            replay::ReplayConfig config = cfg.offline.replay;
            config.analysis = &facts;
            replay::Replayer replayer(*w->program, config);
            const std::string digest = extendedTraceDigest(
                replayer.replayAll(paths, alignments, run));
            const Pinned *pin = nullptr;
            for (const Pinned &p : kPinned) {
                if (w->name == p.subject && period == p.period)
                    pin = &p;
            }
            if (!pin) {
                ADD_FAILURE() << "unpinned: {\"" << w->name << "\", "
                              << period << ", \"" << digest << "\"},";
                continue;
            }
            EXPECT_EQ(digest, pin->digest) << w->name << " P=" << period;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 16u);
}

} // namespace
} // namespace prorace
