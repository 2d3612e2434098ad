/**
 * @file
 * Tests for the offline pipeline's glue: program map, feed ordering,
 * racy-location regeneration, the end-to-end condvar/barrier HB
 * edges through reconstruction, and the pinned replay baselines of
 * RaceZ and of the two PT modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "asmkit/builder.hh"
#include "baseline/racez.hh"
#include "core/pipeline.hh"
#include "replay/program_map.hh"
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
        "%llu %llu %llu %llu %llu %llu %llu",
        crc32(report.data(), report.size()), r.report.size(),
        static_cast<unsigned long long>(r.extended_trace_events),
        static_cast<unsigned long long>(s.sampled),
        static_cast<unsigned long long>(s.recovered_forward),
        static_cast<unsigned long long>(s.recovered_backward),
        static_cast<unsigned long long>(s.recovered_pcrel),
        static_cast<unsigned long long>(s.recovered_constant),
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
         "7dd95ccd 2 events 3100 replay 1276 1824 0 38 0 0 0 0 0 0 0 0 0 0"},
        {"apache-21287", 1000,
         "64bcefec 2 events 475 replay 196 279 0 11 0 0 0 0 0 0 0 0 0 0"},
        {"apache-25520", 100,
         "ed9ba08b 2 events 2622 replay 1196 1426 0 1 0 0 0 0 0 0 0 0 0 0"},
        {"apache-25520", 1000,
         "d8c3b7d0 0 events 410 replay 188 222 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"apache-45605", 100,
         "44be2fff 2 events 3012 replay 1288 1724 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"apache-45605", 1000,
         "d8c3b7d0 0 events 465 replay 200 265 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-3596", 100,
         "657ac755 2 events 3155 replay 1381 1774 0 32 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-3596", 1000,
         "d8c3b7d0 0 events 485 replay 208 277 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-644", 100,
         "b4b3d617 2 events 3652 replay 1484 2168 0 26 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-644", 1000,
         "d8c3b7d0 0 events 530 replay 220 310 0 1 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-791", 100,
         "7dd95ccd 2 events 3100 replay 1276 1824 0 38 0 0 0 0 0 0 0 0 0 0"},
        {"mysql-791", 1000,
         "64bcefec 2 events 475 replay 196 279 0 11 0 0 0 0 0 0 0 0 0 0"},
        {"cherokee-0.9.2", 100,
         "e7b31249 2 events 2610 replay 1168 1442 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"cherokee-0.9.2", 1000,
         "d8c3b7d0 0 events 419 replay 188 231 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"cherokee-bug326", 100,
         "6a3c1cb6 2 events 2443 replay 1131 1312 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"cherokee-bug326", 1000,
         "73b1fc40 2 events 435 replay 184 251 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.4", 100,
         "518ddb33 2 events 1975 replay 895 1080 0 15 0 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.4", 1000,
         "d8c3b7d0 0 events 354 replay 160 194 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.5", 100,
         "84a1ff77 2 events 1985 replay 902 1083 0 6 0 0 0 0 0 0 0 0 0 0"},
        {"pbzip2-0.9.5", 1000,
         "d8c3b7d0 0 events 334 replay 160 174 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"pfscan", 100,
         "08f36b2e 2 events 2755 replay 1132 1623 0 9 0 0 0 0 0 0 0 0 0 0"},
        {"pfscan", 1000,
         "d8c3b7d0 0 events 435 replay 184 251 0 1 0 0 0 0 0 0 0 0 0 0"},
        {"aget-bug2", 100,
         "d8c3b7d0 0 events 2493 replay 1014 1479 0 0 0 0 0 0 0 0 0 0 0 0"},
        {"aget-bug2", 1000,
         "d8c3b7d0 0 events 419 replay 172 247 0 0 0 0 0 0 0 0 0 0 0 0"},
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

TEST(ReplayBaseline, PtModesKeepTheirReportsAndCounters)
{
    // Forward and forward+backward replay, pinned like the RaceZ
    // baseline above. The subjects cover every access shape replay
    // knows: acquire loads, release stores and acq_rel RMWs
    // (mpmc-queue-racy, event-loop), constant recovery (ptr-dispatch),
    // rwlocks (rcu-table) and four Table 2 bugs. Each is traced once
    // with proRaceConfig at P=16 and P=1000 (one fixed seed, scale
    // 0.25) and analyzed in both modes.
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
         "d8c3b7d0 0 events 1411 replay 100 1311 0 80 0 100 0 0 10 0 0 10 0 0"},
        {"mpmc-queue-racy", 16, kFwdBwd,
         "b6e90b0a 1 events 1453 replay 100 1311 42 80 0 100 10 135 28 22 0 10 20 0"},
        {"mpmc-queue-racy", 1000, kFwd,
         "d8c3b7d0 0 events 162 replay 1 161 0 80 0 6 0 0 0 0 0 0 0 0"},
        {"mpmc-queue-racy", 1000, kFwdBwd,
         "d8c3b7d0 0 events 441 replay 1 161 279 80 0 6 0 2 0 0 0 0 0 0"},
        {"event-loop", 16, kFwd,
         "d8c3b7d0 0 events 938 replay 85 853 0 209 0 83 0 0 34 0 0 77 0 0"},
        {"event-loop", 16, kFwdBwd,
         "d8c3b7d0 0 events 1075 replay 85 850 140 209 0 83 33 137 84 122 0 88 55 0"},
        {"event-loop", 1000, kFwd,
         "d8c3b7d0 0 events 305 replay 1 304 0 216 0 5 0 0 0 0 0 0 0 0"},
        {"event-loop", 1000, kFwdBwd,
         "d8c3b7d0 0 events 571 replay 1 304 266 216 0 5 0 2 0 0 0 0 0 0"},
        {"ptr-dispatch", 16, kFwd,
         "d8c3b7d0 0 events 914 replay 60 823 0 35 31 60 0 0 5 0 0 6 0 0"},
        {"ptr-dispatch", 16, kFwdBwd,
         "d8c3b7d0 0 events 919 replay 60 818 10 35 31 60 4 61 10 10 0 6 8 0"},
        {"ptr-dispatch", 1000, kFwd,
         "d8c3b7d0 0 events 182 replay 1 150 0 37 31 5 0 0 0 0 0 0 0 0"},
        {"ptr-dispatch", 1000, kFwdBwd,
         "d8c3b7d0 0 events 436 replay 1 150 254 37 31 5 0 2 0 0 0 0 0 0"},
        {"rcu-table", 16, kFwd,
         "d8c3b7d0 0 events 2553 replay 196 2357 0 73 0 190 0 0 60 0 0 63 0 0"},
        {"rcu-table", 16, kFwdBwd,
         "d8c3b7d0 0 events 2481 replay 196 2274 11 73 0 190 60 235 163 123 0 66 119 0"},
        {"rcu-table", 1000, kFwd,
         "d8c3b7d0 0 events 1318 replay 2 1316 0 75 0 7 0 0 1 0 0 1 0 0"},
        {"rcu-table", 1000, kFwdBwd,
         "d8c3b7d0 0 events 1609 replay 2 1312 295 75 0 7 1 4 1 2 0 1 2 0"},
        {"cherokee-0.9.2", 16, kFwd,
         "39294ad8 2 events 35372 replay 2975 32397 0 265 0 2813 0 0 722 0 0 1694 0 0"},
        {"cherokee-0.9.2", 16, kFwdBwd,
         "39294ad8 2 events 38507 replay 2975 30816 4716 265 0 2813 723 4321 1943 3394 104 1827 1517 0"},
        {"cherokee-0.9.2", 1000, kFwd,
         "d8c3b7d0 0 events 44565 replay 48 44517 0 269 0 51 0 0 10 0 0 12 0 0"},
        {"cherokee-0.9.2", 1000, kFwdBwd,
         "1c90d5d7 2 events 46444 replay 48 44490 1906 269 0 51 10 61 28 22 0 14 20 0"},
        {"pbzip2-0.9.4", 16, kFwd,
         "2902fb87 2 events 33394 replay 2544 30850 0 248 0 1962 0 0 405 0 0 1275 0 0"},
        {"pbzip2-0.9.4", 16, kFwdBwd,
         "2902fb87 2 events 36447 replay 2544 30105 3798 248 0 1962 395 3007 1078 2326 0 1333 702 0"},
        {"pbzip2-0.9.4", 1000, kFwd,
         "d8c3b7d0 0 events 37320 replay 40 37280 0 249 0 44 0 0 9 0 0 9 0 0"},
        {"pbzip2-0.9.4", 1000, kFwdBwd,
         "d8c3b7d0 0 events 39178 replay 40 37256 1882 249 0 44 9 53 25 18 0 9 18 0"},
        {"memcached", 16, kFwd,
         "d8c3b7d0 0 events 45400 replay 3946 41454 0 69 0 3777 0 0 1000 0 0 1773 0 0"},
        {"memcached", 16, kFwdBwd,
         "e881e739 2 events 48783 replay 3946 40333 4504 69 0 3777 978 5235 2629 3511 1048 1901 1988 0"},
        {"memcached", 1000, kFwd,
         "d8c3b7d0 0 events 55529 replay 62 55467 0 70 0 51 0 0 20 0 0 20 0 0"},
        {"memcached", 1000, kFwdBwd,
         "d8c3b7d0 0 events 58042 replay 62 55424 2556 70 0 51 20 64 50 38 0 23 39 0"},
        {"aget-bug2", 16, kFwd,
         "b7bea230 2 events 36827 replay 2740 34087 0 77 0 2554 0 0 454 0 0 1203 0 0"},
        {"aget-bug2", 16, kFwdBwd,
         "b7bea230 2 events 38987 replay 2740 33157 3090 77 0 2554 452 3510 1238 2166 0 1253 819 0"},
        {"aget-bug2", 1000, kFwd,
         "69eb5c22 2 events 40253 replay 44 40209 0 77 0 47 0 0 9 0 0 9 0 0"},
        {"aget-bug2", 1000, kFwdBwd,
         "69eb5c22 2 events 42162 replay 44 40185 1933 77 0 47 9 54 25 18 0 9 18 0"},
    };
    static const char *const kSubjects[] = {
        "mpmc-queue-racy", "event-loop",   "ptr-dispatch", "rcu-table",
        "cherokee-0.9.2",  "pbzip2-0.9.4", "memcached",    "aget-bug2",
    };
    constexpr uint64_t kSeed = 5000;
    // Each counter below is nonzero somewhere in the table, so the pin
    // reaches every branch that feeds one.
    replay::ReplayStats any;
    size_t checked = 0;
    for (const char *subject : kSubjects) {
        const auto w = workload::findWorkload(subject, 0.25);
        ASSERT_TRUE(w) << subject;
        for (const uint64_t period : {16ull, 1000ull}) {
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
                const std::string digest = replayDigest(r, *w->program);
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
    EXPECT_EQ(checked, 32u);
    EXPECT_GT(any.sampled, 0u);
    EXPECT_GT(any.recovered_forward, 0u);
    EXPECT_GT(any.recovered_backward, 0u);
    EXPECT_GT(any.recovered_pcrel, 0u);
    EXPECT_GT(any.recovered_constant, 0u);
    EXPECT_GT(any.windows, 0u);
    EXPECT_GT(any.inconsistent_windows, 0u);
    EXPECT_GT(any.backward_rounds, 0u);
    EXPECT_GT(any.violations_branch, 0u);
    EXPECT_GT(any.violations_fact, 0u);
    EXPECT_GT(any.violations_sample, 0u);
    EXPECT_GT(any.violations_end, 0u);
    EXPECT_GT(any.violations_backward, 0u);
}

} // namespace
} // namespace prorace
