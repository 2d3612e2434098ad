/**
 * @file
 * Parameterized end-to-end properties of the full pipeline, swept over
 * all twelve Table 2 bugs and over seeds.
 */

#include <gtest/gtest.h>

#include <optional>

#include "analysis/analysis.hh"
#include "baseline/racez.hh"
#include "core/pipeline.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "workload/racybugs.hh"
#include "workload/registry.hh"

namespace prorace {
namespace {

/** Every Table 2 bug must be detectable by ProRace at period 100. */
class EveryBug : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryBug, ProRaceDetectsItAtDensePeriod)
{
    workload::Workload w = workload::makeRacyBug(GetParam(), 0.8);
    // Schedules are uncontrolled; a single trace may miss the race, so
    // allow a few attempts (the paper's Table 2 row is a probability).
    bool detected = false;
    for (uint64_t seed = 1; seed <= 4 && !detected; ++seed) {
        auto cfg = core::proRaceConfig(100, seed, w.pt_filter);
        auto result = core::runPipeline(*w.program, w.setup, cfg);
        detected = workload::bugDetected(w.bugs[0], result.offline.report);
    }
    EXPECT_TRUE(detected) << GetParam();
}

TEST_P(EveryBug, ReportNeverNamesTheProtectedCounter)
{
    // The properly locked stats counter must never be reported, at any
    // period: reconstructed traces must not break the lock's ordering.
    workload::Workload w = workload::makeRacyBug(GetParam(), 0.5);
    const uint64_t safe = w.program->symbol("safe_counter").addr;
    for (uint64_t period : {100ull, 10000ull}) {
        auto cfg = core::proRaceConfig(period, 3, w.pt_filter);
        auto result = core::runPipeline(*w.program, w.setup, cfg);
        EXPECT_FALSE(result.offline.report.containsAddressRange(safe, 8))
            << GetParam() << " period " << period;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table2, EveryBug, ::testing::ValuesIn(workload::racyBugIds()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-' || c == '.')
                c = '_';
        }
        return name;
    });

/** Reconstruction exactness must hold across machine seeds. */
class SeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SeedSweep, ReconstructedAccessesAreNeverPhantom)
{
    // Every reconstructed (tid, insn, addr, width, is_write, is_atomic)
    // must have occurred in the real execution: reconstruction may be
    // incomplete, never wrong. The subjects cover every access shape
    // forward replay has a rule for: plain accesses (cherokee-0.9.2),
    // acquire loads, release stores and acq_rel RMWs (mpmc-queue,
    // event-loop), and indirect dispatch over heap buffers
    // (ptr-dispatch, replayed with its ProgramAnalysis fact tables).
    struct Subject {
        workload::Workload w;
        bool with_analysis;
    };
    const Subject subjects[] = {
        {workload::makeRacyBug("cherokee-0.9.2", 0.4), false},
        {*workload::findWorkload("mpmc-queue", 0.25), false},
        {*workload::findWorkload("event-loop", 0.25), false},
        {*workload::findWorkload("ptr-dispatch", 0.25), true},
    };
    for (const Subject &subject : subjects) {
        const workload::Workload &w = subject.w;
        SCOPED_TRACE(w.name);
        vm::MachineConfig mcfg;
        mcfg.seed = GetParam();
        mcfg.record_memory_log = true;
        driver::TraceConfig tcfg;
        tcfg.pebs_period = 150;
        tcfg.seed = GetParam() * 31;
        tcfg.pt.filter = w.pt_filter;

        vm::Machine machine(*w.program, mcfg);
        driver::TracingSession tracing(tcfg, mcfg.num_cores);
        machine.setObserver(&tracing);
        w.setup(machine);
        machine.run();
        trace::RunTrace trace = tracing.finish();
        for (uint32_t tid = 0; tid < machine.numThreads(); ++tid) {
            trace.meta.threads.push_back(
                {tid, machine.thread(tid).entry_ip});
        }

        using Access = std::tuple<uint32_t, uint64_t, uint8_t, bool, bool>;
        std::map<uint32_t, std::set<Access>> truth;
        for (const auto &e : machine.memoryLog()) {
            truth[e.tid].insert(
                {e.insn_index, e.addr, e.width, e.is_write, e.is_atomic});
        }

        std::optional<analysis::ProgramAnalysis> analysis;
        replay::ReplayConfig config;
        if (subject.with_analysis)
            config.analysis = &analysis.emplace(*w.program);
        auto paths = pmu::decodePt(*w.program, trace.meta.pt_filter, trace);
        auto aligns = replay::alignTrace(*w.program, paths, trace);
        replay::Replayer rep(*w.program, config);
        auto accesses = rep.replayAll(paths, aligns, trace);
        ASSERT_GT(accesses.size(), 100u);
        for (const auto &a : accesses) {
            EXPECT_TRUE(truth[a.tid].count(
                {a.insn_index, a.addr, a.width, a.is_write, a.is_atomic}))
                << "phantom access: tid " << a.tid << " insn #"
                << a.insn_index << " addr 0x" << std::hex << a.addr
                << std::dec << " width " << unsigned{a.width}
                << (a.is_write ? " write" : " read")
                << (a.is_atomic ? " atomic" : "") << " ("
                << detect::accessOriginName(a.origin) << ")";
        }
    }
}

TEST_P(SeedSweep, SyncTimestampsRespectCausality)
{
    // The machine's sync records for one mutex must be interleaving-
    // consistent: lock regions never overlap and TSCs never run
    // backwards in record order (the invariant-TSC property the offline
    // merge relies on).
    workload::Workload w = workload::makeRacyBug("mysql-644", 0.4);
    vm::MachineConfig mcfg;
    mcfg.seed = GetParam();
    driver::TraceConfig tcfg;
    tcfg.pebs_period = 300;
    tcfg.pt.filter = w.pt_filter;
    vm::Machine machine(*w.program, mcfg);
    driver::TracingSession tracing(tcfg, mcfg.num_cores);
    machine.setObserver(&tracing);
    w.setup(machine);
    machine.run();
    trace::RunTrace trace = tracing.finish();

    const uint64_t mtx = w.program->symbol("mtx").addr;
    int64_t holder = -1;
    uint64_t last_tsc = 0;
    for (const auto &s : trace.sync) {
        if (s.object != mtx)
            continue;
        EXPECT_GE(s.tsc, last_tsc) << "TSC ran backwards";
        last_tsc = s.tsc;
        if (s.kind == vm::SyncKind::kLock) {
            EXPECT_EQ(holder, -1) << "overlapping critical sections";
            holder = s.tid;
        } else if (s.kind == vm::SyncKind::kUnlock) {
            EXPECT_EQ(holder, static_cast<int64_t>(s.tid));
            holder = -1;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
} // namespace prorace
