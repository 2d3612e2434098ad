/**
 * @file
 * Serial/parallel equivalence of the offline-analysis engine: for every
 * workload, seed, and thread count, OfflineAnalyzer with num_threads > 0
 * must produce a byte-identical race report, identical pipeline
 * statistics (everything except the wall-clock timers) and identical
 * checkpoint-hook traffic to the serial stages on the same trace.
 */

#include <gtest/gtest.h>

#include "asmkit/builder.hh"
#include "core/pipeline.hh"
#include "support/journal.hh"
#include "workload/racybugs.hh"

namespace prorace {
namespace {

using asmkit::Program;
using asmkit::ProgramBuilder;
using isa::CondCode;
using isa::Reg;

const unsigned kThreadCounts[] = {1, 2, 8};

/**
 * Analyze @p run serially and with @p num_threads workers; every
 * non-timing field of the results must match exactly.
 */
void
expectEquivalent(const Program &program, const trace::RunTrace &run,
                 const core::OfflineOptions &base, unsigned num_threads,
                 const char *label, int *regeneration_rounds = nullptr)
{
    SCOPED_TRACE(std::string(label) + ", num_threads=" +
                 std::to_string(num_threads));

    core::OfflineOptions serial_opt = base;
    serial_opt.num_threads = 0;
    core::OfflineAnalyzer serial(program, serial_opt);
    core::OfflineResult s = serial.analyze(run);
    if (regeneration_rounds)
        *regeneration_rounds = s.regeneration_rounds;

    core::OfflineOptions parallel_opt = base;
    parallel_opt.num_threads = num_threads;
    core::OfflineAnalyzer parallel(program, parallel_opt);
    core::OfflineResult p = parallel.analyze(run);

    // The report, byte for byte.
    EXPECT_EQ(s.report.format(&program), p.report.format(&program));
    EXPECT_EQ(s.report.size(), p.report.size());

    // The extended trace and the regeneration trajectory.
    EXPECT_EQ(s.extended_trace_events, p.extended_trace_events);
    EXPECT_EQ(s.regeneration_rounds, p.regeneration_rounds);

    // Decode stats.
    EXPECT_EQ(s.decode_stats.packets, p.decode_stats.packets);
    EXPECT_EQ(s.decode_stats.path_entries, p.decode_stats.path_entries);

    // Alignment stats.
    EXPECT_EQ(s.align_stats.samples_matched,
              p.align_stats.samples_matched);
    EXPECT_EQ(s.align_stats.samples_unmatched,
              p.align_stats.samples_unmatched);
    EXPECT_EQ(s.align_stats.candidates_rejected,
              p.align_stats.candidates_rejected);

    // Replay stats, every counter.
    EXPECT_EQ(s.replay_stats.sampled, p.replay_stats.sampled);
    EXPECT_EQ(s.replay_stats.recovered_forward,
              p.replay_stats.recovered_forward);
    EXPECT_EQ(s.replay_stats.recovered_backward,
              p.replay_stats.recovered_backward);
    EXPECT_EQ(s.replay_stats.recovered_pcrel,
              p.replay_stats.recovered_pcrel);
    EXPECT_EQ(s.replay_stats.windows, p.replay_stats.windows);
    EXPECT_EQ(s.replay_stats.inconsistent_windows,
              p.replay_stats.inconsistent_windows);
    EXPECT_EQ(s.replay_stats.backward_rounds,
              p.replay_stats.backward_rounds);
    EXPECT_EQ(s.replay_stats.violations_branch,
              p.replay_stats.violations_branch);
    EXPECT_EQ(s.replay_stats.violations_fact,
              p.replay_stats.violations_fact);
    EXPECT_EQ(s.replay_stats.violations_sample,
              p.replay_stats.violations_sample);
    EXPECT_EQ(s.replay_stats.violations_end,
              p.replay_stats.violations_end);
    EXPECT_EQ(s.replay_stats.violations_backward,
              p.replay_stats.violations_backward);

    // Detection stats (identical feed => identical FastTrack path mix).
    EXPECT_EQ(s.detect_stats.reads, p.detect_stats.reads);
    EXPECT_EQ(s.detect_stats.writes, p.detect_stats.writes);
    EXPECT_EQ(s.detect_stats.sync_ops, p.detect_stats.sync_ops);
    EXPECT_EQ(s.detect_stats.epoch_fast_path,
              p.detect_stats.epoch_fast_path);
    EXPECT_EQ(s.detect_stats.read_shares, p.detect_stats.read_shares);
}

/**
 * The §5.1 regeneration subject: two workers race on a global counter
 * whose stored value the replay reads back within the same window (the
 * global's address is a literal, so the emulated load succeeds), which
 * marks the racy location *consumed* and triggers the blacklist-and-
 * replay loop.
 */
Program
globalRaceProgram()
{
    ProgramBuilder b;
    b.globalU64("counter", 0);
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
    b.load(Reg::rax, b.symRef("counter"));
    b.addri(Reg::rax, 1);
    b.store(b.symRef("counter"), Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 300);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    return b.build();
}

TEST(ParallelOffline, MatchesSerialOnRacyBugWorkloads)
{
    // Two real-app bug subjects, several seeds, all thread counts.
    for (const char *name : {"cherokee-0.9.2", "pbzip2-0.9.5"}) {
        workload::Workload w = workload::makeRacyBug(name, 0.4);
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            auto cfg = core::proRaceConfig(100, seed, w.pt_filter);
            auto run =
                core::Session::run(*w.program, w.setup, cfg.session);
            for (unsigned n : kThreadCounts) {
                expectEquivalent(*w.program, run.trace, cfg.offline, n,
                                 name);
            }
        }
    }
}

TEST(ParallelOffline, MatchesSerialThroughRegenerationRounds)
{
    // The racy-bug scenario whose report triggers the §5.1
    // regeneration loop: the blacklist trajectory — and hence the
    // round count — must be identical too.
    Program p = globalRaceProgram();
    bool saw_regeneration = false;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        auto cfg = core::proRaceConfig(25, seed);
        auto run = core::Session::run(
            p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
        for (unsigned n : kThreadCounts) {
            int rounds = 0;
            expectEquivalent(p, run.trace, cfg.offline, n,
                             "global-race", &rounds);
            saw_regeneration = saw_regeneration || rounds > 0;
        }
    }
    EXPECT_TRUE(saw_regeneration)
        << "no seed exercised the regeneration loop; the equivalence "
           "coverage is weaker than intended";
}

TEST(ParallelOffline, MatchesSerialOnRaceFreeWorkload)
{
    // A clean subject: both engines must agree on the empty report and
    // on every counter along the way.
    workload::Workload w = workload::makeRacyBug("apache-21287", 0.4);
    auto cfg = core::proRaceConfig(200, 9, w.pt_filter);
    auto run = core::Session::run(*w.program, w.setup, cfg.session);
    for (unsigned n : kThreadCounts)
        expectEquivalent(*w.program, run.trace, cfg.offline, n,
                         "apache-21287");
}

TEST(ParallelOffline, ZeroThreadsDelegatesToSerialEngine)
{
    workload::Workload w = workload::makeRacyBug("pfscan", 0.4);
    auto cfg = core::proRaceConfig(100, 2, w.pt_filter);
    auto run = core::Session::run(*w.program, w.setup, cfg.session);

    ASSERT_EQ(cfg.offline.num_threads, 0u);
    core::OfflineAnalyzer serial(*w.program, cfg.offline);
    core::OfflineResult s = serial.analyze(run.trace);
    // The serial stages ran no executor tasks...
    EXPECT_EQ(serial.executorStats().executed, 0u);

    // ...and the parallel ones did, reporting the same races.
    core::OfflineOptions par_opt = cfg.offline;
    par_opt.num_threads = 2;
    core::OfflineAnalyzer parallel(*w.program, par_opt);
    core::OfflineResult p = parallel.analyze(run.trace);
    EXPECT_GT(parallel.executorStats().executed, 0u);
    EXPECT_EQ(p.report.format(w.program.get()),
              s.report.format(w.program.get()));
}

TEST(ParallelOffline, PoisonedWindowIsQuarantinedAlone)
{
    // A sample whose recorded address wraps the address space makes its
    // window's replay throw (the ProgramMap span check). The fan-out
    // re-runs the failed task's windows one at a time and gives up only
    // the poisoned window; the rest of its thread still reconstructs.
    Program p = globalRaceProgram();
    auto cfg = core::proRaceConfig(25, 1);
    auto run = core::Session::run(
        p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
    const auto paths = pmu::decodePt(p, pmu::PtFilter::all(), run.trace);
    const auto alignments = replay::alignTrace(p, paths, run.trace);
    const replay::ThreadAlignment *victim = nullptr;
    for (const auto &[tid, alignment] : alignments) {
        if (alignment.samples.size() >= 3)
            victim = &alignment;
    }
    ASSERT_NE(victim, nullptr);

    core::OfflineOptions opt = cfg.offline;
    opt.num_threads = 2;
    opt.max_regeneration_rounds = 0;
    const core::OfflineResult clean =
        core::OfflineAnalyzer(p, opt).analyze(run.trace);
    EXPECT_EQ(clean.quarantine.window_retries, 0u);

    trace::RunTrace poisoned = run.trace;
    const size_t mid = victim->samples.size() / 2;
    poisoned.pebs[victim->samples[mid].record_index].addr = ~uint64_t{0};
    const core::OfflineResult r =
        core::OfflineAnalyzer(p, opt).analyze(poisoned);
    EXPECT_EQ(r.quarantine.windows_quarantined, 1u);
    // Every window of the failed task was re-run, the poisoned one too.
    EXPECT_GT(r.quarantine.window_retries, 1u);
    EXPECT_EQ(r.replay_stats.windows + 1, clean.replay_stats.windows);
    EXPECT_LT(r.extended_trace_events, clean.extended_trace_events);
    EXPECT_GT(r.extended_trace_events, clean.extended_trace_events / 2);
}

/** What the checkpoint hooks saw during one analyze() call. */
struct HookTrace {
    std::string report;
    uint64_t ticks = 0;
    /** (feed cursor, feed total) of every on_boundary call, in order. */
    std::vector<std::pair<uint64_t, uint64_t>> boundaries;
    /** The detector image serialized at each boundary. */
    std::vector<std::vector<uint8_t>> images;
};

HookTrace
analyzeWithHooks(const Program &program, const trace::RunTrace &run,
                 core::OfflineOptions opt)
{
    HookTrace seen;
    opt.checkpoint.tick = [&seen] { ++seen.ticks; };
    opt.checkpoint.on_boundary =
        [&seen](uint64_t cursor, uint64_t total,
                 detect::IncrementalFastTrack &detector) {
            support::ByteWriter writer;
            detector.serializeState(writer);
            seen.boundaries.emplace_back(cursor, total);
            seen.images.push_back(writer.take());
        };
    core::OfflineAnalyzer analyzer(program, opt);
    seen.report = analyzer.analyze(run).report.format(&program);
    return seen;
}

TEST(ParallelOffline, CheckpointHooksFireAsInSerialRun)
{
    // The deadline tick, the boundary cursor sequence and warm-start
    // restore must behave identically however the stages before
    // detection ran.
    workload::Workload w = workload::makeRacyBug("pbzip2-0.9.5", 0.4);
    auto cfg = core::proRaceConfig(8, 1, w.pt_filter);
    auto run = core::Session::run(*w.program, w.setup, cfg.session);
    core::OfflineOptions streaming = cfg.offline;
    streaming.incremental.enabled = true;
    streaming.incremental.batch_events = 256;

    streaming.num_threads = 0;
    const HookTrace serial =
        analyzeWithHooks(*w.program, run.trace, streaming);
    ASSERT_GT(serial.boundaries.size(), 2u);
    ASSERT_GT(serial.ticks, 0u);
    const size_t mid = serial.boundaries.size() / 2;

    for (unsigned n : kThreadCounts) {
        SCOPED_TRACE("num_threads=" + std::to_string(n));
        streaming.num_threads = n;
        const HookTrace par =
            analyzeWithHooks(*w.program, run.trace, streaming);
        EXPECT_EQ(par.report, serial.report);
        EXPECT_EQ(par.ticks, serial.ticks);
        EXPECT_EQ(par.boundaries, serial.boundaries);

        // Warm-start from the serial run's mid-feed image.
        core::OfflineOptions resume = streaming;
        bool resumed = false;
        resume.checkpoint.restore = &serial.images[mid];
        resume.checkpoint.resume_events = serial.boundaries[mid].first;
        resume.checkpoint.resume_feed_total =
            serial.boundaries[mid].second;
        resume.checkpoint.resumed = &resumed;
        core::OfflineAnalyzer analyzer(*w.program, resume);
        const core::OfflineResult restored = analyzer.analyze(run.trace);
        EXPECT_TRUE(resumed);
        EXPECT_EQ(restored.report.format(w.program.get()), serial.report);
    }
}

} // namespace
} // namespace prorace
