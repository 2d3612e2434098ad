/**
 * Placement equivalence of the offline-analysis engine. OfflineAnalyzer
 * runs one decode routine and one reconstruction routine at every
 * num_threads; the thread count only decides whether decode shards and
 * replay tasks run on the calling thread (0) or on N executor workers.
 * For every workload, seed, and thread count, the executor placement
 * must produce a byte-identical race report, identical pipeline
 * statistics (everything except the wall-clock timers and the paged
 * ProgramMap counters), identical replay quarantine and the same
 * number of deadline ticks as the calling-thread placement on the same
 * trace. The layered reference check also runs every subject in
 * RaceZ's basic-block mode, whose plan holds sample tasks only.
 */

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "asmkit/builder.hh"
#include "core/pipeline.hh"
#include "workload/racybugs.hh"
#include "workload/registry.hh"

namespace prorace {
namespace {

using asmkit::Program;
using asmkit::ProgramBuilder;
using isa::CondCode;
using isa::Reg;

const unsigned kThreadCounts[] = {1, 2, 8};

/** Every PrefilterStats field. */
void
expectSamePrefilter(const core::PrefilterStats &a,
                    const core::PrefilterStats &b)
{
    EXPECT_EQ(a.enabled, b.enabled);
    EXPECT_EQ(a.analysis_sound, b.analysis_sound);
    EXPECT_EQ(a.sites_total, b.sites_total);
    EXPECT_EQ(a.sites_thread_local, b.sites_thread_local);
    EXPECT_EQ(a.events_seen, b.events_seen);
    EXPECT_EQ(a.pruned_stack_implicit, b.pruned_stack_implicit);
    EXPECT_EQ(a.pruned_stack_direct, b.pruned_stack_direct);
}

/**
 * Every FastTrackStats counter. The epoch, share and probe counters
 * depend on the order of the feed, not only on its contents.
 */
void
expectSameDetection(const detect::FastTrackStats &a,
                    const detect::FastTrackStats &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.sync_ops, b.sync_ops);
    EXPECT_EQ(a.epoch_fast_path, b.epoch_fast_path);
    EXPECT_EQ(a.read_shares, b.read_shares);
    EXPECT_EQ(a.vc_spills, b.vc_spills);
    EXPECT_EQ(a.shadow_slots, b.shadow_slots);
    EXPECT_EQ(a.shadow_capacity, b.shadow_capacity);
    EXPECT_EQ(a.shadow_lookups, b.shadow_lookups);
    EXPECT_EQ(a.shadow_probe_steps, b.shadow_probe_steps);
}

/**
 * Analyze @p run on the calling thread and with @p num_threads workers;
 * every non-timing field of the results must match exactly.
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
    EXPECT_EQ(s.align_stats.candidates_examined,
              p.align_stats.candidates_examined);
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
    EXPECT_EQ(s.replay_stats.samples_out_of_program,
              p.replay_stats.samples_out_of_program);
    EXPECT_EQ(s.replay_stats.forward_steps, p.replay_stats.forward_steps);
    EXPECT_EQ(s.replay_stats.forward_unresolved_steps,
              p.replay_stats.forward_unresolved_steps);
    EXPECT_EQ(s.replay_stats.forward_resumed_steps,
              p.replay_stats.forward_resumed_steps);
    EXPECT_EQ(s.replay_stats.backward_steps, p.replay_stats.backward_steps);

    // Prefilter and detection stats (pruning runs on the replay lanes;
    // identical feed => identical FastTrack path mix).
    expectSamePrefilter(s.prefilter, p.prefilter);
    expectSameDetection(s.detect_stats, p.detect_stats);

    // Window quarantine.
    EXPECT_EQ(s.quarantine.window_retries, p.quarantine.window_retries);
    EXPECT_EQ(s.quarantine.windows_quarantined,
              p.quarantine.windows_quarantined);
}

/**
 * The §5.1 regeneration subject: two workers race on a global counter
 * whose stored value the replay reads back within the same window (the
 * global's address is a literal, so the emulated load succeeds), which
 * marks the racy location *consumed* and triggers the blacklist-and-
 * replay loop. Each loop iteration is 6 path positions.
 */
Program
globalRaceProgram(int64_t iterations = 300)
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
    b.cmpri(Reg::rcx, iterations);
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

TEST(ParallelOffline, ZeroThreadsRunNoExecutorTasks)
{
    workload::Workload w = workload::makeRacyBug("pfscan", 0.4);
    auto cfg = core::proRaceConfig(100, 2, w.pt_filter);
    auto run = core::Session::run(*w.program, w.setup, cfg.session);

    ASSERT_EQ(cfg.offline.num_threads, 0u);
    core::OfflineAnalyzer serial(*w.program, cfg.offline);
    core::OfflineResult s = serial.analyze(run.trace);
    // At 0 every decode shard and replay task ran on the calling
    // thread...
    EXPECT_EQ(serial.executorStats().executed, 0u);

    // ...and at 2 on the executor, reporting the same races.
    core::OfflineOptions par_opt = cfg.offline;
    par_opt.num_threads = 2;
    core::OfflineAnalyzer parallel(*w.program, par_opt);
    core::OfflineResult p = parallel.analyze(run.trace);
    EXPECT_GT(parallel.executorStats().executed, 0u);
    EXPECT_EQ(p.report.format(w.program.get()),
              s.report.format(w.program.get()));
}

/**
 * Window tasks the replay plan holds for @p tid, and the path position
 * the first one ends at.
 */
std::pair<size_t, uint64_t>
plannedTasks(const Program &program, const trace::RunTrace &run,
             uint32_t tid)
{
    const auto paths = pmu::decodePt(program, run.meta.pt_filter, run);
    const auto alignments = replay::alignTrace(program, paths, run);
    const replay::Replayer::Plan plan = replay::Replayer::plan(
        replay::ReplayMode::kForwardBackward, paths, alignments, run);
    size_t tasks = 0;
    uint64_t first_end = 0;
    for (const replay::Replayer::Task &t : plan.tasks) {
        if (t.windows.empty() || t.windows.front().tid != tid)
            continue;
        if (tasks++ == 0)
            first_end = t.windows.back().end;
    }
    return {tasks, first_end};
}

/** The thread with the most aligned samples. */
const replay::ThreadAlignment &
busiestThread(const std::map<uint32_t, replay::ThreadAlignment> &alignments)
{
    const replay::ThreadAlignment *best = nullptr;
    for (const auto &[tid, alignment] : alignments) {
        if (!best || alignment.samples.size() > best->samples.size())
            best = &alignment;
    }
    return *best;
}

TEST(ParallelOffline, PoisonedWindowIsQuarantinedAlone)
{
    // A sample whose recorded address wraps the address space makes its
    // window's replay throw (the ProgramMap span check). At every
    // num_threads, the failed task's windows are re-run one at a time
    // and only the poisoned window is given up; the rest of its thread
    // still reconstructs. Two inputs: a mid-thread sample of a one-task
    // thread, and a sample in the first of several tasks of a thread,
    // whose later tasks then replay on the failed lane's fresh Replayer.
    struct Input {
        const char *label;
        int64_t iterations;
        bool first_task;
    };
    for (const Input in : {Input{"mid-thread", 300, false},
                           Input{"first-of-many", 12000, true}}) {
        SCOPED_TRACE(in.label);
        Program p = globalRaceProgram(in.iterations);
        auto cfg = core::proRaceConfig(25, 1);
        auto run = core::Session::run(
            p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
        const auto paths =
            pmu::decodePt(p, run.trace.meta.pt_filter, run.trace);
        const auto alignments = replay::alignTrace(p, paths, run.trace);
        const replay::ThreadAlignment &victim = busiestThread(alignments);
        ASSERT_GE(victim.samples.size(), 3u);

        core::OfflineOptions opt = cfg.offline;
        opt.max_regeneration_rounds = 0;
        const core::OfflineResult clean =
            core::OfflineAnalyzer(p, opt).analyze(run.trace);
        EXPECT_EQ(clean.quarantine.window_retries, 0u);

        size_t poison = victim.samples.size() / 2;
        if (in.first_task) {
            const auto [tasks, first_end] =
                plannedTasks(p, run.trace, victim.tid);
            ASSERT_GE(tasks, 3u);
            poison = 1;
            ASSERT_LT(victim.samples[poison + 1].position, first_end);
        }
        trace::RunTrace poisoned = run.trace;
        poisoned.pebs[victim.samples[poison].record_index].addr =
            ~uint64_t{0};
        for (unsigned n : {0u, 1u, 2u, 8u}) {
            SCOPED_TRACE("num_threads=" + std::to_string(n));
            opt.num_threads = n;
            const core::OfflineResult r =
                core::OfflineAnalyzer(p, opt).analyze(poisoned);
            EXPECT_EQ(r.quarantine.windows_quarantined, 1u);
            // Every window of the failed task was re-run, the poisoned
            // one too.
            EXPECT_GT(r.quarantine.window_retries, 1u);
            EXPECT_EQ(r.replay_stats.windows + 1,
                      clean.replay_stats.windows);
            EXPECT_LT(r.extended_trace_events,
                      clean.extended_trace_events);
            EXPECT_GT(r.extended_trace_events,
                      clean.extended_trace_events / 2);
            if (n > 0)
                expectEquivalent(p, poisoned, opt, n, in.label);
        }
    }
}

/** What the reference composition of the public layer calls produced. */
struct LayeredResult {
    std::string report;
    uint64_t extended_trace_events = 0;
    int regeneration_rounds = 0;
    core::PrefilterStats prefilter; ///< summed over the rounds
    detect::FastTrackStats detect_stats; ///< of the last round
};

/**
 * analyze() composed from the public layer calls, one-shot detection,
 * the paper's §5.1 regeneration loop included: pmu::decodePt,
 * replay::alignTrace, Replayer::replayAll, the static prefilter and
 * detectRaces. The analyzer runs its own decode shards and window tasks
 * instead, prefilters on its replay lanes and never sorts the extended
 * trace by TSC, so this is the reference it must reproduce.
 */
LayeredResult
analyzeByLayer(const Program &program, const trace::RunTrace &run,
               const core::OfflineOptions &options)
{
    const analysis::ProgramAnalysis facts(program);
    replay::ReplayConfig config = options.replay;
    config.analysis = &facts;
    // RaceZ uses no PT: basic-block mode decodes and aligns nothing.
    std::map<uint32_t, pmu::ThreadPath> paths;
    std::map<uint32_t, replay::ThreadAlignment> alignments;
    if (config.mode != replay::ReplayMode::kBasicBlock) {
        paths = pmu::decodePt(program, run.meta.pt_filter, run);
        alignments = replay::alignTrace(program, paths, run, nullptr, &facts);
    }

    LayeredResult out;
    for (int round = 0;; ++round) {
        out.regeneration_rounds = round;
        replay::Replayer replayer(program, config);
        std::vector<replay::ReconstructedAccess> accesses =
            replayer.replayAll(paths, alignments, run);
        out.extended_trace_events = accesses.size();
        core::detail::applyStaticPrefilter(accesses, &facts,
                                           options.static_prefilter,
                                           out.prefilter);
        detect::RaceReport report;
        core::detail::detectRaces(run, alignments, accesses, report,
                                  out.detect_stats);
        out.report = report.format(&program);
        if (round >= options.max_regeneration_rounds)
            break;
        const auto additions = core::detail::regenerationBlacklist(
            report, replayer.consumedAddresses(), config.mem_blacklist);
        if (additions.empty())
            break;
        config.mem_blacklist.insert(config.mem_blacklist.end(),
                                    additions.begin(), additions.end());
    }
    return out;
}

/**
 * analyze() at 0 and 2 threads must equal analyzeByLayer() in the
 * report, the extended-trace size, the rounds and every prefilter and
 * detector counter, in the replay mode of @p base and in RaceZ's
 * basic-block mode.
 */
void
expectMatchesLayers(const Program &program, const trace::RunTrace &run,
                    const core::OfflineOptions &base, const char *label,
                    int *regeneration_rounds = nullptr)
{
    for (const replay::ReplayMode mode :
         {base.replay.mode, replay::ReplayMode::kBasicBlock}) {
        core::OfflineOptions opt = base;
        opt.replay.mode = mode;
        const LayeredResult ref = analyzeByLayer(program, run, opt);
        if (regeneration_rounds && mode == base.replay.mode)
            *regeneration_rounds = ref.regeneration_rounds;
        for (unsigned n : {0u, 2u}) {
            SCOPED_TRACE(std::string(label) + ", " +
                         replay::replayModeName(mode) +
                         ", num_threads=" + std::to_string(n));
            opt.num_threads = n;
            const core::OfflineResult r =
                core::OfflineAnalyzer(program, opt).analyze(run);
            EXPECT_EQ(r.report.format(&program), ref.report);
            EXPECT_EQ(r.extended_trace_events, ref.extended_trace_events);
            EXPECT_EQ(r.regeneration_rounds, ref.regeneration_rounds);
            expectSamePrefilter(r.prefilter, ref.prefilter);
            expectSameDetection(r.detect_stats, ref.detect_stats);
        }
    }
}

TEST(ReferenceComposition, RegistrySubjectsMatchAnalyze)
{
    for (const char *name :
         {"memcached", "kvchurn", "mysql-644", "mpmc-queue-racy"}) {
        auto w = workload::findWorkload(name, 0.3);
        ASSERT_TRUE(w.has_value()) << name;
        for (uint64_t seed : {1u, 2u}) {
            auto cfg = core::proRaceConfig(32, seed, w->pt_filter);
            auto run = core::Session::run(*w->program, w->setup,
                                          cfg.session);
            expectMatchesLayers(*w->program, run.trace, cfg.offline, name);
        }
    }
}

TEST(ReferenceComposition, RegenerationRoundsMatchAnalyze)
{
    Program p = globalRaceProgram();
    bool saw_regeneration = false;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        auto cfg = core::proRaceConfig(25, seed);
        auto run = core::Session::run(
            p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
        int rounds = 0;
        expectMatchesLayers(p, run.trace, cfg.offline, "global-race",
                            &rounds);
        saw_regeneration = saw_regeneration || rounds > 0;
    }
    EXPECT_TRUE(saw_regeneration)
        << "no seed exercised the regeneration loop";
}

/**
 * Two workers that each push and pop a loop counter (stack accesses the
 * prefilter prunes), add to a shared counter with an atomic RMW (its
 * read and write halves share one path position) and store to a shared
 * flag unprotected. @p main_load is set to a load only main executes,
 * @p flag_store to the workers' store.
 */
Program
orderingProgram(uint32_t &main_load, uint32_t &flag_store)
{
    ProgramBuilder b;
    b.globalU64("counter", 0);
    b.globalU64("flag", 0);
    b.label("main");
    b.movri(Reg::r12, 0);
    main_load = b.load(Reg::rax, b.symRef("flag"));
    b.spawn(Reg::r8, "worker", Reg::r12);
    b.spawn(Reg::r9, "worker", Reg::r12);
    b.join(Reg::r8);
    b.join(Reg::r9);
    b.halt();
    b.beginFunction("worker");
    b.movri(Reg::rcx, 0);
    b.movri(Reg::rbx, 1);
    b.label("loop");
    b.push(Reg::rcx);
    b.atomicRmw(isa::AluOp::kAdd, Reg::rax, b.symRef("counter"), Reg::rbx);
    flag_store = b.store(b.symRef("flag"), Reg::rcx);
    b.pop(Reg::rcx);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, 400);
    b.jcc(CondCode::kLt, "loop");
    b.halt();
    return b.build();
}

/** (tsc, tid, position): the order Replayer::sortByTsc establishes. */
bool
tscBefore(const replay::ReconstructedAccess &a,
          const replay::ReconstructedAccess &b)
{
    if (a.tsc != b.tsc)
        return a.tsc < b.tsc;
    if (a.tid != b.tid)
        return a.tid < b.tid;
    return a.position < b.position;
}

TEST(ReferenceComposition, UnsortedPlanOrderMatchesSortedLayers)
{
    // The analyzer hands detection its accesses in plan order; the
    // layered reference sorts them by TSC first. Here the plan order is
    // far from sorted: one sample of each worker is made unmatchable
    // (it names main's load) and dated before every window access, so
    // its task, which follows its thread's window tasks, carries the
    // oldest accesses of the run, and the two share one TSC. A second
    // unmatchable sample of the first worker copies the TSC and the
    // access of one of its matched flag-store samples, so at one TSC
    // that thread's plan order puts a window access (position > 0)
    // before the sample (position 0); the first of the two in the feed
    // is the one FastTrack keeps as the thread's last write.
    uint32_t main_load = 0;
    uint32_t flag_store = 0;
    const Program p = orderingProgram(main_load, flag_store);
    auto cfg = core::proRaceConfig(16, 3);
    auto run = core::Session::run(
        p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
    trace::RunTrace &trace = run.trace;
    ASSERT_FALSE(trace.sync.empty());
    uint64_t oldest = trace.sync.front().tsc;
    for (const trace::SyncRecord &s : trace.sync)
        oldest = std::min(oldest, s.tsc);
    std::map<uint32_t, std::vector<size_t>> records;
    for (size_t i = 0; i < trace.pebs.size(); ++i)
        records[trace.pebs[i].tid].push_back(i);
    size_t moved = 0;
    uint64_t tie = 0;
    for (const auto &[tid, indices] : records) {
        if (tid == 0 || indices.size() < 8)
            continue;
        trace::PebsRecord &rec = trace.pebs[indices[indices.size() / 2]];
        rec.insn_index = main_load;
        rec.tsc = oldest;
        if (moved++ > 0)
            continue;
        auto store = std::find_if(
            indices.begin(), indices.begin() + indices.size() / 2,
            [&](size_t i) { return trace.pebs[i].insn_index == flag_store; });
        ASSERT_NE(store, indices.begin() + indices.size() / 2);
        const trace::PebsRecord matched = trace.pebs[*store];
        trace::PebsRecord &late = trace.pebs[indices[indices.size() - 2]];
        late.insn_index = main_load;
        late.tsc = tie = matched.tsc;
        late.addr = matched.addr;
        late.width = matched.width;
        late.is_write = matched.is_write;
    }
    ASSERT_EQ(moved, 2u);

    // Check the premises on the plan-order sequence.
    const analysis::ProgramAnalysis facts(p);
    const auto paths = pmu::decodePt(p, trace.meta.pt_filter, trace);
    const auto alignments =
        replay::alignTrace(p, paths, trace, nullptr, &facts);
    const replay::Replayer::Plan plan = replay::Replayer::plan(
        replay::ReplayMode::kForwardBackward, paths, alignments, trace);
    replay::ReplayConfig config = cfg.offline.replay;
    config.analysis = &facts;
    replay::Replayer replayer(p, config);
    std::vector<replay::ReconstructedAccess> accesses;
    for (const replay::Replayer::Task &t : plan.tasks)
        replayer.replayTask(t, 0, t.units(), accesses);
    EXPECT_FALSE(std::is_sorted(accesses.begin(), accesses.end(), tscBefore));

    uint64_t oldest_window = UINT64_MAX;
    std::set<uint32_t> unmatched_tids;
    std::set<uint32_t> tie_windows; ///< tids with a window access at tie
    bool position_tie = false;
    bool rmw_halves = false;
    for (size_t i = 0; i < accesses.size(); ++i) {
        const replay::ReconstructedAccess &a = accesses[i];
        if (a.insn_index == main_load && a.tid != 0) {
            if (a.tsc == oldest)
                unmatched_tids.insert(a.tid);
            else
                position_tie = a.tsc == tie && tie_windows.count(a.tid);
            continue;
        }
        if (a.tsc == tie && a.position > 0)
            tie_windows.insert(a.tid);
        oldest_window = std::min(oldest_window, a.tsc);
        if (i > 0) {
            const replay::ReconstructedAccess &prev = accesses[i - 1];
            rmw_halves = rmw_halves ||
                (a.is_atomic && prev.is_atomic && a.tid == prev.tid &&
                 a.position == prev.position && a.tsc == prev.tsc &&
                 !prev.is_write && a.is_write);
        }
    }
    EXPECT_EQ(unmatched_tids.size(), 2u);
    EXPECT_LT(oldest, oldest_window);
    EXPECT_TRUE(position_tie);
    EXPECT_TRUE(rmw_halves);

    for (const bool prefilter : {true, false}) {
        SCOPED_TRACE(prefilter ? "prefilter on" : "prefilter off");
        core::OfflineOptions opt = cfg.offline;
        opt.static_prefilter = prefilter;
        const core::OfflineResult r = core::OfflineAnalyzer(p, opt).analyze(
            trace);
        EXPECT_FALSE(r.report.empty());
        EXPECT_EQ(r.prefilter.pruned() > 0, prefilter);
        expectMatchesLayers(p, trace, opt, "ordering");
    }
}

/** What the deadline tick saw during one analyze() call. */
struct HookTrace {
    std::string report;
    uint64_t ticks = 0;
};

HookTrace
analyzeWithHooks(const Program &program, const trace::RunTrace &run,
                 core::OfflineOptions opt)
{
    HookTrace seen;
    opt.checkpoint.tick = [&seen] { ++seen.ticks; };
    core::OfflineAnalyzer analyzer(program, opt);
    seen.report = analyzer.analyze(run).report.format(&program);
    return seen;
}

TEST(ParallelOffline, DeadlineTickFiresAsInSerialRun)
{
    // The deadline tick (after every replay task and at every detection
    // batch boundary) must fire identically however the stages before
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
    ASSERT_GT(serial.ticks, 0u);

    for (unsigned n : kThreadCounts) {
        SCOPED_TRACE("num_threads=" + std::to_string(n));
        streaming.num_threads = n;
        const HookTrace par =
            analyzeWithHooks(*w.program, run.trace, streaming);
        EXPECT_EQ(par.report, serial.report);
        EXPECT_EQ(par.ticks, serial.ticks);
    }
}

TEST(ParallelOffline, DeadlineTickFiresAfterEveryReplayTask)
{
    // With one batch spanning the whole feed, detection ticks once (at
    // end of feed); every other tick follows a decoded PT stream, an
    // aligned thread or a committed replay task. At N > 0 each of those
    // is one executor task, so the run ticks submitted + 1 times, and
    // the same count at every num_threads.
    Program p = globalRaceProgram(12000);
    auto cfg = core::proRaceConfig(25, 1);
    auto run = core::Session::run(
        p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
    core::OfflineOptions opt = cfg.offline;
    opt.max_regeneration_rounds = 0;
    opt.incremental.enabled = true;
    opt.incremental.batch_events = UINT64_MAX;

    opt.num_threads = 0;
    const HookTrace serial = analyzeWithHooks(p, run.trace, opt);
    EXPECT_GT(serial.ticks, 4u);
    for (unsigned n : {1u, 2u, 8u}) {
        SCOPED_TRACE("num_threads=" + std::to_string(n));
        opt.num_threads = n;
        uint64_t ticks = 0;
        opt.checkpoint.tick = [&ticks] { ++ticks; };
        core::OfflineAnalyzer analyzer(p, opt);
        EXPECT_EQ(analyzer.analyze(run.trace).report.format(&p),
                  serial.report);
        EXPECT_EQ(ticks, analyzer.executorStats().submitted + 1);
        EXPECT_EQ(ticks, serial.ticks);
    }
}

TEST(ParallelOffline, ThrowingTickAbortsBeforeDetection)
{
    // A deadline that expires at the first tick stops the analysis in
    // the decode stage: analyze() throws after exactly one tick, after
    // the first PT stream, so alignment, replay and detection never
    // ran, and no task outlives the call.
    Program p = globalRaceProgram(12000);
    auto cfg = core::proRaceConfig(25, 1);
    auto run = core::Session::run(
        p, [](vm::Machine &m) { m.addThread("main"); }, cfg.session);
    for (unsigned n : {0u, 4u}) {
        SCOPED_TRACE("num_threads=" + std::to_string(n));
        core::OfflineOptions opt = cfg.offline;
        opt.num_threads = n;
        opt.incremental.enabled = true;
        uint64_t ticks = 0;
        opt.checkpoint.tick = [&ticks] {
            ++ticks;
            throw std::runtime_error("deadline");
        };
        core::OfflineAnalyzer analyzer(p, opt);
        EXPECT_THROW(analyzer.analyze(run.trace), std::runtime_error);
        EXPECT_EQ(ticks, 1u);
    }
}

} // namespace
} // namespace prorace
