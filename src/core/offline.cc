#include "core/offline.hh"

#include <algorithm>
#include <deque>
#include <optional>

#include "support/log.hh"
#include "support/timer.hh"
#include "trace/trace_file.hh"

namespace prorace::core {

using detect::AccessOrigin;
using replay::Replayer;
using vm::SyncKind;

static_assert(trace::kMaxThreads == detect::Epoch::kMaxThreads,
              "the decoder's tid limit must be the detector's");

namespace {

/** One entry of the merged detector feed. */
struct FeedEvent {
    uint64_t tsc = 0;
    uint8_t subrank = 1; ///< same-TSC tie-break: release < access < acquire
    uint32_t tid = 0;
    uint64_t position = 0;
    bool is_sync = false;
    size_t index = 0; ///< into the access vector or the sync trace
};

/**
 * Tie-break rank at equal TSC: happens-before sources (releases, exits,
 * spawns) sort before plain accesses, which sort before happens-before
 * sinks (acquires, joins, wakes).
 */
uint8_t
syncSubrank(SyncKind kind)
{
    switch (kind) {
      case SyncKind::kUnlock:
      case SyncKind::kCondWaitBegin:
      case SyncKind::kCondSignal:
      case SyncKind::kCondBroadcast:
      case SyncKind::kBarrierEnter:
      case SyncKind::kSpawn:
      case SyncKind::kThreadExit:
      case SyncKind::kRwUnlock:
      case SyncKind::kSemInit:
      case SyncKind::kSemPost:
      case SyncKind::kSpinUnlock:
      case SyncKind::kAtomicRelease:
        return 0;
      case SyncKind::kLock:
      case SyncKind::kCondWake:
      case SyncKind::kBarrierExit:
      case SyncKind::kJoin:
      case SyncKind::kThreadStart:
      case SyncKind::kRwRdLock:
      case SyncKind::kRwWrLock:
      case SyncKind::kSemWait:
      case SyncKind::kSpinLock:
      case SyncKind::kAtomicAcquire:
      case SyncKind::kAtomicAcqRel:
        return 2;
      default:
        return 1; // malloc/free order with accesses
    }
}

/**
 * Merge the reconstructed accesses (in any order) and the sync trace
 * into the TSC-ordered detector feed with the release < access <
 * acquire tie-break. One-shot and streaming detection consume the
 * identical feed, which is what makes their reports byte-identical.
 */
std::vector<FeedEvent>
buildFeed(const trace::RunTrace &run,
          const std::map<uint32_t, replay::ThreadAlignment> &alignments,
          const std::vector<replay::ReconstructedAccess> &accesses)
{
    // Per-thread positions of sync records (exact program order) let the
    // merge tie-break same-TSC events correctly; an unaligned record
    // keeps position 0.
    std::vector<uint64_t> sync_positions(run.sync.size(), 0);
    for (const auto &[tid, align] : alignments) {
        for (const auto &s : align.syncs) {
            if (s.record_index < sync_positions.size())
                sync_positions[s.record_index] = s.position;
        }
    }

    std::vector<FeedEvent> feed;
    feed.reserve(accesses.size() + run.sync.size());
    for (size_t i = 0; i < accesses.size(); ++i) {
        feed.push_back({accesses[i].tsc, 1, accesses[i].tid,
                        accesses[i].position, false, i});
    }
    for (size_t i = 0; i < run.sync.size(); ++i) {
        feed.push_back({run.sync[i].tsc, syncSubrank(run.sync[i].kind),
                        run.sync[i].tid, sync_positions[i], true, i});
    }
    // The run's one ordering pass. The accesses may come in replay-plan
    // order: every access has subrank 1 and the sort is stable, so the
    // feed is the one that replayAll's TSC-sorted output would give
    // (DESIGN.md §8.2).
    std::stable_sort(feed.begin(), feed.end(),
                     [](const FeedEvent &a, const FeedEvent &b) {
                         if (a.tsc != b.tsc)
                             return a.tsc < b.tsc;
                         if (a.subrank != b.subrank)
                             return a.subrank < b.subrank;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.position < b.position;
                     });
    return feed;
}

detect::MemAccess
toMemAccess(const replay::ReconstructedAccess &a)
{
    detect::MemAccess ma;
    ma.tid = a.tid;
    ma.addr = a.addr;
    ma.width = a.width;
    ma.is_write = a.is_write;
    ma.is_atomic = a.is_atomic;
    ma.insn_index = a.insn_index;
    ma.tsc = a.tsc;
    ma.origin = a.origin;
    return ma;
}

/** Dispatch one feed event into the detector. */
void
dispatchEvent(detect::FastTrack &ft, const FeedEvent &ev,
              const trace::RunTrace &run,
              const std::vector<replay::ReconstructedAccess> &accesses)
{
    if (!ev.is_sync) {
        ft.access(toMemAccess(accesses[ev.index]));
        return;
    }
    const trace::SyncRecord &s = run.sync[ev.index];
    switch (s.kind) {
      case SyncKind::kLock:
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kUnlock:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kCondWaitBegin:
        // Releases the associated mutex (aux) before blocking.
        ft.release(s.tid, s.aux);
        break;
      case SyncKind::kCondWake:
        // Reacquires the mutex and inherits the signaler's clock.
        ft.acquire(s.tid, s.aux);
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kCondSignal:
      case SyncKind::kCondBroadcast:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kBarrierEnter:
        ft.barrierEnter(s.tid, s.object);
        break;
      case SyncKind::kBarrierExit:
        ft.barrierExit(s.tid, s.object);
        break;
      case SyncKind::kSpawn:
        ft.fork(s.tid, static_cast<uint32_t>(s.aux));
        break;
      case SyncKind::kThreadStart:
        break; // the fork edge already transferred the clock
      case SyncKind::kThreadExit:
        ft.threadExit(s.tid, s.tsc);
        break;
      case SyncKind::kJoin:
        ft.join(s.tid, static_cast<uint32_t>(s.aux));
        break;
      case SyncKind::kMalloc:
        ft.allocate(s.tid, s.object, s.aux);
        break;
      case SyncKind::kFree:
        ft.deallocate(s.tid, s.object);
        break;
      case SyncKind::kRwRdLock:
        ft.readLock(s.tid, s.object);
        break;
      case SyncKind::kRwWrLock:
        ft.writeLock(s.tid, s.object);
        break;
      case SyncKind::kRwUnlock:
        // aux distinguishes the mode the lock was held in.
        if (s.aux)
            ft.writeUnlock(s.tid, s.object);
        else
            ft.readUnlock(s.tid, s.object);
        break;
      case SyncKind::kSemInit:
        ft.semInit(s.tid, s.object, s.aux);
        break;
      case SyncKind::kSemWait:
        ft.semWait(s.tid, s.object);
        break;
      case SyncKind::kSemPost:
        ft.semPost(s.tid, s.object);
        break;
      case SyncKind::kSpinLock:
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kSpinUnlock:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kAtomicAcquire:
        ft.acquire(s.tid, s.object);
        break;
      case SyncKind::kAtomicRelease:
        ft.release(s.tid, s.object);
        break;
      case SyncKind::kAtomicAcqRel:
        ft.acquireRelease(s.tid, s.object);
        break;
    }
}

/**
 * Erase the accesses of @p accesses from index @p from on whose site
 * @p analysis proves thread-local, keeping the rest in order, and count
 * the erased ones by site class in @p stats.
 */
void
pruneThreadLocal(const analysis::ProgramAnalysis &analysis,
                 std::vector<replay::ReconstructedAccess> &accesses,
                 size_t from, PrefilterStats &stats)
{
    auto keep = std::remove_if(
        accesses.begin() + static_cast<std::ptrdiff_t>(from), accesses.end(),
        [&](const replay::ReconstructedAccess &a) {
            if (!analysis.siteThreadLocal(a.insn_index))
                return false;
            using analysis::SiteClass;
            if (analysis.escape().site(a.insn_index) ==
                SiteClass::kStackImplicit) {
                ++stats.pruned_stack_implicit;
            } else {
                ++stats.pruned_stack_direct;
            }
            return true;
        });
    accesses.erase(keep, accesses.end());
}

/**
 * The prefilter's per-program fields of @p stats (enabled, soundness,
 * site counts); the site fields are left alone when @p analysis is
 * null.
 */
void
setPrefilterFacts(const analysis::ProgramAnalysis *analysis, bool enabled,
                  PrefilterStats &stats)
{
    if (analysis) {
        const analysis::StaticSummary sum = analysis->summary();
        stats.analysis_sound = sum.rsp_integrity && sum.no_stack_escape;
        stats.sites_total = sum.mem_sites;
        stats.sites_thread_local = sum.thread_local_sites;
    }
    // An unsound analysis classifies every site may-shared, so the scan
    // could never prune anything; skip it outright.
    stats.enabled = enabled && analysis != nullptr && stats.analysis_sound;
}

} // namespace

namespace detail {

void
detectRaces(const trace::RunTrace &run,
            const std::map<uint32_t, replay::ThreadAlignment> &alignments,
            const std::vector<replay::ReconstructedAccess> &accesses,
            detect::RaceReport &report, detect::FastTrackStats &stats)
{
    detect::FastTrack ft;
    detectRacesIncremental(run, alignments, accesses, ft);
    report = std::move(ft.report());
    stats = ft.stats();
}

void
detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::FastTrack &detector, const CheckpointHooks *hooks)
{
    const std::vector<FeedEvent> feed =
        buildFeed(run, alignments, accesses);

    // Batch boundaries, GC and the tick belong to streaming detection;
    // one-shot detection dispatches the feed straight through.
    const detect::IncrementalOptions &options = detector.options();
    const bool ticking = options.enabled && hooks && hooks->tick;

    uint64_t batch = UINT64_MAX; // one-shot: no boundaries
    if (options.enabled)
        batch = std::max<uint64_t>(options.batch_events, 1);
    uint64_t in_batch = 0;
    for (size_t i = 0; i < feed.size(); ++i) {
        dispatchEvent(detector, feed[i], run, accesses);
        if (++in_batch < batch)
            continue;
        // Every later event has tsc >= this one (the feed is sorted), so
        // this event's TSC is a valid retirement frontier.
        detector.batchBoundary(feed[i].tsc);
        in_batch = 0;
        if (ticking)
            hooks->tick();
    }
    if (!options.enabled)
        return;
    detector.finish();
    if (ticking)
        hooks->tick();
}

void
applyStaticPrefilter(std::vector<replay::ReconstructedAccess> &accesses,
                     const analysis::ProgramAnalysis *analysis,
                     bool enabled, PrefilterStats &stats)
{
    stats.events_seen += accesses.size();
    setPrefilterFacts(analysis, enabled, stats);
    if (stats.enabled)
        pruneThreadLocal(*analysis, accesses, 0, stats);
}

std::vector<std::pair<uint64_t, uint64_t>>
regenerationBlacklist(
    const detect::RaceReport &report,
    const std::unordered_set<uint64_t> &consumed,
    const std::vector<std::pair<uint64_t, uint64_t>> &existing)
{
    std::vector<std::pair<uint64_t, uint64_t>> additions;
    for (const detect::DataRace &race : report.races()) {
        bool used = false;
        for (uint64_t b = race.addr; b < race.addr + 8; ++b) {
            if (consumed.count(b)) {
                used = true;
                break;
            }
        }
        if (!used)
            continue;
        bool already = false;
        for (const auto &[addr, size] : existing) {
            if (race.addr >= addr && race.addr < addr + size)
                already = true;
        }
        if (!already)
            additions.emplace_back(race.addr, 8);
    }
    return additions;
}

} // namespace detail

namespace {

/** What a worker hands to the ordered commit. */
struct TaskResult {
    std::vector<replay::ReconstructedAccess> accesses; ///< prefiltered
    PrefilterStats prefilter; ///< the task's events seen and pruned
    bool ok = false;
};

/**
 * The Replayer one thread reuses for every task it runs, plus the
 * counters and consumed marks of the Replayers it retired. A lane also
 * applies the static prefilter to what each successful attempt
 * produced, so pruning runs where the replay ran.
 */
class Lane
{
  public:
    /** @p prune is the analysis to prefilter with, or null for none. */
    Lane(const asmkit::Program &program, const replay::ReplayConfig &config,
         const analysis::ProgramAnalysis *prune)
        : program_(program), config_(config), prune_(prune),
          replayer_(std::in_place, program, config)
    {
    }

    /**
     * Replay units [first, last) of @p t, append the accesses the
     * prefilter keeps to @p out, and count the accesses produced and
     * pruned in @p prefilter. A failed attempt leaves @p out, @p
     * prefilter and the counters as they were before it, but keeps its
     * consumed-address marks (a larger consumed set only makes §5.1
     * regeneration more conservative), and the lane goes on with a
     * fresh Replayer, since a throw may leave scratch state
     * half-updated.
     */
    bool
    run(const Replayer::Task &t, size_t first, size_t last,
        std::vector<replay::ReconstructedAccess> &out,
        PrefilterStats &prefilter)
    {
        const size_t mark = out.size();
        const replay::ReplayStats before = replayer_->stats();
        try {
            replayer_->replayTask(t, first, last, out);
        } catch (...) {
            out.resize(mark);
            retire(before);
            replayer_.emplace(program_, config_);
            return false;
        }
        prefilter.events_seen += out.size() - mark;
        if (prune_)
            pruneThreadLocal(*prune_, out, mark, prefilter);
        return true;
    }

    /**
     * Fold the lane into the pass's counters and consumed set, once at
     * the end of the pass. Sums and a set union: lane order is free.
     */
    void
    fold(replay::ReplayStats &stats, std::unordered_set<uint64_t> &consumed)
    {
        stats.merge(retired_stats_);
        stats.merge(replayer_->stats());
        consumed.merge(retired_consumed_);
        consumed.merge(replayer_->consumedAddresses());
    }

  private:
    /** Keep @p stats and every consumed mark of the current Replayer. */
    void
    retire(const replay::ReplayStats &stats)
    {
        retired_stats_.merge(stats);
        retired_consumed_.merge(replayer_->consumedAddresses());
    }

    const asmkit::Program &program_;
    const replay::ReplayConfig &config_;
    const analysis::ProgramAnalysis *prune_;
    std::optional<Replayer> replayer_;
    replay::ReplayStats retired_stats_;
    std::unordered_set<uint64_t> retired_consumed_;
};

/**
 * Tasks submitted to the executor whose results the caller has not
 * taken yet. Destruction waits for every one of them: they read and
 * write state of the frame that holds this (replay lanes, decode
 * shards, alignments), so an exception must not unwind that frame
 * under a running task.
 */
template <typename T> struct InFlight {
    std::deque<exec::Future<T>> futures;

    ~InFlight()
    {
        for (exec::Future<T> &f : futures) {
            try {
                f.get();
            } catch (...) {
            }
        }
    }
};

/**
 * Run fn(0) .. fn(count - 1) on @p ex, or in order on the calling
 * thread when it is null, and call @p done (when set) on the calling
 * thread once per task, in index order, as each one finishes. A task's
 * exception is rethrown in its turn.
 */
void
runInOrder(exec::Executor *ex, size_t count,
           const std::function<void(size_t)> &fn,
           const std::function<void()> &done)
{
    InFlight<void> in_flight;
    if (ex) {
        for (size_t i = 0; i < count; ++i)
            in_flight.futures.push_back(ex->submit([&fn, i] { fn(i); }));
    }
    for (size_t i = 0; i < count; ++i) {
        if (ex) {
            in_flight.futures.front().get();
            in_flight.futures.pop_front();
        } else {
            fn(i);
        }
        if (done)
            done();
    }
}

} // namespace

OfflineAnalyzer::OfflineAnalyzer(const asmkit::Program &program,
                                 const OfflineOptions &options)
    : program_(program), options_(options),
      analysis_(std::make_unique<analysis::ProgramAnalysis>(program))
{
    // Hand the precomputed fact tables to the replay layer; replay and
    // alignment results are bit-identical with or without them.
    options_.replay.analysis = analysis_.get();
    setPrefilterFacts(analysis_.get(), options_.static_prefilter,
                      prefilter_facts_);
}

OfflineAnalyzer::Paths
OfflineAnalyzer::decode(const trace::RunTrace &run, exec::Executor *ex,
                        pmu::PtDecodeStats *stats)
{
    // One shard per PT stream, on the executor or on the calling thread.
    std::vector<Paths> shards(run.pt.size());
    std::vector<pmu::PtDecodeStats> shard_stats(run.pt.size());
    runInOrder(
        ex, run.pt.size(),
        [&](size_t core) {
            shards[core] = pmu::decodePtStream(program_, run.meta.pt_filter,
                                               run, core, &shard_stats[core]);
        },
        deadlineTick());

    if (stats) {
        for (const pmu::PtDecodeStats &s : shard_stats)
            stats->merge(s);
    }
    return pmu::mergePtShards(std::move(shards), stats);
}

OfflineAnalyzer::Alignments
OfflineAnalyzer::align(const trace::RunTrace &run, const Paths &paths,
                       exec::Executor *ex, replay::AlignStats *stats)
{
    // Threads align independently over one read-only index; each task
    // keeps its own counters, which fold as sums in tid order.
    const replay::AlignIndex index(run);
    std::vector<Paths::const_iterator> threads;
    for (auto it = paths.begin(); it != paths.end(); ++it)
        threads.push_back(it);
    std::vector<replay::ThreadAlignment> aligned(threads.size());
    std::vector<replay::AlignStats> thread_stats(threads.size());
    runInOrder(
        ex, threads.size(),
        [&](size_t i) {
            aligned[i] = replay::alignThread(
                program_, threads[i]->first, threads[i]->second, run, index,
                &thread_stats[i], analysis_.get());
        },
        deadlineTick());

    Alignments out;
    for (size_t i = 0; i < threads.size(); ++i) {
        if (stats)
            stats->merge(thread_stats[i]);
        out.emplace_hint(out.end(), threads[i]->first, std::move(aligned[i]));
    }
    return out;
}

std::function<void()>
OfflineAnalyzer::deadlineTick() const
{
    if (!options_.incremental.enabled)
        return {};
    return options_.checkpoint.tick;
}

std::vector<replay::ReconstructedAccess>
OfflineAnalyzer::reconstruct(const trace::RunTrace &run, const Paths &paths,
                             const Alignments &alignments,
                             const replay::ReplayConfig &replay_config,
                             exec::Executor *ex, OfflineResult &result,
                             std::unordered_set<uint64_t> &consumed)
{
    const Replayer::Plan plan =
        Replayer::plan(replay_config.mode, paths, alignments, run);
    const analysis::ProgramAnalysis *prune =
        prefilter_facts_.enabled ? analysis_.get() : nullptr;

    // --- placement: where tasks run, never what they compute ---
    // Every replay attempt runs on a lane: worker i's tasks on
    // worker_lanes[i], everything on the calling thread (the tasks at
    // num_threads 0 and the per-unit retries) on `caller`. On the
    // executor the calling thread keeps up to max(2N, 16) tasks in
    // flight and takes their results in plan order from the futures;
    // workers never wait for the commit.
    Lane caller(program_, replay_config, prune);
    std::deque<Lane> worker_lanes;
    InFlight<TaskResult> in_flight;
    size_t next_submit = 0;
    size_t max_in_flight = 0;
    if (ex) {
        for (unsigned i = 0; i < ex->numThreads(); ++i)
            worker_lanes.emplace_back(program_, replay_config, prune);
        max_in_flight = std::max<size_t>(2 * ex->numThreads(), 16);
    }
    auto refill = [&] {
        while (next_submit < plan.tasks.size() &&
               in_flight.futures.size() < max_in_flight) {
            const Replayer::Task *t = &plan.tasks[next_submit++];
            in_flight.futures.push_back(ex->submit([&worker_lanes, t] {
                const unsigned worker = exec::Executor::workerIndex();
                PRORACE_ASSERT(worker < worker_lanes.size(),
                               "replay task off its executor");
                TaskResult res;
                res.ok = worker_lanes[worker].run(*t, 0, t->units(),
                                                  res.accesses, res.prefilter);
                return res;
            }));
        }
    };

    // The commit re-assembles the prefiltered access sequence in plan
    // order; detection's feed sort is its only ordering (DESIGN.md
    // §8.2). A failed task contributes no accesses and no counters.
    std::vector<replay::ReconstructedAccess> accesses;
    PrefilterStats counts;
    auto run_task = [&](const Replayer::Task &t) {
        if (!ex)
            return caller.run(t, 0, t.units(), accesses, counts);
        TaskResult res;
        try {
            res = in_flight.futures.front().get();
        } catch (...) {
            res.ok = false; // allocation failure outside replay
        }
        in_flight.futures.pop_front();
        refill();
        if (res.ok) {
            accesses.insert(accesses.end(), res.accesses.begin(),
                            res.accesses.end());
            counts.merge(res.prefilter);
        }
        return res.ok;
    };

    // The deadline tick fires after every committed task, in streaming
    // mode like every hook.
    const std::function<void()> tick = deadlineTick();
    refill(); // nothing to submit at num_threads 0
    for (const Replayer::Task &t : plan.tasks) {
        if (!run_task(t)) {
            // Quarantine policy: re-run the task's units (windows and
            // samples) one at a time on the calling thread (transient
            // failures — allocation pressure on a loaded worker — get a
            // second chance), and give up a unit that fails again,
            // recording the loss. One poisoned window costs its
            // reconstructed accesses (its opening sample included), one
            // poisoned sample its own, not the run. Units cannot hang:
            // replay work is bounded by a window's path slice or a
            // sample's basic block, so a timeout policy beyond this
            // retry is unnecessary by construction.
            for (size_t u = 0; u < t.units(); ++u) {
                ++result.quarantine.window_retries;
                if (!caller.run(t, u, u + 1, accesses, counts))
                    ++result.quarantine.windows_quarantined;
            }
        }
        if (tick)
            tick();
    }

    replay::ReplayStats replay_stats;
    caller.fold(replay_stats, consumed);
    for (Lane &lane : worker_lanes)
        lane.fold(replay_stats, consumed);
    result.replay_stats = replay_stats;
    result.extended_trace_events = counts.events_seen;
    result.prefilter.merge(counts);
    return accesses;
}

void
OfflineAnalyzer::detectAccesses(
    const trace::RunTrace &run, const Alignments &alignments,
    const detect::IncrementalOptions &incremental,
    const std::vector<replay::ReconstructedAccess> &accesses,
    OfflineResult &result)
{
    detect::FastTrack detector(incremental);
    // Streaming GC is gated until every thread of the run has appeared
    // in the feed; the meta thread table is the authoritative population.
    for (const trace::ThreadMeta &tm : run.meta.threads)
        detector.requireThread(tm.tid);
    detail::detectRacesIncremental(run, alignments, accesses, detector,
                                   &options_.checkpoint);
    result.report = std::move(detector.report());
    result.detect_stats = detector.stats();
    result.incremental.merge(detector.incrementalStats());
}

OfflineResult
OfflineAnalyzer::analyze(const trace::RunTrace &run)
{
    return analyzeRun(run, options_.incremental);
}

OfflineResult
OfflineAnalyzer::analyze(const trace::LoadedTrace &loaded)
{
    // Lost sync segments can hide fork edges, and the GC soundness
    // argument leans on observing every fork; keep the streaming
    // batching but fall back to an unswept table for this damaged run.
    detect::IncrementalOptions incremental = options_.incremental;
    if (loaded.loss.sync_dropped > 0)
        incremental.enable_gc = false;
    OfflineResult result = analyzeRun(loaded.trace, incremental);
    result.ingest_loss = loaded.loss;
    result.compression = loaded.trace.meta.compression;
    return result;
}

OfflineResult
OfflineAnalyzer::analyzeRun(const trace::RunTrace &run,
                            const detect::IncrementalOptions &incremental)
{
    exec_stats_ = exec::ExecutorStats();
    OfflineResult result;
    result.prefilter = prefilter_facts_;

    std::optional<exec::Executor> executor;
    if (options_.num_threads > 0)
        executor.emplace(options_.num_threads);
    exec::Executor *ex = executor ? &*executor : nullptr;

    // RaceZ (basic-block mode) uses no PT: nothing to decode or align.
    Paths paths;
    Alignments alignments;
    if (options_.replay.mode != replay::ReplayMode::kBasicBlock) {
        Stopwatch timer;
        paths = decode(run, ex, &result.decode_stats);
        result.decode_seconds = timer.lap();

        alignments = align(run, paths, ex, &result.align_stats);
        result.reconstruct_seconds += timer.lap();
    }

    replay::ReplayConfig replay_config = options_.replay;
    for (int round = 0;; ++round) {
        result.regeneration_rounds = round;
        std::unordered_set<uint64_t> consumed;
        OfflineResult pass = result; // keep timing accumulators
        pass.report = detect::RaceReport();

        Stopwatch timer;
        // Reconstruction time includes the prefilter, which runs on the
        // replay lanes.
        const std::vector<replay::ReconstructedAccess> accesses =
            reconstruct(run, paths, alignments, replay_config, ex, pass,
                        consumed);
        pass.reconstruct_seconds += timer.lap();
        detectAccesses(run, alignments, incremental, accesses, pass);
        pass.detect_seconds += timer.lap();
        result = pass;

        if (round >= options_.max_regeneration_rounds)
            break;

        std::vector<std::pair<uint64_t, uint64_t>> new_blacklist =
            detail::regenerationBlacklist(result.report, consumed,
                                          replay_config.mem_blacklist);
        if (new_blacklist.empty())
            break;
        replay_config.mem_blacklist.insert(
            replay_config.mem_blacklist.end(), new_blacklist.begin(),
            new_blacklist.end());
    }

    if (executor)
        exec_stats_ = executor->stats();
    return result;
}

Result<OfflineResult, trace::TraceError>
OfflineAnalyzer::analyzeFile(const std::string &path)
{
    auto loaded = trace::readTraceFile(path);
    if (!loaded.ok())
        return loaded.error();
    return analyze(loaded.value());
}

} // namespace prorace::core
