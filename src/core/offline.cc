#include "core/offline.hh"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>

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
 * Merge the reconstructed accesses and the sync trace into the
 * TSC-ordered detector feed with the release < access < acquire
 * tie-break. One-shot and streaming detection consume the identical
 * feed, which is what makes their reports byte-identical.
 */
std::vector<FeedEvent>
buildFeed(const trace::RunTrace &run,
          const std::map<uint32_t, replay::ThreadAlignment> &alignments,
          const std::vector<replay::ReconstructedAccess> &accesses)
{
    // Per-thread positions of sync records (exact program order) let the
    // merge tie-break same-TSC events correctly.
    std::unordered_map<size_t, uint64_t> sync_positions;
    for (const auto &[tid, align] : alignments) {
        for (const auto &s : align.syncs)
            sync_positions[s.record_index] = s.position;
    }

    std::vector<FeedEvent> feed;
    feed.reserve(accesses.size() + run.sync.size());
    for (size_t i = 0; i < accesses.size(); ++i) {
        feed.push_back({accesses[i].tsc, 1, accesses[i].tid,
                        accesses[i].position, false, i});
    }
    for (size_t i = 0; i < run.sync.size(); ++i) {
        uint64_t pos = 0;
        if (auto it = sync_positions.find(i); it != sync_positions.end())
            pos = it->second;
        feed.push_back({run.sync[i].tsc, syncSubrank(run.sync[i].kind),
                        run.sync[i].tid, pos, true, i});
    }
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
    detect::FastTrack &detector, const CheckpointHooks *hooks,
    bool allow_checkpoint)
{
    const std::vector<FeedEvent> feed =
        buildFeed(run, alignments, accesses);

    // Batch boundaries, GC and the hooks belong to streaming detection;
    // one-shot detection dispatches the feed straight through.
    const detect::IncrementalOptions &options = detector.options();
    if (!options.enabled)
        hooks = nullptr;

    // Checkpoint warm start: the saved image is only valid against the
    // exact feed it was cut from, so the feed size must match and the
    // image must deserialize cleanly; anything else cold-starts.
    size_t i = 0;
    if (hooks && allow_checkpoint && hooks->restore &&
        hooks->resume_feed_total == feed.size() &&
        hooks->resume_events <= feed.size()) {
        support::ByteReader reader(*hooks->restore);
        if (detector.restoreState(reader)) {
            i = static_cast<size_t>(hooks->resume_events);
            if (hooks->resumed)
                *hooks->resumed = true;
        }
    }

    // Batches close on event counts, so a saved cursor names exactly
    // the events an uninterrupted run would have dispatched before it.
    uint64_t batch = UINT64_MAX; // one-shot: no boundaries
    if (options.enabled)
        batch = std::max<uint64_t>(options.batch_events, 1);
    uint64_t in_batch = 0;
    while (i < feed.size()) {
        dispatchEvent(detector, feed[i], run, accesses);
        ++i;
        if (++in_batch < batch)
            continue;
        // Every later event has tsc >= this one (the feed is sorted), so
        // this event's TSC is a valid retirement frontier.
        detector.batchBoundary(feed[i - 1].tsc);
        in_batch = 0;
        if (hooks) {
            if (hooks->tick)
                hooks->tick();
            if (allow_checkpoint && hooks->on_boundary)
                hooks->on_boundary(i, feed.size(), detector);
        }
    }
    if (!options.enabled)
        return;
    detector.finish();
    if (hooks) {
        if (hooks->tick)
            hooks->tick();
        // A final image at end-of-feed lets a tenant that re-streams
        // the identical trace warm-start past the whole detect stage.
        if (allow_checkpoint && hooks->on_boundary)
            hooks->on_boundary(feed.size(), feed.size(), detector);
    }
}

namespace {

/** One dynamic allocation lifetime of a thread-local malloc site. */
struct HeapInterval {
    uint64_t base = 0;
    uint64_t size = 0;
    uint64_t start_tsc = 0;
    uint64_t end_tsc = UINT64_MAX; ///< never freed when left at max
    uint32_t owner = 0;            ///< allocating thread
    bool defeated = false;         ///< some other thread touched it
};

/**
 * Heap-locality pruning pass. The static claim (kHeapLocal site, alloc
 * site thread-local) selects candidates; the dynamic checks make the
 * removal report-preserving on their own:
 *  - only accesses by the allocating thread, strictly inside the
 *    block's [malloc, free) TSC window and byte range, are removed
 *    (FastTrack never reports same-thread races);
 *  - the detector erases the block's shadow granules at allocate() and
 *    deallocate(), so in-interval events cannot interact with events
 *    outside the interval;
 *  - any access by another thread that overlaps the block's shadow
 *    granules (8-byte expanded) during the interval — inclusive TSC
 *    bounds, so same-timestamp tie-break ambiguity stays conservative —
 *    defeats the whole interval and nothing in it is pruned.
 */
void
pruneHeapLocal(std::vector<replay::ReconstructedAccess> &accesses,
               const analysis::ProgramAnalysis &analysis,
               const trace::RunTrace &run, PrefilterStats &stats)
{
    const analysis::PointsTo *pt = analysis.pointsTo();
    if (!pt || !pt->heapSound() ||
        pt->threadLocalAllocSites().empty()) {
        return;
    }

    // Rebuild allocation lifetimes from the sync trace in detector feed
    // order (TSC, then tid, then record order — malloc/free share the
    // access subrank).
    std::vector<size_t> heap_recs;
    for (size_t i = 0; i < run.sync.size(); ++i) {
        const vm::SyncKind k = run.sync[i].kind;
        if (k == SyncKind::kMalloc || k == SyncKind::kFree)
            heap_recs.push_back(i);
    }
    if (heap_recs.empty())
        return;
    std::stable_sort(heap_recs.begin(), heap_recs.end(),
                     [&](size_t a, size_t b) {
                         const trace::SyncRecord &ra = run.sync[a];
                         const trace::SyncRecord &rb = run.sync[b];
                         if (ra.tsc != rb.tsc)
                             return ra.tsc < rb.tsc;
                         if (ra.tid != rb.tid)
                             return ra.tid < rb.tid;
                         return a < b;
                     });

    std::vector<HeapInterval> intervals;
    std::unordered_map<uint64_t, size_t> open; ///< base → interval index
    for (const size_t i : heap_recs) {
        const trace::SyncRecord &s = run.sync[i];
        if (s.kind == SyncKind::kMalloc) {
            if (!pt->allocSiteThreadLocal(s.insn_index))
                continue;
            if (auto it = open.find(s.object); it != open.end()) {
                // Re-allocation of a still-open block: the trace is
                // inconsistent here, trust neither lifetime.
                intervals[it->second].defeated = true;
                intervals[it->second].end_tsc = s.tsc;
            }
            HeapInterval iv;
            iv.base = s.object;
            iv.size = s.aux;
            iv.start_tsc = s.tsc;
            iv.owner = s.tid;
            open[s.object] = intervals.size();
            intervals.push_back(iv);
        } else if (auto it = open.find(s.object); it != open.end()) {
            intervals[it->second].end_tsc = s.tsc;
            open.erase(it);
        }
    }
    if (intervals.empty())
        return;
    stats.heap_intervals += intervals.size();

    // Granule-level index: shadow granule base → intervals whose
    // 8-byte-expanded footprint covers it (lifetimes of a reused
    // address overlap in space, never in time).
    std::unordered_map<uint64_t, std::vector<uint32_t>> by_granule;
    for (uint32_t idx = 0; idx < intervals.size(); ++idx) {
        const HeapInterval &iv = intervals[idx];
        if (iv.size == 0)
            continue;
        const uint64_t gfirst = iv.base & ~7ull;
        const uint64_t glast = (iv.base + iv.size - 1) & ~7ull;
        for (uint64_t g = gfirst; g <= glast; g += 8)
            by_granule[g].push_back(idx);
    }
    auto forEachInterval = [&](const replay::ReconstructedAccess &a,
                               auto &&fn) {
        if (a.width == 0)
            return;
        const uint64_t gfirst = a.addr & ~7ull;
        const uint64_t glast = (a.addr + a.width - 1) & ~7ull;
        for (uint64_t g = gfirst; g <= glast; g += 8) {
            const auto it = by_granule.find(g);
            if (it == by_granule.end())
                continue;
            for (const uint32_t idx : it->second)
                fn(intervals[idx]);
        }
    };

    // Defeat scan over the surviving feed (what the detector will see).
    for (const replay::ReconstructedAccess &a : accesses) {
        forEachInterval(a, [&](HeapInterval &iv) {
            if (a.tid != iv.owner && a.tsc >= iv.start_tsc &&
                a.tsc <= iv.end_tsc) {
                iv.defeated = true;
            }
        });
    }
    for (const HeapInterval &iv : intervals)
        stats.heap_defeated += iv.defeated ? 1 : 0;

    auto keep = std::remove_if(
        accesses.begin(), accesses.end(),
        [&](const replay::ReconstructedAccess &a) {
            if (analysis.siteClass(a.insn_index) !=
                analysis::SiteClass::kHeapLocal) {
                return false;
            }
            bool prune = false;
            forEachInterval(a, [&](const HeapInterval &iv) {
                if (!iv.defeated && a.tid == iv.owner &&
                    a.tsc > iv.start_tsc && a.tsc < iv.end_tsc &&
                    a.addr >= iv.base &&
                    a.addr + a.width <= iv.base + iv.size) {
                    prune = true;
                }
            });
            if (prune)
                ++stats.pruned_heap;
            return prune;
        });
    accesses.erase(keep, accesses.end());
}

} // namespace

void
applyStaticPrefilter(std::vector<replay::ReconstructedAccess> &accesses,
                     const analysis::ProgramAnalysis *analysis,
                     bool enabled, PrefilterStats &stats,
                     const trace::RunTrace *run)
{
    stats.events_seen += accesses.size();
    if (analysis) {
        const analysis::StaticSummary sum = analysis->summary();
        stats.analysis_sound = sum.rsp_integrity && sum.no_stack_escape;
        stats.sites_total = sum.mem_sites;
        stats.sites_thread_local = sum.thread_local_sites;
        stats.sites_heap_local = sum.heap_local_sites;
        stats.heap_sound = sum.pointsto.heap_sound;
        stats.pointsto_objects = sum.pointsto.objects;
        stats.pointsto_constraints = sum.pointsto.constraints;
        stats.pointsto_iterations = sum.pointsto.iterations;
    }
    // An unsound analysis classifies every site may-shared, so the scan
    // below could never prune anything; skip it outright.
    stats.enabled = enabled && analysis != nullptr &&
        stats.analysis_sound;
    if (!stats.enabled)
        return;
    auto keep = std::remove_if(
        accesses.begin(), accesses.end(),
        [&](const replay::ReconstructedAccess &a) {
            if (!analysis->siteThreadLocal(a.insn_index))
                return false;
            using analysis::SiteClass;
            if (analysis->escape().site(a.insn_index) ==
                SiteClass::kStackImplicit) {
                ++stats.pruned_stack_implicit;
            } else {
                ++stats.pruned_stack_direct;
            }
            return true;
        });
    accesses.erase(keep, accesses.end());
    if (run)
        pruneHeapLocal(accesses, *analysis, *run, stats);
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
    std::vector<replay::ReconstructedAccess> accesses;
    bool ok = false;
};

/**
 * The Replayer one thread reuses for every task it runs, plus the
 * counters and consumed marks of the Replayers it retired.
 */
class Lane
{
  public:
    Lane(const asmkit::Program &program, const replay::ReplayConfig &config)
        : program_(program), config_(config),
          replayer_(std::in_place, program, config)
    {
    }

    /**
     * Replay units [first, last) of @p t into @p out. A failed attempt
     * leaves @p out and the counters as they were before it, but keeps
     * its consumed-address marks (a larger consumed set only makes §5.1
     * regeneration more conservative), and the lane goes on with a
     * fresh Replayer, since a throw may leave scratch state
     * half-updated.
     */
    bool
    run(const Replayer::Task &t, size_t first, size_t last,
        std::vector<replay::ReconstructedAccess> &out)
    {
        const size_t mark = out.size();
        const replay::ReplayStats before = replayer_->stats();
        try {
            replayer_->replayTask(t, first, last, out);
            return true;
        } catch (...) {
            out.resize(mark);
            retire(before);
            replayer_.emplace(program_, config_);
            return false;
        }
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
    std::optional<Replayer> replayer_;
    replay::ReplayStats retired_stats_;
    std::unordered_set<uint64_t> retired_consumed_;
};

/**
 * Tasks submitted to the executor whose results the commit has not
 * taken yet. Destruction waits for every one of them: they replay on
 * lanes and read tasks of the frame that holds this, so an exception
 * must not unwind that frame under a running task.
 */
struct InFlight {
    std::deque<exec::Future<TaskResult>> futures;

    ~InFlight()
    {
        for (exec::Future<TaskResult> &f : futures) {
            try {
                f.get();
            } catch (...) {
            }
        }
    }
};

} // namespace

OfflineAnalyzer::OfflineAnalyzer(const asmkit::Program &program,
                                 const OfflineOptions &options)
    : program_(program), options_(options),
      analysis_(std::make_unique<analysis::ProgramAnalysis>(
          program, options.pointsto))
{
    // Hand the precomputed fact tables to the replay layer; replay and
    // alignment results are bit-identical with or without them.
    options_.replay.analysis = analysis_.get();
}

OfflineAnalyzer::Paths
OfflineAnalyzer::decode(const trace::RunTrace &run, exec::Executor *ex,
                        pmu::PtDecodeStats *stats)
{
    // One shard per PT stream, on the executor or on the calling thread.
    std::vector<Paths> shards(run.pt.size());
    std::vector<pmu::PtDecodeStats> shard_stats(run.pt.size());
    const auto decode_shard = [&](uint64_t core) {
        shards[core] = pmu::decodePtStream(program_, run.meta.pt_filter, run,
                                           core, &shard_stats[core]);
    };
    if (ex) {
        ex->parallelFor(run.pt.size(), decode_shard);
    } else {
        for (size_t core = 0; core < run.pt.size(); ++core)
            decode_shard(core);
    }

    if (stats) {
        for (const pmu::PtDecodeStats &s : shard_stats)
            stats->merge(s);
    }
    return pmu::mergePtShards(std::move(shards), stats);
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

    // --- placement: where tasks run, never what they compute ---
    // Every replay attempt runs on a lane: worker i's tasks on
    // worker_lanes[i], everything on the calling thread (the tasks at
    // num_threads 0 and the per-unit retries) on `caller`. On the
    // executor the calling thread keeps up to max(2N, 16) tasks in
    // flight and takes their results in plan order from the futures;
    // workers never wait for the commit.
    Lane caller(program_, replay_config);
    std::deque<Lane> worker_lanes;
    InFlight in_flight;
    size_t next_submit = 0;
    size_t max_in_flight = 0;
    if (ex) {
        for (unsigned i = 0; i < ex->numThreads(); ++i)
            worker_lanes.emplace_back(program_, replay_config);
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
                                                  res.accesses);
                return res;
            }));
        }
    };

    // The commit re-assembles the access sequence in plan order. A
    // failed task contributes no accesses and no counters.
    std::vector<replay::ReconstructedAccess> accesses;
    auto run_task = [&](const Replayer::Task &t) {
        if (!ex)
            return caller.run(t, 0, t.units(), accesses);
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
        }
        return res.ok;
    };

    // The deadline tick fires after every committed task, in streaming
    // mode like every hook.
    const std::function<void()> &tick = options_.checkpoint.tick;
    const bool ticking = options_.incremental.enabled && tick;
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
                if (!caller.run(t, u, u + 1, accesses))
                    ++result.quarantine.windows_quarantined;
            }
        }
        if (ticking)
            tick();
    }
    Replayer::sortByTsc(accesses);

    replay::ReplayStats replay_stats;
    caller.fold(replay_stats, consumed);
    for (Lane &lane : worker_lanes)
        lane.fold(replay_stats, consumed);
    result.replay_stats = replay_stats;
    result.extended_trace_events = accesses.size();
    return accesses;
}

void
OfflineAnalyzer::detectAccesses(
    const trace::RunTrace &run, const Alignments &alignments,
    const detect::IncrementalOptions &incremental,
    std::vector<replay::ReconstructedAccess> &accesses,
    OfflineResult &result, bool first_round)
{
    detail::applyStaticPrefilter(accesses, analysis_.get(),
                                 options_.static_prefilter,
                                 result.prefilter, &run);
    detect::FastTrack detector(incremental);
    // Streaming GC is gated until every thread of the run has appeared
    // in the feed; the meta thread table is the authoritative population.
    for (const trace::ThreadMeta &tm : run.meta.threads)
        detector.requireThread(tm.tid);
    detail::detectRacesIncremental(run, alignments, accesses, detector,
                                   &options_.checkpoint, first_round);
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

        alignments = replay::alignTrace(program_, paths, run,
                                        &result.align_stats,
                                        analysis_.get());
        result.reconstruct_seconds += timer.lap();
    }

    replay::ReplayConfig replay_config = options_.replay;
    for (int round = 0;; ++round) {
        result.regeneration_rounds = round;
        std::unordered_set<uint64_t> consumed;
        OfflineResult pass = result; // keep timing accumulators
        pass.report = detect::RaceReport();

        Stopwatch timer;
        std::vector<replay::ReconstructedAccess> accesses =
            reconstruct(run, paths, alignments, replay_config, ex, pass,
                        consumed);
        pass.reconstruct_seconds += timer.lap();
        // The prefilter cost counts as detection cost.
        detectAccesses(run, alignments, incremental, accesses, pass,
                       round == 0);
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
