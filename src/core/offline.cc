#include "core/offline.hh"

#include <algorithm>
#include <exception>
#include <optional>
#include <span>
#include <unordered_map>

#include "exec/reorder_buffer.hh"
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

/**
 * End of the maximal run starting at feed position @p i: the first
 * position whose event is a sync op or an access differing from
 * feed[i]'s in anything but the TSC. Only such runs — identical
 * accesses with no intervening event of any thread — are candidates for
 * detector-side folding.
 */
size_t
runExtent(const std::vector<FeedEvent> &feed,
          const std::vector<replay::ReconstructedAccess> &accesses,
          size_t i)
{
    const replay::ReconstructedAccess &a = accesses[feed[i].index];
    size_t j = i + 1;
    while (j < feed.size() && !feed[j].is_sync) {
        const replay::ReconstructedAccess &b = accesses[feed[j].index];
        if (b.tid != a.tid || b.addr != a.addr || b.width != a.width ||
            b.is_write != a.is_write || b.is_atomic != a.is_atomic ||
            b.insn_index != a.insn_index || b.origin != a.origin)
            break;
        ++j;
    }
    return j;
}

} // namespace

namespace detail {

void
detectRaces(const trace::RunTrace &run,
            const std::map<uint32_t, replay::ThreadAlignment> &alignments,
            const std::vector<replay::ReconstructedAccess> &accesses,
            detect::RaceReport &report, detect::FastTrackStats &stats,
            bool run_summary)
{
    detect::FastTrack ft;
    detectRacesIncremental(run, alignments, accesses, ft, run_summary);
    report = std::move(ft.report());
    stats = ft.stats();
}

void
detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::FastTrack &detector, bool run_summary,
    const CheckpointHooks *hooks, bool allow_checkpoint)
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

    // Run-level folding: the first iteration of a run of identical
    // accesses is dispatched normally, then the detector is asked to
    // absorb the repeats in one step; if it declines (shared-read
    // state, where repeat TSCs matter), the repeats are dispatched
    // individually. Batches close on whole runs, so a saved cursor
    // always lands back on a run boundary and a resumed dispatch sees
    // exactly the events an uninterrupted run would have.
    uint64_t batch = UINT64_MAX; // one-shot: no boundaries
    if (options.enabled)
        batch = std::max<uint64_t>(options.batch_events, 1);
    uint64_t in_batch = 0;
    while (i < feed.size()) {
        const FeedEvent &ev = feed[i];
        size_t j = i + 1;
        if (run_summary && !ev.is_sync)
            j = runExtent(feed, accesses, i);
        dispatchEvent(detector, ev, run, accesses);
        if (j - i > 1 &&
            !detector.foldRepeats(toMemAccess(accesses[ev.index]),
                                  j - i - 1)) {
            for (size_t k = i + 1; k < j; ++k)
                dispatchEvent(detector, feed[k], run, accesses);
        }
        in_batch += j - i;
        i = j;
        if (in_batch < batch)
            continue;
        // Every later event has tsc >= this one (the feed is sorted), so
        // this event's TSC is a valid retirement frontier.
        detector.batchBoundary(feed[j - 1].tsc);
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

/**
 * Consecutive windows of one thread, replayed in path order on one
 * Replayer so its scratch state is reused across them (sequence = index
 * into the task list).
 */
struct WindowTask {
    bool last_of_thread = false; ///< thread finalizes after this commit
    std::vector<Replayer::Window> windows;
    const pmu::ThreadPath *path = nullptr;
    const replay::ThreadAlignment *alignment = nullptr;
};

/** Path positions a task collects before it is closed. */
constexpr uint64_t kTaskPositions = uint64_t{1} << 14;

/** What a task hands to the ordered-commit stage. */
struct WindowResult {
    std::vector<replay::ReconstructedAccess> accesses;
    replay::ReplayStats stats;
    std::unordered_set<uint64_t> consumed;
    std::exception_ptr error;
};

/** Replay @p windows on a private Replayer (throws what replay throws). */
WindowResult
replayWindows(const asmkit::Program &program,
              const replay::ReplayConfig &config, const WindowTask &t,
              std::span<const Replayer::Window> windows)
{
    WindowResult res;
    Replayer replayer(program, config);
    for (const Replayer::Window &w : windows)
        replayer.replayWindow(w, *t.path, *t.alignment, res.accesses);
    res.stats = replayer.stats();
    res.consumed = replayer.consumedAddresses();
    return res;
}

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
OfflineAnalyzer::decodeSharded(const trace::RunTrace &run,
                               exec::Executor &ex,
                               pmu::PtDecodeStats *stats)
{
    std::vector<exec::Future<Paths>> shard_futures;
    std::vector<pmu::PtDecodeStats> shard_stats(run.pt.size());
    shard_futures.reserve(run.pt.size());
    for (size_t core = 0; core < run.pt.size(); ++core) {
        shard_futures.push_back(ex.submit([this, &run, &shard_stats,
                                           core] {
            return pmu::decodePtStream(program_, options_.pt_filter, run,
                                       core, &shard_stats[core]);
        }));
    }

    Paths paths;
    bool migrated = false;
    for (auto &f : shard_futures) {
        for (auto &[tid, path] : f.get()) {
            if (!paths.emplace(tid, std::move(path)).second)
                migrated = true;
        }
    }
    if (migrated) {
        // A tid with packets in two streams means the serial decoder
        // would have threaded one walker across both; redo serially so
        // the result stays bit-identical.
        if (stats)
            *stats = pmu::PtDecodeStats();
        return pmu::decodePt(program_, options_.pt_filter, run, stats);
    }
    if (stats) {
        for (const pmu::PtDecodeStats &s : shard_stats)
            stats->merge(s);
    }
    return paths;
}

std::vector<replay::ReconstructedAccess>
OfflineAnalyzer::reconstruct(const trace::RunTrace &run, const Paths &paths,
                             const Alignments &alignments,
                             const replay::ReplayConfig &replay_config,
                             exec::Executor *ex, OfflineResult &result,
                             std::unordered_set<uint64_t> &consumed)
{
    if (!ex) {
        Replayer replayer(program_, replay_config);
        std::vector<replay::ReconstructedAccess> accesses =
            replayer.replayAll(paths, alignments, run);
        result.replay_stats = replayer.stats();
        result.extended_trace_events = accesses.size();
        consumed = replayer.consumedAddresses();
        return accesses;
    }

    // --- plan: per-thread window runs, in ascending-tid order ---
    // sync_at maps live here so Window::sync_at pointers stay valid for
    // the whole fan-out.
    std::map<uint32_t, std::map<uint64_t, const trace::SyncRecord *>>
        sync_maps;
    std::vector<WindowTask> tasks;
    for (const auto &[tid, path] : paths) {
        auto it = alignments.find(tid);
        if (it == alignments.end())
            continue;
        const replay::ThreadAlignment &alignment = it->second;
        auto &sync_at = sync_maps[tid];
        sync_at = Replayer::syncAtMap(alignment, run);
        const std::vector<Replayer::Window> windows =
            Replayer::buildWindows(path, alignment, run, sync_at);
        WindowTask t;
        uint64_t positions = 0;
        for (size_t i = 0; i < windows.size(); ++i) {
            t.windows.push_back(windows[i]);
            positions += windows[i].end - windows[i].start;
            const bool last = i + 1 == windows.size();
            if (positions >= kTaskPositions || last) {
                t.last_of_thread = last;
                t.path = &path;
                t.alignment = &alignment;
                tasks.push_back(std::move(t));
                t = WindowTask();
                positions = 0;
            }
        }
    }

    // --- fan out: bounded in-flight tasks, ordered commit ---
    // Submission is throttled to the reorder-buffer capacity, so a
    // commit can never block with every worker stuck on a
    // later-sequence task (see reorder_buffer.hh).
    const uint64_t capacity =
        std::max<uint64_t>(2 * ex->numThreads(), 16);
    exec::ReorderBuffer<WindowResult> rob(capacity);
    uint64_t next_submit = 0;
    auto submit_one = [&] {
        const uint64_t seq = next_submit++;
        const WindowTask *t = &tasks[seq];
        ex->submit([this, &rob, &replay_config, t, seq] {
            WindowResult res;
            try {
                res = replayWindows(program_, replay_config, *t, t->windows);
            } catch (...) {
                res.error = std::current_exception();
            }
            rob.commit(seq, std::move(res));
        });
    };
    while (next_submit < tasks.size() && next_submit < capacity)
        submit_one();

    // The commit thread re-assembles exactly the serial pre-sort access
    // sequence: threads in ascending tid order, windows in path order
    // (each already in position order), then each thread's unlocatable
    // samples in record order.
    std::vector<replay::ReconstructedAccess> accesses;
    replay::ReplayStats replay_stats;
    auto absorb = [&](const WindowResult &res) {
        replay_stats.merge(res.stats);
        consumed.insert(res.consumed.begin(), res.consumed.end());
        accesses.insert(accesses.end(), res.accesses.begin(),
                        res.accesses.end());
    };
    Replayer finalizer(program_, replay_config);
    const std::map<uint32_t, std::vector<size_t>> unmatched =
        Replayer::unmatchedSamples(alignments, run);
    for (uint64_t seq = 0; seq < tasks.size(); ++seq) {
        const WindowResult res = rob.pop();
        if (next_submit < tasks.size())
            submit_one();
        const WindowTask &t = tasks[seq];
        if (!res.error) {
            absorb(res);
        } else {
            // Quarantine policy: re-run the task's windows one at a
            // time on the commit thread (transient failures —
            // allocation pressure on a loaded worker — get a second
            // chance), and give up a window that fails again, recording
            // the loss. One poisoned window costs its reconstructed
            // accesses (its opening sample included), not the run.
            // Windows cannot hang: replay work is bounded by the
            // window's path slice, so a timeout policy beyond this
            // retry is unnecessary by construction.
            for (const Replayer::Window &w : t.windows) {
                ++result.quarantine.window_retries;
                try {
                    absorb(replayWindows(program_, replay_config, t,
                                         {&w, 1}));
                } catch (...) {
                    ++result.quarantine.windows_quarantined;
                }
            }
        }
        if (t.last_of_thread) {
            if (auto u = unmatched.find(t.path->tid); u != unmatched.end())
                finalizer.appendSamples(u->second, run, accesses);
        }
    }
    finalizer.appendPathlessSamples(paths, run, accesses);
    Replayer::sortByTsc(accesses);

    replay_stats.merge(finalizer.stats()); // unlocatable-sample counts
    result.replay_stats = replay_stats;
    result.extended_trace_events = accesses.size();
    return accesses;
}

void
OfflineAnalyzer::detectAccesses(
    const trace::RunTrace &run, const Alignments &alignments,
    std::vector<replay::ReconstructedAccess> &accesses,
    OfflineResult &result, bool first_round)
{
    detail::applyStaticPrefilter(accesses, analysis_.get(),
                                 options_.static_prefilter,
                                 result.prefilter, &run);
    detect::FastTrack detector(options_.incremental);
    // Streaming GC is gated until every thread of the run has appeared
    // in the feed; the meta thread table is the authoritative population.
    for (const trace::ThreadMeta &tm : run.meta.threads)
        detector.requireThread(tm.tid);
    detail::detectRacesIncremental(run, alignments, accesses, detector,
                                   options_.run_summary,
                                   &options_.checkpoint, first_round);
    result.report = std::move(detector.report());
    result.detect_stats = detector.stats();
    result.incremental.merge(detector.incrementalStats());
}

OfflineResult
OfflineAnalyzer::analyze(const trace::RunTrace &run)
{
    exec_stats_ = exec::ExecutorStats();
    OfflineResult result;

    // Basic-block mode (RaceZ) has no PT streams or inter-sample
    // windows to shard, so it always runs serially.
    const bool windowed =
        options_.replay.mode != replay::ReplayMode::kBasicBlock;
    std::optional<exec::Executor> executor;
    if (windowed && options_.num_threads > 0)
        executor.emplace(options_.num_threads);
    exec::Executor *ex = executor ? &*executor : nullptr;

    Paths paths;
    Alignments alignments;
    if (windowed) {
        Stopwatch timer;
        paths = ex ? decodeSharded(run, *ex, &result.decode_stats)
                   : pmu::decodePt(program_, options_.pt_filter, run,
                                   &result.decode_stats);
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
        detectAccesses(run, alignments, accesses, pass, round == 0);
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
    // Lost sync segments can hide fork edges, and the GC soundness
    // argument leans on observing every fork; keep the streaming
    // batching but fall back to an unswept table for this damaged run.
    const bool saved_gc = options_.incremental.enable_gc;
    if (loaded.value().loss.sync_dropped > 0)
        options_.incremental.enable_gc = false;
    OfflineResult result = analyze(loaded.value().trace);
    options_.incremental.enable_gc = saved_gc;
    result.ingest_loss = loaded.value().loss;
    result.compression = loaded.value().trace.meta.compression;
    return result;
}

} // namespace prorace::core
