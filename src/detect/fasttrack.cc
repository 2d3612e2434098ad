#include "detect/fasttrack.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/log.hh"

namespace prorace::detect {

namespace {

constexpr unsigned kGranuleShift = 3; ///< 8-byte shadow granules

uint64_t
granuleOf(uint64_t addr)
{
    return addr >> kGranuleShift;
}

} // namespace

FastTrack::FastTrack(const IncrementalOptions &options) : options_(options)
{
}

FastTrack::~FastTrack() = default;

FastTrack::ThreadState &
FastTrack::threadState(uint32_t tid)
{
    if (tid >= Epoch::kMaxThreads) {
        // Epoch packs the tid into kTidBits bits; a larger tid would
        // silently alias another thread's epochs and corrupt detection.
        PRORACE_FATAL("thread id ", tid, " exceeds the FastTrack limit "
                      "of ", Epoch::kMaxThreads, " threads (the packed "
                      "epoch tid field is ", Epoch::kTidBits, " bits)");
    }
    if (tid >= threads_.size())
        threads_.resize(tid + 1);
    if (!threads_[tid]) {
        // The thread's first event: it joins the GC floor and, if it
        // is a required initial thread, no longer gates GC.
        threads_[tid] = std::make_unique<ThreadState>(tid);
        if (tid < required_.size() && required_[tid])
            --required_unseen_;
    }
    return *threads_[tid];
}

VectorClock &
FastTrack::lockClock(uint64_t object)
{
    return locks_[object];
}

FastTrackStats
FastTrack::stats() const
{
    FastTrackStats s = stats_;
    s.shadow_slots = shadow_.size();
    s.shadow_capacity = shadow_.capacity();
    s.shadow_lookups = shadow_.probeStats().lookups;
    s.shadow_probe_steps = shadow_.probeStats().probe_steps;
    return s;
}

void
FastTrack::acquire(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    threadState(tid).clock.join(lockClock(object));
}

void
FastTrack::release(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    lockClock(object).assign(th.clock);
    th.increment();
}

void
FastTrack::barrierEnter(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    lockClock(object).join(th.clock);
    th.increment();
}

void
FastTrack::barrierExit(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    threadState(tid).clock.join(lockClock(object));
}

void
FastTrack::readLock(uint32_t tid, uint64_t object)
{
    // A reader orders only after the last writer: concurrent readers do
    // not synchronize with each other, so a racy upgrade pattern (read
    // then write under a read lock) stays visible.
    ++stats_.sync_ops;
    threadState(tid).clock.join(lockClock(object));
}

void
FastTrack::readUnlock(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    rw_read_[object].join(th.clock);
    th.increment();
}

void
FastTrack::writeLock(uint32_t tid, uint64_t object)
{
    // A writer orders after the last write unlock AND after every read
    // unlock accumulated since; this is the read-shared clock path.
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    th.clock.join(lockClock(object));
    if (const VectorClock *rd = rw_read_.find(object))
        th.clock.join(*rd);
}

void
FastTrack::writeUnlock(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    lockClock(object).assign(th.clock);
    th.increment();
}

void
FastTrack::semInit(uint32_t tid, uint64_t object, uint64_t value)
{
    // Initial credits carry no happens-before edge: a wait satisfied by
    // one is ordered only by whatever else orders it (e.g. fork). The
    // initializer still publishes through the fork edge to its children,
    // so no extra clock work is needed here.
    (void)value;
    ++stats_.sync_ops;
    threadState(tid);
    sem_posts_[object].posts.clear();
}

void
FastTrack::semWait(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    SemQueue *q = sem_posts_.find(object);
    if (!q || q->posts.empty()) {
        // Consumed an initial credit: no post to order after.
        return;
    }
    th.clock.join(q->posts.front());
    q->posts.erase(q->posts.begin());
}

void
FastTrack::semPost(uint32_t tid, uint64_t object)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    VectorClock snapshot;
    snapshot.assign(th.clock);
    sem_posts_[object].posts.push_back(std::move(snapshot));
    th.increment();
}

void
FastTrack::acquireRelease(uint32_t tid, uint64_t object)
{
    // An acq_rel RMW continues the release sequence: it both orders
    // after the previous release and republishes the combined clock.
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    VectorClock &lock = lockClock(object);
    th.clock.join(lock);
    lock.assign(th.clock);
    th.increment();
}

void
FastTrack::fork(uint32_t parent, uint32_t child)
{
    ++stats_.sync_ops;
    ThreadState &p = threadState(parent);
    threadState(child).clock.join(p.clock);
    p.increment();
}

void
FastTrack::threadExit(uint32_t tid, uint64_t tsc)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(tid);
    th.exited = true;
    th.exit_tsc = tsc;
    exited_[tid].assign(th.clock);
}

void
FastTrack::join(uint32_t parent, uint32_t child)
{
    ++stats_.sync_ops;
    ThreadState &th = threadState(parent);
    const VectorClock *exit_clock = exited_.find(child);
    if (!exit_clock) {
        if (child < exit_reclaimed_.size() && exit_reclaimed_[child]) {
            // The exit clock was GC'd, which is only legal once it was
            // dominated by every live clock — this join is a no-op.
            return;
        }
        warn("join of thread ", child, " with no recorded exit");
        return;
    }
    th.clock.join(*exit_clock);
}

void
FastTrack::requireThread(uint32_t tid)
{
    // A tid past the epoch limit can never produce an event (threadState
    // rejects it), so it cannot gate anything. Ignoring it keeps the
    // bitmap within the size restoreState() accepts.
    if (tid >= Epoch::kMaxThreads)
        return;
    if (tid >= required_.size())
        required_.resize(tid + 1, false);
    if (required_[tid])
        return;
    required_[tid] = true;
    if (!(tid < threads_.size() && threads_[tid]))
        ++required_unseen_;
}

IncrementalStats
FastTrack::incrementalStats() const
{
    IncrementalStats s = inc_;
    s.events = stats_.reads + stats_.writes + stats_.sync_ops;
    return s;
}

void
FastTrack::batchBoundary(uint64_t frontier_tsc)
{
    ++inc_.batches;

    // Retire exited threads the feed has moved strictly past: ties at
    // the frontier TSC may still have unprocessed same-TSC events of
    // that thread in the next batch, so they stay live until then.
    for (const auto &th : threads_) {
        if (th && th->exited && th->exit_tsc < frontier_tsc)
            th->retired = true;
    }

    inc_.peak_live_granules =
        std::max(inc_.peak_live_granules, uint64_t{shadow_.size()});
    inc_.peak_live_clocks =
        std::max(inc_.peak_live_clocks, uint64_t{exited_.size()});

    if (!options_.enable_gc)
        return;
    const uint64_t events = incrementalStats().events;
    if (events - events_at_last_gc_ < options_.gc_min_events)
        return;
    if (required_unseen_ != 0) {
        ++inc_.gc_gated;
        return;
    }
    sweep();
    events_at_last_gc_ = events;
}

void
FastTrack::finish()
{
    batchBoundary(std::numeric_limits<uint64_t>::max());
}

void
FastTrack::sweep()
{
    // The floor is the pointwise minimum of every live (started, not
    // retired) thread's clock. No live thread left means no legal
    // future event at all (any new thread would need a fork edge from a
    // live one, and the required initial threads have all been seen):
    // everything is quiescent, modeled as an infinite floor.
    const uint32_t width = static_cast<uint32_t>(threads_.size());
    VectorClock floor;
    for (uint32_t t = 0; t < width; ++t)
        floor.set(t, UINT64_MAX);
    for (const auto &th : threads_) {
        if (!th || th->retired)
            continue;
        for (uint32_t t = 0; t < width; ++t) {
            const uint64_t v = th->clock.get(t);
            if (v < floor.get(t))
                floor.set(t, v);
        }
    }
    ++inc_.gc_sweeps;
    inc_.granules_reclaimed += sweepQuiescentShadow(floor);
    inc_.clocks_reclaimed += sweepExitedClocks(floor);
}

uint64_t
FastTrack::sweepQuiescentShadow(const VectorClock &floor)
{
    // forEach is const and erase() may shuffle probe chains, so collect
    // the dead keys first and erase in a second pass.
    std::vector<uint64_t> dead;
    shadow_.forEach([&](uint64_t granule, const VarState &var) {
        const bool write_done = var.write_epoch.isZero() ||
            var.write_epoch.happensBefore(floor);
        if (!write_done)
            return;
        const bool read_done = var.read_is_shared
            ? var.read_vc.lessOrEqual(floor)
            : (var.read_epoch.isZero() ||
               var.read_epoch.happensBefore(floor));
        if (read_done)
            dead.push_back(granule);
    });
    for (uint64_t granule : dead)
        shadow_.erase(granule);
    return dead.size();
}

uint64_t
FastTrack::sweepExitedClocks(const VectorClock &floor)
{
    std::vector<uint64_t> dead;
    exited_.forEach([&](uint64_t tid, const VectorClock &clock) {
        if (clock.lessOrEqual(floor))
            dead.push_back(tid);
    });
    for (uint64_t tid : dead) {
        exited_.erase(tid);
        if (tid >= exit_reclaimed_.size())
            exit_reclaimed_.resize(tid + 1, false);
        exit_reclaimed_[tid] = true;
    }
    return dead.size();
}

void
FastTrack::allocate(uint32_t tid, uint64_t addr, uint64_t size)
{
    ++stats_.sync_ops;
    threadState(tid);
    alloc_sizes_[addr] = size;
    // A fresh lifetime: discard stale shadow state so accesses to the
    // previous occupant of this address cannot be paired with accesses
    // to the new object.
    const uint64_t first = granuleOf(addr);
    const uint64_t last = granuleOf(addr + (size ? size - 1 : 0));
    for (uint64_t g = first; g <= last; ++g)
        shadow_.erase(g);
}

void
FastTrack::deallocate(uint32_t tid, uint64_t addr)
{
    ++stats_.sync_ops;
    threadState(tid);
    const uint64_t *size_entry = alloc_sizes_.find(addr);
    if (!size_entry)
        return;
    const uint64_t size = *size_entry;
    alloc_sizes_.erase(addr);
    const uint64_t first = granuleOf(addr);
    const uint64_t last = granuleOf(addr + (size ? size - 1 : 0));
    for (uint64_t g = first; g <= last; ++g)
        shadow_.erase(g);
}

void
FastTrack::reportRace(const VarState &var, bool prior_is_write,
                      const MemAccess &ma, uint64_t granule_addr,
                      bool prior_plain_shared)
{
    DataRace race;
    race.addr = granule_addr;
    if (prior_is_write) {
        race.prior = var.last_write;
    } else if (var.read_is_shared) {
        race.prior = prior_plain_shared ? var.shared_plain_sample
                                        : var.shared_read_sample;
    } else {
        race.prior = var.last_read;
    }
    race.current = {ma.tid, ma.insn_index, ma.is_write, ma.tsc, ma.origin};
    report_.add(race);
}

void
FastTrack::checkRead(VarState &var, const MemAccess &ma, ThreadState &th)
{
    ++stats_.reads;

    // Same-epoch fast path.
    if (var.read_epoch == th.epoch() && !var.read_is_shared) {
        ++stats_.epoch_fast_path;
        return;
    }

    // write-read race?
    if (!var.write_epoch.isZero() &&
        !var.write_epoch.happensBefore(th.clock) &&
        !(var.write_atomic && ma.is_atomic)) {
        reportRace(var, true, ma, ma.addr & ~7ull);
    }

    const RaceAccess this_access{ma.tid, ma.insn_index, false, ma.tsc,
                                 ma.origin};
    if (var.read_is_shared) {
        const bool was_spilled = var.read_vc.usesHeap();
        var.read_vc.set(ma.tid, th.epochClock());
        if (!was_spilled && var.read_vc.usesHeap())
            ++stats_.vc_spills;
        var.shared_read_sample = this_access;
        var.read_atomic = var.read_atomic && ma.is_atomic;
        if (!ma.is_atomic) {
            var.plain_read_vc.set(ma.tid, th.epochClock());
            var.shared_plain_sample = this_access;
        }
    } else if (var.read_epoch.isZero() ||
               var.read_epoch.happensBefore(th.clock)) {
        // Reads stay totally ordered: keep the epoch representation.
        var.read_epoch = Epoch(ma.tid, th.epochClock());
        var.last_read = this_access;
        var.read_atomic = ma.is_atomic;
    } else {
        // Concurrent reads: inflate to a read vector clock.
        ++stats_.read_shares;
        var.read_is_shared = true;
        var.read_vc.clear();
        var.read_vc.set(var.read_epoch.tid(), var.read_epoch.clock());
        var.read_vc.set(ma.tid, th.epochClock());
        if (var.read_vc.usesHeap())
            ++stats_.vc_spills;
        var.shared_read_sample = this_access;
        var.plain_read_vc.clear();
        if (!var.read_atomic) {
            var.plain_read_vc.set(var.read_epoch.tid(),
                                  var.read_epoch.clock());
            var.shared_plain_sample = var.last_read;
        }
        if (!ma.is_atomic) {
            var.plain_read_vc.set(ma.tid, th.epochClock());
            var.shared_plain_sample = this_access;
        }
        var.read_atomic = var.read_atomic && ma.is_atomic;
    }
}

void
FastTrack::checkWrite(VarState &var, const MemAccess &ma, ThreadState &th)
{
    ++stats_.writes;

    if (var.write_epoch == th.epoch()) {
        ++stats_.epoch_fast_path;
        return;
    }

    // write-write race?
    if (!var.write_epoch.isZero() &&
        !var.write_epoch.happensBefore(th.clock) &&
        !(var.write_atomic && ma.is_atomic)) {
        reportRace(var, true, ma, ma.addr & ~7ull);
    }

    // read-write race? In shared mode a racing ATOMIC reader only
    // counts against a plain write; a racing PLAIN reader counts
    // against any write.
    if (var.read_is_shared) {
        const bool plain_race = !var.plain_read_vc.lessOrEqual(th.clock);
        if (plain_race ||
            (!ma.is_atomic && !var.read_vc.lessOrEqual(th.clock))) {
            reportRace(var, false, ma, ma.addr & ~7ull, plain_race);
        }
        // Writes collapse the read state back to epochs.
        var.read_is_shared = false;
        var.read_vc.clear();
        var.plain_read_vc.clear();
        var.read_epoch = Epoch();
    } else if (!var.read_epoch.isZero() &&
               !var.read_epoch.happensBefore(th.clock) &&
               !(var.read_atomic && ma.is_atomic)) {
        reportRace(var, false, ma, ma.addr & ~7ull);
    }

    var.write_epoch = Epoch(ma.tid, th.epochClock());
    var.last_write = {ma.tid, ma.insn_index, true, ma.tsc, ma.origin};
    var.write_atomic = ma.is_atomic;
}

bool
FastTrack::foldRepeats(const MemAccess &ma, uint64_t n)
{
    if (n == 0)
        return true;
    ThreadState &th = threadState(ma.tid);
    const uint64_t first = granuleOf(ma.addr);
    const uint64_t last = granuleOf(ma.addr + (ma.width ? ma.width - 1 : 0));
    // Check every granule before committing: a straddling access whose
    // granules disagree (one absorbed, one shared) falls back entirely,
    // which is always safe — re-dispatching an absorbed granule is the
    // no-op fast path.
    for (uint64_t g = first; g <= last; ++g) {
        const VarState *var = shadow_.find(g);
        const bool absorbed = var &&
            (ma.is_write
                 ? var->write_epoch == th.epoch()
                 : (!var->read_is_shared &&
                    var->read_epoch == th.epoch()));
        if (!absorbed)
            return false;
    }
    const uint64_t checks = n * (last - first + 1);
    if (ma.is_write)
        stats_.writes += checks;
    else
        stats_.reads += checks;
    stats_.epoch_fast_path += checks;
    ++stats_.run_blocks_folded;
    stats_.run_iterations_folded += n;
    return true;
}

namespace {

/**
 * Detector checkpoint layout version (bump on any format change). An
 * image of any other version fails to restore; the caller cold-starts.
 */
constexpr uint32_t kFastTrackStateVersion = 3;

void
putClock(support::ByteWriter &w, const VectorClock &clock)
{
    w.u32(static_cast<uint32_t>(clock.size()));
    for (uint32_t t = 0; t < clock.size(); ++t)
        w.u64(clock.get(t));
}

bool
getClock(support::ByteReader &r, VectorClock &clock)
{
    clock.clear();
    const uint32_t n = r.u32();
    if (n > Epoch::kMaxThreads)
        return false;
    for (uint32_t t = 0; t < n; ++t)
        clock.set(t, r.u64());
    return r.ok();
}

void
putAccess(support::ByteWriter &w, const RaceAccess &a)
{
    w.u32(a.tid);
    w.u32(a.insn_index);
    w.u8(a.is_write ? 1 : 0);
    w.u64(a.tsc);
    w.u8(static_cast<uint8_t>(a.origin));
}

RaceAccess
getAccess(support::ByteReader &r)
{
    RaceAccess a;
    a.tid = r.u32();
    a.insn_index = r.u32();
    a.is_write = r.u8() != 0;
    a.tsc = r.u64();
    a.origin = static_cast<AccessOrigin>(r.u8());
    return a;
}

void
putEpoch(support::ByteWriter &w, const Epoch &e)
{
    w.u32(e.tid());
    w.u64(e.clock());
}

Epoch
getEpoch(support::ByteReader &r)
{
    const uint32_t tid = r.u32();
    const uint64_t clock = r.u64();
    return Epoch(tid, clock);
}

/** Key-sorted snapshot of a FlatMap so serialization is order-stable. */
template <typename Value>
std::vector<std::pair<uint64_t, Value>>
sortedEntries(const prorace::FlatMap<Value> &map)
{
    std::vector<std::pair<uint64_t, Value>> entries;
    entries.reserve(map.size());
    map.forEach([&](uint64_t key, const Value &value) {
        entries.emplace_back(key, value);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return entries;
}

} // namespace

void
FastTrack::serializeState(support::ByteWriter &w) const
{
    w.u32(kFastTrackStateVersion);

    uint32_t live_threads = 0;
    for (const auto &th : threads_)
        live_threads += th ? 1 : 0;
    w.u32(live_threads);
    for (const auto &th : threads_) {
        if (!th)
            continue;
        w.u32(th->tid);
        putClock(w, th->clock);
        w.u8(th->exited ? 1 : 0);
        w.u64(th->exit_tsc);
        w.u8(th->retired ? 1 : 0);
    }

    for (const auto *map : {&locks_, &exited_, &rw_read_}) {
        const auto entries = sortedEntries(*map);
        w.u32(static_cast<uint32_t>(entries.size()));
        for (const auto &[key, clock] : entries) {
            w.u64(key);
            putClock(w, clock);
        }
    }

    const auto sems = sortedEntries(sem_posts_);
    w.u32(static_cast<uint32_t>(sems.size()));
    for (const auto &[key, queue] : sems) {
        w.u64(key);
        w.u32(static_cast<uint32_t>(queue.posts.size()));
        for (const VectorClock &clock : queue.posts)
            putClock(w, clock);
    }

    w.u32(static_cast<uint32_t>(exit_reclaimed_.size()));
    for (const bool reclaimed : exit_reclaimed_)
        w.u8(reclaimed ? 1 : 0);

    const auto shadow = sortedEntries(shadow_);
    w.u32(static_cast<uint32_t>(shadow.size()));
    for (const auto &[granule, var] : shadow) {
        w.u64(granule);
        putEpoch(w, var.write_epoch);
        putAccess(w, var.last_write);
        w.u8(var.write_atomic ? 1 : 0);
        putEpoch(w, var.read_epoch);
        putAccess(w, var.last_read);
        w.u8(var.read_atomic ? 1 : 0);
        w.u8(var.read_is_shared ? 1 : 0);
        putClock(w, var.read_vc);
        putAccess(w, var.shared_read_sample);
        putClock(w, var.plain_read_vc);
        putAccess(w, var.shared_plain_sample);
    }

    const auto allocs = sortedEntries(alloc_sizes_);
    w.u32(static_cast<uint32_t>(allocs.size()));
    for (const auto &[addr, size] : allocs) {
        w.u64(addr);
        w.u64(size);
    }

    w.u32(static_cast<uint32_t>(report_.races().size()));
    for (const DataRace &race : report_.races()) {
        w.u64(race.addr);
        putAccess(w, race.prior);
        putAccess(w, race.current);
    }

    w.u64(stats_.reads);
    w.u64(stats_.writes);
    w.u64(stats_.sync_ops);
    w.u64(stats_.epoch_fast_path);
    w.u64(stats_.read_shares);
    w.u64(stats_.vc_spills);
    w.u64(stats_.run_blocks_folded);
    w.u64(stats_.run_iterations_folded);

    w.u32(static_cast<uint32_t>(required_.size()));
    for (const bool required : required_)
        w.u8(required ? 1 : 0);
    w.u64(inc_.batches);
    w.u64(inc_.gc_sweeps);
    w.u64(inc_.gc_gated);
    w.u64(inc_.granules_reclaimed);
    w.u64(inc_.clocks_reclaimed);
    w.u64(inc_.peak_live_granules);
    w.u64(inc_.peak_live_clocks);
    w.u64(events_at_last_gc_);
}

bool
FastTrack::restoreState(support::ByteReader &r)
{
    // Parse the whole image into locals first; the live state is only
    // replaced once every byte checked out, so a malformed or truncated
    // checkpoint leaves the detector exactly as it was.
    if (r.u32() != kFastTrackStateVersion)
        return false;

    const uint32_t thread_count = r.u32();
    if (thread_count > Epoch::kMaxThreads)
        return false;
    std::vector<ThreadState> threads;
    threads.reserve(thread_count);
    for (uint32_t i = 0; i < thread_count; ++i) {
        const uint32_t tid = r.u32();
        if (tid >= Epoch::kMaxThreads)
            return false;
        ThreadState &th = threads.emplace_back(tid);
        if (!getClock(r, th.clock))
            return false;
        th.exited = r.u8() != 0;
        th.exit_tsc = r.u64();
        th.retired = r.u8() != 0;
    }

    std::vector<std::pair<uint64_t, VectorClock>> locks, exited, rw_read;
    for (auto *out : {&locks, &exited, &rw_read}) {
        const uint32_t n = r.u32();
        if (!r.ok())
            return false;
        out->resize(n);
        for (auto &[key, clock] : *out) {
            key = r.u64();
            if (!getClock(r, clock))
                return false;
        }
    }

    const uint32_t sem_count = r.u32();
    if (!r.ok())
        return false;
    std::vector<std::pair<uint64_t, SemQueue>> sems(sem_count);
    for (auto &[key, queue] : sems) {
        key = r.u64();
        const uint32_t depth = r.u32();
        if (!r.ok())
            return false;
        queue.posts.resize(depth);
        for (VectorClock &clock : queue.posts)
            if (!getClock(r, clock))
                return false;
    }

    const uint32_t reclaimed_count = r.u32();
    if (reclaimed_count > Epoch::kMaxThreads)
        return false;
    std::vector<bool> reclaimed(reclaimed_count);
    for (uint32_t i = 0; i < reclaimed_count; ++i)
        reclaimed[i] = r.u8() != 0;

    const uint32_t shadow_count = r.u32();
    if (!r.ok())
        return false;
    std::vector<std::pair<uint64_t, VarState>> shadow(shadow_count);
    for (auto &[granule, var] : shadow) {
        granule = r.u64();
        var.write_epoch = getEpoch(r);
        var.last_write = getAccess(r);
        var.write_atomic = r.u8() != 0;
        var.read_epoch = getEpoch(r);
        var.last_read = getAccess(r);
        var.read_atomic = r.u8() != 0;
        var.read_is_shared = r.u8() != 0;
        if (!getClock(r, var.read_vc))
            return false;
        var.shared_read_sample = getAccess(r);
        if (!getClock(r, var.plain_read_vc))
            return false;
        var.shared_plain_sample = getAccess(r);
    }

    const uint32_t alloc_count = r.u32();
    if (!r.ok())
        return false;
    std::vector<std::pair<uint64_t, uint64_t>> allocs(alloc_count);
    for (auto &[addr, size] : allocs) {
        addr = r.u64();
        size = r.u64();
    }

    const uint32_t race_count = r.u32();
    if (!r.ok())
        return false;
    std::vector<DataRace> races(race_count);
    for (DataRace &race : races) {
        race.addr = r.u64();
        race.prior = getAccess(r);
        race.current = getAccess(r);
    }

    FastTrackStats stats;
    stats.reads = r.u64();
    stats.writes = r.u64();
    stats.sync_ops = r.u64();
    stats.epoch_fast_path = r.u64();
    stats.read_shares = r.u64();
    stats.vc_spills = r.u64();
    stats.run_blocks_folded = r.u64();
    stats.run_iterations_folded = r.u64();

    const uint32_t required_count = r.u32();
    if (required_count > Epoch::kMaxThreads)
        return false;
    std::vector<bool> required(required_count);
    for (uint32_t i = 0; i < required_count; ++i)
        required[i] = r.u8() != 0;
    IncrementalStats inc;
    inc.batches = r.u64();
    inc.gc_sweeps = r.u64();
    inc.gc_gated = r.u64();
    inc.granules_reclaimed = r.u64();
    inc.clocks_reclaimed = r.u64();
    inc.peak_live_granules = r.u64();
    inc.peak_live_clocks = r.u64();
    const uint64_t events_at_last_gc = r.u64();
    if (!r.ok())
        return false;

    // The gate is rebuilt, not stored: threads first with no required
    // set, then requireThread() counts the required tids not yet seen.
    threads_.clear();
    required_.clear();
    required_unseen_ = 0;
    for (ThreadState &th : threads)
        threadState(th.tid) = std::move(th);
    for (uint32_t tid = 0; tid < required.size(); ++tid)
        if (required[tid])
            requireThread(tid);
    locks_ = {};
    for (auto &[key, clock] : locks)
        locks_[key] = std::move(clock);
    exited_ = {};
    for (auto &[tid, clock] : exited)
        exited_[tid] = std::move(clock);
    rw_read_ = {};
    for (auto &[key, clock] : rw_read)
        rw_read_[key] = std::move(clock);
    sem_posts_ = {};
    for (auto &[key, queue] : sems)
        sem_posts_[key] = std::move(queue);
    exit_reclaimed_ = std::move(reclaimed);
    shadow_ = {};
    for (auto &[granule, var] : shadow)
        shadow_[granule] = std::move(var);
    alloc_sizes_ = {};
    for (const auto &[addr, size] : allocs)
        alloc_sizes_[addr] = size;
    // Re-adding through add() rebuilds the dedup pair set exactly as
    // the original insertions did.
    report_ = RaceReport();
    for (const DataRace &race : races)
        report_.add(race);
    stats_ = stats;
    inc_ = inc;
    events_at_last_gc_ = events_at_last_gc;
    return true;
}

void
FastTrack::access(const MemAccess &ma)
{
    ThreadState &th = threadState(ma.tid);
    // An access may straddle a granule boundary; check every granule it
    // touches. Note shadow_[g] may rehash the table, so the reference
    // is re-fetched per granule and never held across iterations.
    const uint64_t first = granuleOf(ma.addr);
    const uint64_t last = granuleOf(ma.addr + (ma.width ? ma.width - 1 : 0));
    for (uint64_t g = first; g <= last; ++g) {
        VarState &var = shadow_[g];
        if (ma.is_write)
            checkWrite(var, ma, th);
        else
            checkRead(var, ma, th);
    }
}

} // namespace prorace::detect
