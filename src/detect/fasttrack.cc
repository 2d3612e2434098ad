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
    // rejects it), so it cannot gate anything. Ignoring it also bounds
    // the bitmap by the epoch limit, whatever a thread table names.
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

void
FastTrack::access(const MemAccess &ma)
{
    ThreadState &th = threadState(ma.tid);
    // An access may straddle a granule boundary; check every granule it
    // touches. Note shadow_[g] may grow the table's value slab, so the
    // reference is re-fetched per granule and never held across
    // iterations.
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
