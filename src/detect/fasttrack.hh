/**
 * @file
 * The FastTrack happens-before data race detector (Flanagan & Freund,
 * PLDI 2009), the algorithm the paper runs over its extended memory
 * trace.
 *
 * Shadow state is kept per 8-byte granule (the usual shadow-memory
 * compromise); variables in the workloads are 8-byte aligned. Most
 * variable states are single epochs; a read set inflates to a full
 * vector clock only when reads are concurrent (the FastTrack insight).
 *
 * The granule shadow, lock/exit clocks, and allocation lifetimes all
 * live in flat open-addressing tables (support/flat_map.hh) with the
 * state stored inline, and read-share vector clocks use VectorClock's
 * inline small-size storage — the detection inner loop allocates
 * nothing on the heap for typical few-thread traces (DESIGN.md §9).
 *
 * malloc/free are tracked so a block freed and re-allocated at the same
 * address does not produce false races between the two objects' lifetimes
 * (paper §4.3).
 *
 * The same detector serves one-shot analysis of a whole trace and
 * streaming analysis of an unbounded one. In streaming mode the caller
 * adds batchBoundary(frontier_tsc) calls between batches of events, and
 * the detector reclaims state that can provably never race again, so
 * resident memory stays bounded (DESIGN.md §13.2):
 *
 *   - The *floor* is the pointwise minimum of every live thread's
 *     vector clock. Shadow state at or below the floor happens-before
 *     every possible future access, because clocks only grow and a new
 *     thread inherits a live parent's clock at its fork edge. Sweeping
 *     such state cannot change any future race check, so the report is
 *     byte-identical with GC on or off.
 *   - A thread leaves the floor only once it is *retired*: its exit
 *     event has been processed and the feed frontier has advanced
 *     strictly past the exit's timestamp, so no same-TSC stragglers of
 *     that thread can still arrive.
 *   - GC is *gated* until every expected initial thread (declared via
 *     requireThread(), typically from the trace meta's thread table)
 *     has produced an event or been forked. A thread that has not yet
 *     appeared would start with a fresh low clock and could still race
 *     with arbitrarily old state. If an expected thread never appears
 *     (e.g. its records were lost), GC never runs and the detector
 *     degrades to unbounded FastTrack, which is still report-identical.
 */

#ifndef PRORACE_DETECT_FASTTRACK_HH
#define PRORACE_DETECT_FASTTRACK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "detect/report.hh"
#include "detect/vector_clock.hh"
#include "support/flat_map.hh"

namespace prorace::detect {

/** One memory access fed to the detector. */
struct MemAccess {
    uint32_t tid = 0;
    uint64_t addr = 0;
    uint8_t width = 8;
    bool is_write = false;
    bool is_atomic = false;
    uint32_t insn_index = 0;
    uint64_t tsc = 0;
    AccessOrigin origin = AccessOrigin::kSampled;
};

/** Detector statistics. */
struct FastTrackStats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t sync_ops = 0;
    uint64_t epoch_fast_path = 0; ///< same-epoch hits (FastTrack O(1) path)
    uint64_t read_shares = 0;     ///< epoch -> vector-clock inflations
    uint64_t vc_spills = 0;       ///< read clocks spilled past inline storage

    /** Ignored (always 0); kept only so prorace_bench/ compiles. */
    uint64_t run_iterations_folded = 0;

    // Flat shadow-table probe behavior (filled by FastTrack::stats()).
    uint64_t shadow_slots = 0;       ///< live granules in the shadow table
    uint64_t shadow_capacity = 0;    ///< shadow-table slot count
    uint64_t shadow_lookups = 0;
    uint64_t shadow_probe_steps = 0;

    /**
     * Fold another detector's counters into this one. Every field sums,
     * including the resident-size fields, so a rollup over N analyzer
     * instances reads as fleet totals (total events checked, total live
     * granules resident) rather than the counters of whichever instance
     * happened to run last.
     */
    void
    merge(const FastTrackStats &other)
    {
        reads += other.reads;
        writes += other.writes;
        sync_ops += other.sync_ops;
        epoch_fast_path += other.epoch_fast_path;
        read_shares += other.read_shares;
        vc_spills += other.vc_spills;
        shadow_slots += other.shadow_slots;
        shadow_capacity += other.shadow_capacity;
        shadow_lookups += other.shadow_lookups;
        shadow_probe_steps += other.shadow_probe_steps;
    }
};

/** Streaming-detection knobs (core::OfflineOptions embeds one). */
struct IncrementalOptions {
    /**
     * Detect in streaming mode in the offline pipeline: batch
     * boundaries, epoch GC and the deadline tick run only when set.
     */
    bool enabled = false;

    /**
     * Sweep quiescent state at batch boundaries. Disable (keeping the
     * batching) when the sync stream is known lossy: a lost spawn
     * record could make a thread appear without a fork edge, and only
     * an unswept table reproduces the one-shot report then.
     */
    bool enable_gc = true;

    /** Feed events per batch between batchBoundary() calls. */
    uint64_t batch_events = 8192;

    /** Minimum events between sweeps (bounds the O(table) scan cost). */
    uint64_t gc_min_events = 2048;
};

/** Streaming-detector observability counters. */
struct IncrementalStats {
    uint64_t events = 0;          ///< reads + writes + sync ops checked
    uint64_t batches = 0;         ///< batchBoundary() calls
    uint64_t gc_sweeps = 0;       ///< sweeps actually run
    uint64_t gc_gated = 0;        ///< sweeps skipped: initial tids unseen
    uint64_t granules_reclaimed = 0;
    uint64_t clocks_reclaimed = 0;
    uint64_t peak_live_granules = 0; ///< max shadow size at any boundary
    uint64_t peak_live_clocks = 0;   ///< max exited-clock count likewise

    void
    merge(const IncrementalStats &other)
    {
        events += other.events;
        batches += other.batches;
        gc_sweeps += other.gc_sweeps;
        gc_gated += other.gc_gated;
        granules_reclaimed += other.granules_reclaimed;
        clocks_reclaimed += other.clocks_reclaimed;
        // Peaks are resident-memory bounds: the fleet-wide bound is the
        // sum of the per-instance bounds (instances coexist).
        peak_live_granules += other.peak_live_granules;
        peak_live_clocks += other.peak_live_clocks;
    }
};

class FastTrack;

/**
 * Old name of the streaming detector, still used by prorace_bench/;
 * retire it when that harness next changes.
 */
using IncrementalFastTrack = FastTrack;

/**
 * FastTrack over a pre-merged event stream.
 *
 * Callers feed events in an order that respects each thread's program
 * order and the TSC order of synchronization operations; plain accesses
 * may interleave arbitrarily between their surrounding sync events.
 */
class FastTrack
{
  public:
    explicit FastTrack(const IncrementalOptions &options = {});
    ~FastTrack();

    // --- synchronization events ---

    /** lock(m) / generic acquire of object @p object. */
    void acquire(uint32_t tid, uint64_t object);

    /** unlock(m) / generic release of object @p object. */
    void release(uint32_t tid, uint64_t object);

    /** Barrier entry: joins the thread's clock into the barrier object. */
    void barrierEnter(uint32_t tid, uint64_t object);

    /** Barrier exit: acquires the accumulated barrier clock. */
    void barrierExit(uint32_t tid, uint64_t object);

    // --- reader/writer locks (DESIGN.md §16) ---
    //
    // Two clocks per rwlock: the write-release clock (shared with the
    // mutex table — a write unlock is a plain release) and a read-side
    // clock accumulating every read-unlock. Readers acquire only the
    // write clock, so concurrent readers never synchronize with each
    // other; a writer acquires both, ordering it after every prior
    // critical section of either mode.

    /** rdlock(rw): acquires the last write-unlock's clock only. */
    void readLock(uint32_t tid, uint64_t object);

    /** unlock(rw) from read mode: accumulates into the read clock. */
    void readUnlock(uint32_t tid, uint64_t object);

    /** wrlock(rw): acquires the write clock and the read clock. */
    void writeLock(uint32_t tid, uint64_t object);

    /** unlock(rw) from write mode: plain release of the write clock. */
    void writeUnlock(uint32_t tid, uint64_t object);

    // --- counting semaphores ---
    //
    // Each post snapshots the poster's clock onto a FIFO per-semaphore
    // queue; each wait consumes the oldest snapshot (post -> wait edge).
    // A wait satisfied by an initial credit finds the queue empty and
    // creates no edge — which is exactly what makes semaphore-as-signal
    // misuse detectable.

    /** sem_init(s, value): resets the post queue (no HB edge). */
    void semInit(uint32_t tid, uint64_t object, uint64_t value);

    /** sem_wait(s): joins the oldest unconsumed post's clock, if any. */
    void semWait(uint32_t tid, uint64_t object);

    /** sem_post(s): enqueues the poster's clock snapshot. */
    void semPost(uint32_t tid, uint64_t object);

    /**
     * Combined acquire+release of one object (acq_rel atomic RMW): the
     * object clock and the thread clock join into each other, modeling
     * the C11 release sequence an RMW continues.
     */
    void acquireRelease(uint32_t tid, uint64_t object);

    /** pthread_create edge parent -> child. */
    void fork(uint32_t parent, uint32_t child);

    /**
     * Thread exit: publishes the final clock for joiners. @p tsc is the
     * exit's feed timestamp; the streaming GC retires the thread once a
     * batch boundary's frontier passes it.
     */
    void threadExit(uint32_t tid, uint64_t tsc = 0);

    /** pthread_join edge child-exit -> parent. */
    void join(uint32_t parent, uint32_t child);

    /** malloc: opens a new lifetime for [addr, addr+size). */
    void allocate(uint32_t tid, uint64_t addr, uint64_t size);

    /** free: closes the lifetime; shadow state in range is discarded. */
    void deallocate(uint32_t tid, uint64_t addr);

    // --- memory accesses ---

    /** Check and record one access. */
    void access(const MemAccess &ma);

    /** Detected races. */
    const RaceReport &report() const { return report_; }
    RaceReport &report() { return report_; }

    /** Statistics, including flat-table probe counters. */
    FastTrackStats stats() const;

    // --- streaming control (DESIGN.md §13.2) ---

    /**
     * Declare a thread that must be seen before any GC: the gating
     * described in the file comment. Call once per tid in the trace
     * meta before feeding events.
     */
    void requireThread(uint32_t tid);

    /**
     * A batch of feed events is complete and every later event has
     * tsc >= @p frontier_tsc: retire threads whose exit is strictly
     * before the frontier, then sweep quiescent state if GC is
     * enabled, ungated, and due.
     */
    void batchBoundary(uint64_t frontier_tsc);

    /**
     * End of stream: a final unconditional boundary (with an infinite
     * frontier, so every exited thread retires) that settles the peak
     * counters. The report is valid without calling this; it only
     * completes the statistics.
     */
    void finish();

    IncrementalStats incrementalStats() const;
    const IncrementalOptions &options() const { return options_; }

    /** Live shadow granules right now (memory-bound assertions). */
    uint64_t liveGranules() const { return shadow_.size(); }

    /** All required initial threads have appeared; GC may run. */
    bool gcUngated() const { return required_unseen_ == 0; }

  private:
    /** Shadow state of one 8-byte granule, stored inline in the table. */
    struct VarState {
        Epoch write_epoch;
        RaceAccess last_write;
        bool write_atomic = false;

        // Reads: a single epoch while totally ordered, a vector clock
        // once concurrent reads exist (the FastTrack read-share
        // adaptation). The clock lives inline; read_is_shared gates it.
        Epoch read_epoch;
        RaceAccess last_read;
        bool read_atomic = true;      ///< all recorded reads were atomic
        bool read_is_shared = false;
        VectorClock read_vc;
        RaceAccess shared_read_sample; ///< representative reader for reports

        // Shared-mode reads by PLAIN (non-atomic) accesses only. A
        // single read_atomic bit over all readers would let one plain
        // reader poison the atomic-vs-atomic suppression for every
        // other reader; tracking plain readers in their own clock keeps
        // the suppression per-pair exact.
        VectorClock plain_read_vc;
        RaceAccess shared_plain_sample; ///< representative plain reader
    };

    /** Per-thread detector state. */
    struct ThreadState {
        explicit ThreadState(uint32_t tid) : tid(tid)
        {
            clock.set(tid, 1);
        }

        uint32_t tid;
        VectorClock clock;
        bool exited = false;  ///< threadExit() seen; exit_tsc is valid
        bool retired = false; ///< exited, and the frontier passed exit_tsc
        uint64_t exit_tsc = 0;

        uint64_t epochClock() const { return clock.get(tid); }
        Epoch epoch() const { return Epoch(tid, epochClock()); }

        void
        increment()
        {
            clock.set(tid, epochClock() + 1);
        }
    };

    /**
     * The state of @p tid, created on its first event. Every event
     * method calls this for the thread it names, even where it needs
     * no clock: creation marks the thread seen for the GC gate and puts
     * it in the GC floor, and the two must never disagree.
     */
    ThreadState &threadState(uint32_t tid);
    VectorClock &lockClock(uint64_t object);
    void sweep();
    uint64_t sweepQuiescentShadow(const VectorClock &floor);
    uint64_t sweepExitedClocks(const VectorClock &floor);
    void checkRead(VarState &var, const MemAccess &ma, ThreadState &th);
    void checkWrite(VarState &var, const MemAccess &ma, ThreadState &th);
    void reportRace(const VarState &var, bool prior_is_write,
                    const MemAccess &ma, uint64_t granule_addr,
                    bool prior_plain_shared = false);

    /** FIFO of unconsumed post-clock snapshots of one semaphore. */
    struct SemQueue {
        std::vector<VectorClock> posts;
    };

    std::vector<std::unique_ptr<ThreadState>> threads_;
    FlatMap<VectorClock> locks_;
    FlatMap<VectorClock> exited_;
    FlatMap<VectorClock> rw_read_; ///< rwlock read-side clocks
    FlatMap<SemQueue> sem_posts_;  ///< semaphore post queues
    /** Tids whose exit clock was GC'd; joins of these silently no-op. */
    std::vector<bool> exit_reclaimed_;
    FlatMap<VarState> shadow_;    ///< keyed by granule index
    FlatMap<uint64_t> alloc_sizes_;
    RaceReport report_;
    FastTrackStats stats_;

    // Streaming bookkeeping.
    IncrementalOptions options_;
    IncrementalStats inc_;       ///< events is filled on read
    std::vector<bool> required_; ///< tids gating GC
    uint64_t required_unseen_ = 0;
    uint64_t events_at_last_gc_ = 0;
};

} // namespace prorace::detect

#endif // PRORACE_DETECT_FASTTRACK_HH
