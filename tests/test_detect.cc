/**
 * @file
 * Unit tests for the FastTrack detector, vector clocks, and reports.
 */

#include <random>
#include <set>

#include <gtest/gtest.h>

#include "detect/fasttrack.hh"
#include "detect/fasttrack_ref.hh"
#include "detect/report.hh"
#include "detect/vector_clock.hh"

#include "testutil.hh"

namespace prorace::detect {
namespace {

MemAccess
acc(uint32_t tid, uint64_t addr, bool is_write, uint32_t insn = 0,
    bool atomic = false)
{
    MemAccess ma;
    ma.tid = tid;
    ma.addr = addr;
    ma.is_write = is_write;
    ma.insn_index = insn;
    ma.is_atomic = atomic;
    return ma;
}

TEST(VectorClock, GetSetJoin)
{
    VectorClock a, b;
    a.set(0, 5);
    a.set(3, 2);
    b.set(0, 3);
    b.set(1, 9);
    a.join(b);
    EXPECT_EQ(a.get(0), 5u);
    EXPECT_EQ(a.get(1), 9u);
    EXPECT_EQ(a.get(2), 0u);
    EXPECT_EQ(a.get(3), 2u);
    EXPECT_EQ(a.get(100), 0u);
}

TEST(VectorClock, LessOrEqual)
{
    VectorClock a, b;
    a.set(0, 1);
    a.set(1, 2);
    b.set(0, 1);
    b.set(1, 3);
    EXPECT_TRUE(a.lessOrEqual(b));
    EXPECT_FALSE(b.lessOrEqual(a));
    VectorClock empty;
    EXPECT_TRUE(empty.lessOrEqual(a));
}

TEST(Epoch, PackingAndHappensBefore)
{
    Epoch e(7, 123);
    EXPECT_EQ(e.tid(), 7u);
    EXPECT_EQ(e.clock(), 123u);
    EXPECT_FALSE(e.isZero());
    EXPECT_TRUE(Epoch().isZero());

    VectorClock vc;
    vc.set(7, 122);
    EXPECT_FALSE(e.happensBefore(vc));
    vc.set(7, 123);
    EXPECT_TRUE(e.happensBefore(vc));
}

TEST(FastTrack, DetectsUnsynchronizedWriteWrite)
{
    FastTrack ft;
    ft.access(acc(0, 0x1000, true, 10));
    ft.access(acc(1, 0x1000, true, 20));
    ASSERT_EQ(ft.report().size(), 1u);
    EXPECT_TRUE(ft.report().containsPair(10, 20));
    EXPECT_TRUE(ft.report().races()[0].current.is_write);
}

TEST(FastTrack, DetectsWriteReadAndReadWrite)
{
    {
        FastTrack ft;
        ft.access(acc(0, 0x1000, true, 1));
        ft.access(acc(1, 0x1000, false, 2));
        EXPECT_EQ(ft.report().size(), 1u);
    }
    {
        FastTrack ft;
        ft.access(acc(0, 0x1000, false, 1));
        ft.access(acc(1, 0x1000, true, 2));
        EXPECT_EQ(ft.report().size(), 1u);
    }
}

TEST(FastTrack, NoRaceUnderCommonLock)
{
    FastTrack ft;
    const uint64_t m = 0x9000;
    ft.acquire(0, m);
    ft.access(acc(0, 0x1000, true, 1));
    ft.release(0, m);
    ft.acquire(1, m);
    ft.access(acc(1, 0x1000, true, 2));
    ft.release(1, m);
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, DifferentLocksDoNotOrder)
{
    FastTrack ft;
    ft.acquire(0, 0x9000);
    ft.access(acc(0, 0x1000, true, 1));
    ft.release(0, 0x9000);
    ft.acquire(1, 0x9100);
    ft.access(acc(1, 0x1000, true, 2));
    ft.release(1, 0x9100);
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, ForkJoinCreateHappensBefore)
{
    FastTrack ft;
    ft.access(acc(0, 0x1000, true, 1));
    ft.fork(0, 1);
    ft.access(acc(1, 0x1000, true, 2)); // ordered after parent's write
    ft.threadExit(1);
    ft.join(0, 1);
    ft.access(acc(0, 0x1000, false, 3)); // ordered after child's write
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, SiblingsWithoutSyncRace)
{
    FastTrack ft;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.access(acc(1, 0x1000, true, 1));
    ft.access(acc(2, 0x1000, true, 2));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, ConcurrentReadsAloneAreNotARace)
{
    FastTrack ft;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.access(acc(1, 0x1000, false, 1));
    ft.access(acc(2, 0x1000, false, 2));
    ft.access(acc(0, 0x1000, false, 3));
    EXPECT_TRUE(ft.report().empty());
    EXPECT_GE(ft.stats().read_shares, 1u);
}

TEST(FastTrack, WriteAfterSharedReadsRaces)
{
    FastTrack ft;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.access(acc(1, 0x1000, false, 1));
    ft.access(acc(2, 0x1000, false, 2));
    // Thread 0 writes without joining the readers: read-write race.
    ft.access(acc(0, 0x1000, true, 3));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, WriteAfterJoinedSharedReadsIsClean)
{
    FastTrack ft;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.access(acc(1, 0x1000, false, 1));
    ft.access(acc(2, 0x1000, false, 2));
    ft.threadExit(1);
    ft.threadExit(2);
    ft.join(0, 1);
    ft.join(0, 2);
    ft.access(acc(0, 0x1000, true, 3));
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, BarrierOrdersPhases)
{
    FastTrack ft;
    const uint64_t bar = 0xb000;
    ft.fork(0, 1);
    // Phase 1: each thread writes its own slot... then both write the
    // same location in phase 2 after the barrier; barrier orders phase 1
    // writes before phase 2 accesses.
    ft.access(acc(0, 0x1000, true, 1));
    ft.barrierEnter(0, bar);
    ft.barrierEnter(1, bar);
    ft.barrierExit(0, bar);
    ft.barrierExit(1, bar);
    ft.access(acc(1, 0x1000, false, 2)); // reads t0's phase-1 write
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, CondVarSignalWakeEdge)
{
    // Modeled as the offline analyzer feeds it: signaler releases the cv
    // object, waiter acquires it on wake.
    FastTrack ft;
    const uint64_t cv = 0xc000, m = 0x9000;
    ft.fork(0, 1);
    // waiter: lock, (condition false), wait begin => release mutex
    ft.acquire(1, m);
    ft.release(1, m);
    // signaler: lock, write shared, signal, unlock
    ft.acquire(0, m);
    ft.access(acc(0, 0x1000, true, 1));
    ft.release(0, cv); // signal
    ft.release(0, m);
    // waiter wakes: acquires mutex and cv clock, then reads
    ft.acquire(1, m);
    ft.acquire(1, cv);
    ft.access(acc(1, 0x1000, false, 2));
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, AtomicPairIsExcludedMixedIsNot)
{
    {
        FastTrack ft;
        ft.access(acc(0, 0x1000, true, 1, true));
        ft.access(acc(1, 0x1000, true, 2, true));
        EXPECT_TRUE(ft.report().empty()) << "atomic-atomic is not a race";
    }
    {
        FastTrack ft;
        ft.access(acc(0, 0x1000, true, 1, true));
        ft.access(acc(1, 0x1000, true, 2, false));
        EXPECT_EQ(ft.report().size(), 1u) << "atomic-plain is a race";
    }
}

TEST(FastTrack, MallocFreeSuppressesAddressReuseFalsePositive)
{
    // Thread 0 uses an object, frees it; the allocator hands the same
    // address to thread 1. Without allocation tracking this pairs the
    // two lifetimes into a bogus race (paper §4.3).
    FastTrack ft;
    const uint64_t blk = 0x1000000;
    ft.fork(0, 1);
    ft.allocate(0, blk, 64);
    ft.access(acc(0, blk + 16, true, 1));
    ft.deallocate(0, blk);
    ft.allocate(1, blk, 64);
    ft.access(acc(1, blk + 16, true, 2));
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, WithoutFreeTrackingSameSequenceWouldRace)
{
    // Sanity inverse of the previous test: no allocation events => race.
    FastTrack ft;
    const uint64_t blk = 0x1000000;
    ft.fork(0, 1);
    ft.access(acc(0, blk + 16, true, 1));
    ft.access(acc(1, blk + 16, true, 2));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, GranuleOverlapDetected)
{
    // A 1-byte access overlapping an 8-byte write in the same granule.
    FastTrack ft;
    ft.access(acc(0, 0x1000, true, 1)); // 8 bytes at 0x1000
    MemAccess narrow = acc(1, 0x1004, false, 2);
    narrow.width = 1;
    ft.access(narrow);
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, StraddlingAccessChecksBothGranules)
{
    FastTrack ft;
    MemAccess wide = acc(0, 0x1004, true, 1);
    wide.width = 8; // covers granules 0x1000 and 0x1008
    ft.access(wide);
    ft.access(acc(1, 0x1008, false, 2));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, SameThreadNeverRacesWithItself)
{
    FastTrack ft;
    for (int i = 0; i < 10; ++i)
        ft.access(acc(0, 0x1000, i % 2 == 0, 1));
    EXPECT_TRUE(ft.report().empty());
    EXPECT_GT(ft.stats().epoch_fast_path, 0u);
}

TEST(FastTrack, RwlockConcurrentReadersThenWriterIsClean)
{
    // Readers overlap freely; the writer joins the accumulated read
    // clock at writeLock, ordering every unlocked read before it.
    FastTrack ft;
    const uint64_t rw = 0xa000;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.writeLock(0, rw);
    ft.access(acc(0, 0x1000, true, 1));
    ft.writeUnlock(0, rw);
    ft.readLock(1, rw);
    ft.access(acc(1, 0x1000, false, 2));
    ft.readUnlock(1, rw);
    ft.readLock(2, rw);
    ft.access(acc(2, 0x1000, false, 3));
    ft.readUnlock(2, rw);
    ft.writeLock(0, rw);
    ft.access(acc(0, 0x1000, true, 4));
    ft.writeUnlock(0, rw);
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, RwlockReadLockDoesNotOrderReadersWithEachOther)
{
    // The upgrade misuse: writing under a READ lock. Read-side
    // critical sections run concurrently, so two such writes race.
    FastTrack ft;
    const uint64_t rw = 0xa000;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.readLock(1, rw);
    ft.access(acc(1, 0x1000, true, 1));
    ft.readUnlock(1, rw);
    ft.readLock(2, rw);
    ft.access(acc(2, 0x1000, true, 2));
    ft.readUnlock(2, rw);
    EXPECT_EQ(ft.report().size(), 1u);
    EXPECT_TRUE(ft.report().containsPair(1, 2));
}

TEST(FastTrack, RwlockWriterWaitsForReadUnlockNotReadLock)
{
    // A read that happened under the read lock is ordered before the
    // next writeLock only because readUnlock deposited the reader's
    // clock; a reader that has not unlocked yet still races with a
    // concurrent write-side write. (The VM never schedules this —
    // wrlock blocks — but the clock algebra must be directional.)
    FastTrack ft;
    const uint64_t rw = 0xa000;
    ft.fork(0, 1);
    ft.readLock(1, rw);
    ft.access(acc(1, 0x1000, false, 1));
    // no readUnlock: the reader's clock was never published
    ft.writeLock(0, rw);
    ft.access(acc(0, 0x1000, true, 2));
    ft.writeUnlock(0, rw);
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, SemaphorePostWaitCreatesEdge)
{
    FastTrack ft;
    const uint64_t sem = 0x5000;
    ft.fork(0, 1);
    ft.access(acc(0, 0x1000, true, 1));
    ft.semPost(0, sem);
    ft.semWait(1, sem);
    ft.access(acc(1, 0x1000, false, 2));
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, SemaphoreInitialCreditWaitHasNoEdge)
{
    // A wait satisfied by semInit credits (an empty post queue) carries
    // no happens-before: that is exactly what makes semaphore-as-mutex
    // misuse detectable.
    FastTrack ft;
    const uint64_t sem = 0x5000;
    ft.fork(0, 1);
    ft.semInit(0, sem, 2);
    ft.access(acc(0, 0x1000, true, 1));
    ft.semWait(1, sem);
    ft.access(acc(1, 0x1000, true, 2));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, SemaphorePostsPairWithWaitsInFifoOrder)
{
    FastTrack ft;
    const uint64_t sem = 0x5000;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.access(acc(1, 0x1000, true, 1)); // published by the FIRST post
    ft.semPost(1, sem);
    ft.access(acc(2, 0x2000, true, 2)); // published by the SECOND post
    ft.semPost(2, sem);
    // One wait consumes only the first post: 0x1000 is ordered,
    // 0x2000 is not.
    ft.semWait(0, sem);
    ft.access(acc(0, 0x1000, false, 3));
    ft.access(acc(0, 0x2000, false, 4));
    EXPECT_EQ(ft.report().size(), 1u);
    EXPECT_TRUE(ft.report().containsPair(2, 4));
}

TEST(FastTrack, SemInitDiscardsPendingPosts)
{
    FastTrack ft;
    const uint64_t sem = 0x5000;
    ft.fork(0, 1);
    ft.access(acc(0, 0x1000, true, 1));
    ft.semPost(0, sem);
    ft.semInit(0, sem, 0); // reinitialization clears the queue
    ft.semWait(1, sem);
    ft.access(acc(1, 0x1000, false, 2));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, AcquireReleaseChainsThroughIntermediateThreads)
{
    // acq_rel RMWs continue the release sequence: t0's write reaches
    // t2 through t1's intermediate RMW on the same object.
    FastTrack ft;
    const uint64_t obj = 0x7000;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.access(acc(0, 0x1000, true, 1));
    ft.acquireRelease(0, obj);
    ft.acquireRelease(1, obj);
    ft.acquireRelease(2, obj);
    ft.access(acc(2, 0x1000, false, 2));
    EXPECT_TRUE(ft.report().empty());
}

TEST(FastTrack, AcquireWithoutPriorReleaseHasNoEdge)
{
    FastTrack ft;
    ft.fork(0, 1);
    ft.access(acc(0, 0x1000, true, 1));
    ft.acquire(1, 0x7000); // nothing was ever released to this object
    ft.access(acc(1, 0x1000, false, 2));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(FastTrack, SharedAtomicReadersKeepSuppressionExact)
{
    // Read-shared state with MIXED plain and atomic readers: an atomic
    // write must race with the plain reader but stay suppressed against
    // the atomic reader — one plain reader must not poison the
    // atomic-vs-atomic suppression (and vice versa).
    FastTrack ft;
    ft.fork(0, 1);
    ft.fork(0, 2);
    ft.access(acc(1, 0x1000, false, 1, true));  // atomic reader
    ft.access(acc(2, 0x1000, false, 2, false)); // plain reader
    ft.access(acc(0, 0x1000, true, 3, true));   // atomic writer
    ASSERT_EQ(ft.report().size(), 1u);
    EXPECT_TRUE(ft.report().containsPair(2, 3))
        << "the reported pair must name the PLAIN reader";
}

TEST(FastTrack, SharedAllAtomicReadersSuppressAtomicWriteOnly)
{
    {
        FastTrack ft;
        ft.fork(0, 1);
        ft.fork(0, 2);
        ft.access(acc(1, 0x1000, false, 1, true));
        ft.access(acc(2, 0x1000, false, 2, true));
        ft.access(acc(0, 0x1000, true, 3, true));
        EXPECT_TRUE(ft.report().empty());
    }
    {
        FastTrack ft;
        ft.fork(0, 1);
        ft.fork(0, 2);
        ft.access(acc(1, 0x1000, false, 1, true));
        ft.access(acc(2, 0x1000, false, 2, true));
        ft.access(acc(0, 0x1000, true, 3, false)); // plain write races
        EXPECT_EQ(ft.report().size(), 1u);
    }
}

/**
 * One randomized event over the full sync vocabulary, by one of threads
 * 0 .. @p threads - 1.
 */
template <typename Detector>
void
applyRandomEvent(Detector &ft, std::mt19937_64 &rng, uint64_t tsc,
                 uint32_t threads = 4)
{
    const uint32_t tid = static_cast<uint32_t>(rng() % threads);
    const uint64_t obj = 0xa000 + (rng() % 3) * 0x100;
    const uint64_t addr = 0x1000 + (rng() % 6) * 8;
    switch (rng() % 14) {
      case 0: ft.acquire(tid, obj); break;
      case 1: ft.release(tid, obj); break;
      case 2: ft.readLock(tid, obj); break;
      case 3: ft.readUnlock(tid, obj); break;
      case 4: ft.writeLock(tid, obj); break;
      case 5: ft.writeUnlock(tid, obj); break;
      case 6: ft.semInit(tid, obj, rng() % 3); break;
      case 7: ft.semWait(tid, obj); break;
      case 8: ft.semPost(tid, obj); break;
      case 9: ft.acquireRelease(tid, obj); break;
      default: {
        MemAccess ma;
        ma.tid = tid;
        ma.addr = addr;
        ma.is_write = rng() % 2 == 0;
        ma.is_atomic = rng() % 4 == 0;
        ma.insn_index = static_cast<uint32_t>(rng() % 64);
        ma.tsc = tsc;
        ft.access(ma);
        break;
      }
    }
}

std::set<std::pair<uint32_t, uint32_t>>
reportPairs(const RaceReport &report)
{
    std::set<std::pair<uint32_t, uint32_t>> pairs;
    for (const DataRace &race : report.races()) {
        const uint32_t a = race.prior.insn_index;
        const uint32_t b = race.current.insn_index;
        pairs.emplace(std::min(a, b), std::max(a, b));
    }
    return pairs;
}

TEST(Differential, FastTrackMatchesReferenceOnRandomSyncStreams)
{
    // The optimized detector (epochs, inline clocks, FlatMap) and the
    // naive reference (full maps, deques) must report identical race
    // pair sets on arbitrary streams over the whole sync vocabulary.
    for (uint64_t seed : testutil::testSeeds({101ull, 202ull, 303ull})) {
        PRORACE_SEED_TRACE(seed);
        std::mt19937_64 rng(seed);
        FastTrack fast;
        RefFastTrack ref;
        for (uint32_t t = 1; t < 4; ++t) {
            fast.fork(0, t);
            ref.fork(0, t);
        }
        for (uint64_t i = 0; i < 3000; ++i) {
            std::mt19937_64 fork_a = rng; // same stream for both
            applyRandomEvent(fast, fork_a, i);
            applyRandomEvent(ref, rng, i);
        }
        EXPECT_EQ(reportPairs(fast.report()), reportPairs(ref.report()))
            << "seed " << seed;
        EXPECT_EQ(fast.report().size(), ref.report().size());
    }
}

TEST(Differential, IncrementalMatchesOneShotOnRandomSyncStreams)
{
    // Streaming with batch boundaries and epoch GC enabled must be
    // report-identical to one-shot analysis of the same events.
    //
    // In the late-start variants, required thread 3 has no fork edge
    // and stays silent for the first boundaries; its first event is a
    // malloc or a free, and a boundary follows at once. GC must stay
    // gated until then, and from then on thread 3's fresh clock must
    // hold the floor down: a probe write by thread 0 that threads 1 and
    // 2 have synchronized with must survive that boundary's sweep,
    // because thread 3's next write races with it.
    enum class Start { kForked, kLateMalloc, kLateFree };
    constexpr uint64_t kLateStep = 1500;
    constexpr uint64_t kProbeAddr = 0x7000;
    constexpr uint64_t kProbeLock = 0xf000;
    for (uint64_t seed : testutil::testSeeds({111ull, 222ull})) {
        for (const Start start :
             {Start::kForked, Start::kLateMalloc, Start::kLateFree}) {
            PRORACE_SEED_TRACE(seed);
            const bool late = start != Start::kForked;
            IncrementalOptions opts;
            opts.enable_gc = true;
            opts.gc_min_events = 256;
            FastTrack inc(opts);
            FastTrack oneshot;
            for (uint32_t t = 0; t < 4; ++t)
                inc.requireThread(t);
            for (uint32_t t = 1; t < (late ? 3u : 4u); ++t) {
                inc.fork(0, t);
                oneshot.fork(0, t);
            }
            std::mt19937_64 rng(seed);
            for (uint64_t i = 0; i < 4000; ++i) {
                if (late && i == kLateStep) {
                    EXPECT_FALSE(inc.gcUngated());
                    EXPECT_GT(inc.incrementalStats().gc_gated, 0u);
                    for (FastTrack *ft : {&inc, &oneshot}) {
                        ft->access(acc(0, kProbeAddr, true, 101));
                        ft->release(0, kProbeLock);
                        ft->acquire(1, kProbeLock);
                        ft->acquire(2, kProbeLock);
                        if (start == Start::kLateMalloc)
                            ft->allocate(3, 0x8000, 16);
                        else
                            ft->deallocate(3, 0x8000);
                    }
                    EXPECT_TRUE(inc.gcUngated());
                    inc.batchBoundary(i);
                    for (FastTrack *ft : {&inc, &oneshot})
                        ft->access(acc(3, kProbeAddr, true, 100));
                    EXPECT_TRUE(oneshot.report().containsPair(101, 100));
                    EXPECT_TRUE(inc.report().containsPair(101, 100));
                }
                const uint32_t threads = late && i < kLateStep ? 3 : 4;
                std::mt19937_64 fork_a = rng;
                applyRandomEvent(inc, fork_a, i, threads);
                applyRandomEvent(oneshot, rng, i, threads);
                if (i % 512 == 511)
                    inc.batchBoundary(i + 1);
            }
            inc.finish();
            EXPECT_GT(inc.incrementalStats().gc_sweeps, 0u);
            EXPECT_EQ(reportPairs(inc.report()),
                      reportPairs(oneshot.report()))
                << "seed " << seed << " start "
                << static_cast<int>(start);
        }
    }
}

TEST(RaceReport, DeduplicatesInstructionPairs)
{
    RaceReport r;
    DataRace race;
    race.addr = 0x1000;
    race.prior = {0, 10, true, 0, AccessOrigin::kSampled};
    race.current = {1, 20, true, 0, AccessOrigin::kForward};
    r.add(race);
    r.add(race);
    std::swap(race.prior.insn_index, race.current.insn_index);
    r.add(race); // reversed pair is the same static race
    EXPECT_EQ(r.size(), 1u);
    EXPECT_TRUE(r.containsPair(20, 10));
    EXPECT_TRUE(r.containsInsn(10));
    EXPECT_FALSE(r.containsInsn(11));
    EXPECT_TRUE(r.containsAddressRange(0x0ff8, 16));
    EXPECT_FALSE(r.containsAddressRange(0x2000, 8));
}

TEST(RaceReport, FormatMentionsOrigins)
{
    RaceReport r;
    DataRace race;
    race.addr = 0x1000;
    race.prior = {0, 1, true, 5, AccessOrigin::kSampled};
    race.current = {1, 2, false, 9, AccessOrigin::kBackward};
    r.add(race);
    const std::string text = r.format();
    EXPECT_NE(text.find("sampled"), std::string::npos);
    EXPECT_NE(text.find("backward-replay"), std::string::npos);
    EXPECT_NE(text.find("write"), std::string::npos);
}

} // namespace
} // namespace prorace::detect
