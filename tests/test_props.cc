/**
 * @file
 * Property tests for the PR-2 shadow primitives: long random operation
 * sequences against trivially-correct models. FlatMap runs against
 * std::unordered_map with adversarial key distributions, once with
 * plain values and once (FlatMapFuzz) with heap-owning ones; the SSO
 * VectorClock runs against a dense vector model with tids crossing the
 * inline-4 spill boundary both ways.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "detect/fasttrack.hh"
#include "detect/vector_clock.hh"
#include "support/flat_map.hh"
#include "support/rng.hh"

#include "testutil.hh"

namespace {

using namespace prorace;
using detect::VectorClock;

/**
 * Keys that stress the open-addressing table: dense small integers
 * (clustered probes), one-bit patterns (weak hash inputs), and a few
 * scattered 64-bit values (growth).
 */
uint64_t
adversarialKey(Rng &rng)
{
    switch (rng.below(3)) {
      case 0: return rng.below(64);
      case 1: return uint64_t{1} << rng.below(64);
      default: return rng.next() | 1;
    }
}

TEST(FlatMapProps, RandomOpsMatchUnorderedMap)
{
    for (uint64_t seed : testutil::testSeeds({101ull, 202ull, 303ull})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        FlatMap<uint64_t> flat;
        std::unordered_map<uint64_t, uint64_t> ref;

        for (int op = 0; op < 60000; ++op) {
            const uint64_t key = adversarialKey(rng);
            switch (rng.below(4)) {
              case 0: // insert/overwrite
                flat[key] = static_cast<uint64_t>(op);
                ref[key] = static_cast<uint64_t>(op);
                break;
              case 1: // erase
                ASSERT_EQ(flat.erase(key), ref.erase(key) > 0);
                break;
              case 2: { // lookup
                const uint64_t *v = flat.find(key);
                const auto it = ref.find(key);
                ASSERT_EQ(v != nullptr, it != ref.end());
                if (v) {
                    ASSERT_EQ(*v, it->second);
                }
                break;
              }
              default: // operator[] default-constructs like the model
                ASSERT_EQ(flat[key], ref[key]);
                break;
            }
            ASSERT_EQ(flat.size(), ref.size());
        }

        // forEach visits exactly the model's surviving entries.
        std::unordered_map<uint64_t, uint64_t> visited;
        flat.forEach([&](uint64_t k, const uint64_t &v) {
            ASSERT_TRUE(visited.emplace(k, v).second)
                << "forEach visited key twice";
        });
        ASSERT_EQ(visited.size(), ref.size());
        for (const auto &[k, v] : ref) {
            const auto it = visited.find(k);
            ASSERT_NE(it, visited.end());
            ASSERT_EQ(it->second, v);
        }
    }
}

/** Operations per FlatMapFuzz run; PRORACE_FUZZ_ITERS scales it. */
uint64_t
flatMapFuzzOps()
{
    if (const char *env = std::getenv("PRORACE_FUZZ_ITERS"))
        return std::strtoull(env, nullptr, 10);
    return 40'000;
}

TEST(FlatMapFuzz, HeapOwningValuesMatchUnorderedMap)
{
    // The values are vector clocks spilled to the heap past their four
    // inline components, so a value that is moved, reset or reused
    // wrongly reads back a stale component, or (under ASan) leaks or
    // frees twice. The key pool is small, so erased keys come back
    // often, and a key that comes back must read back VectorClock().
    constexpr uint64_t kDefaultSeed = 30;
    const uint64_t seed = testutil::testSeed(kDefaultSeed);
    PRORACE_SEED_TRACE(seed);
    const uint64_t ops = flatMapFuzzOps();
    Rng rng(seed);
    FlatMap<VectorClock> flat;
    std::unordered_map<uint64_t, std::vector<uint64_t>> ref;

    auto expect_equal = [](const VectorClock &vc,
                           const std::vector<uint64_t> &model) {
        ASSERT_EQ(vc.size(), model.size());
        for (uint32_t t = 0; t < model.size(); ++t)
            ASSERT_EQ(vc.get(t), model[t]) << "component " << t;
    };
    uint64_t reinserted = 0, spilled = 0, cleared = 0, visits = 0;
    std::unordered_map<uint64_t, bool> erased; // erased, not yet back
    for (uint64_t op = 0; op < ops; ++op) {
        const uint64_t key = rng.below(8) == 0
            ? adversarialKey(rng)
            : rng.below(600) * 0x9e370001ull;
        switch (rng.below(16)) {
          case 0: case 1: case 2: case 3: case 4: { // insert and set
            const bool fresh = ref.find(key) == ref.end();
            VectorClock &vc = flat[key];
            std::vector<uint64_t> &model = ref[key];
            if (fresh) {
                ASSERT_EQ(vc.size(), 0u) << "key " << key;
                ASSERT_FALSE(vc.usesHeap()) << "key " << key;
                reinserted += erased.erase(key);
            }
            const uint32_t tid = static_cast<uint32_t>(
                rng.below(rng.below(3) == 0 ? 12 : 4));
            vc.set(tid, op + 1);
            model.resize(std::max<size_t>(model.size(), tid + 1));
            model[tid] = op + 1;
            spilled += vc.usesHeap();
            break;
          }
          case 5: case 6: case 7: { // erase
            const bool had = ref.erase(key) > 0;
            ASSERT_EQ(flat.erase(key), had) << "key " << key;
            if (had)
                erased[key] = true;
            break;
          }
          case 8: { // operator[] default-constructs like the model
            if (ref.find(key) == ref.end())
                reinserted += erased.erase(key);
            expect_equal(flat[key], ref[key]);
            break;
          }
          case 9: { // forEach visits exactly the model's entries
            size_t seen = 0;
            flat.forEach([&](uint64_t k, const VectorClock &vc) {
                const auto it = ref.find(k);
                ASSERT_NE(it, ref.end()) << "key " << k;
                expect_equal(vc, it->second);
                ++seen;
            });
            ASSERT_EQ(seen, ref.size());
            ++visits;
            break;
          }
          case 10: // clear, rarely
            if (rng.below(256) == 0) {
                flat.clear();
                ref.clear();
                erased.clear();
                ++cleared;
            }
            break;
          default: { // lookup, const and not
            const auto it = ref.find(key);
            const VectorClock *v = op % 2
                ? flat.find(key)
                : static_cast<const FlatMap<VectorClock> &>(flat).find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << key;
            if (v)
                expect_equal(*v, it->second);
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
    EXPECT_GT(reinserted, 0u);
    EXPECT_GT(spilled, 0u);
    EXPECT_GT(cleared, 0u);
    EXPECT_GT(visits, 0u);

    // The table's shape is the same however its values are stored:
    // capacity, probe counts and rehashes of the default run are pinned.
    if (seed == kDefaultSeed && ops == 40'000) {
        const FlatMapStats &s = flat.probeStats();
        EXPECT_EQ(flat.capacity(), 1024u);
        EXPECT_EQ(s.lookups, 35077u);
        EXPECT_EQ(s.probe_steps, 130771u);
        EXPECT_EQ(s.rehashes, 74u);
    }
}

/** Dense-vector model of a vector clock. */
struct ClockModel {
    std::vector<uint64_t> c;

    void
    set(uint32_t tid, uint64_t v)
    {
        if (c.size() <= tid)
            c.resize(tid + 1, 0);
        c[tid] = v;
    }

    uint64_t
    get(uint32_t tid) const
    {
        return tid < c.size() ? c[tid] : 0;
    }

    void
    join(const ClockModel &o)
    {
        if (c.size() < o.c.size())
            c.resize(o.c.size(), 0);
        for (size_t i = 0; i < o.c.size(); ++i)
            c[i] = std::max(c[i], o.c[i]);
    }

    bool
    lessOrEqual(const ClockModel &o) const
    {
        for (size_t i = 0; i < c.size(); ++i)
            if (c[i] > o.get(static_cast<uint32_t>(i)))
                return false;
        return true;
    }
};

void
expectClockEquals(const VectorClock &vc, const ClockModel &model,
                  uint32_t max_tid)
{
    for (uint32_t t = 0; t <= max_tid; ++t)
        ASSERT_EQ(vc.get(t), model.get(t)) << "component " << t;
}

TEST(VectorClockProps, RandomOpsMatchDenseModel)
{
    // Tids up to 11 so clocks continually cross the inline-4 boundary.
    constexpr uint32_t kMaxTid = 11;
    for (uint64_t seed : testutil::testSeeds({7ull, 77ull, 777ull})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        constexpr size_t kClocks = 6;
        std::vector<VectorClock> clocks(kClocks);
        std::vector<ClockModel> models(kClocks);

        for (int op = 0; op < 30000; ++op) {
            const size_t i = rng.below(kClocks);
            const size_t j = rng.below(kClocks);
            switch (rng.below(6)) {
              case 0: { // set
                const uint32_t tid =
                    static_cast<uint32_t>(rng.below(kMaxTid + 1));
                const uint64_t v = rng.below(1 << 20);
                clocks[i].set(tid, v);
                models[i].set(tid, v);
                break;
              }
              case 1: // join
                clocks[i].join(clocks[j]);
                models[i].join(models[j]);
                break;
              case 2: // assign
                clocks[i].assign(clocks[j]);
                models[i] = models[j];
                break;
              case 3: // ordering agrees with the model
                ASSERT_EQ(clocks[i].lessOrEqual(clocks[j]),
                          models[i].lessOrEqual(models[j]))
                    << clocks[i].toString() << " vs "
                    << clocks[j].toString();
                break;
              case 4: { // copy construct + move construct round-trip
                VectorClock copy(clocks[i]);
                expectClockEquals(copy, models[i], kMaxTid);
                VectorClock moved(std::move(copy));
                expectClockEquals(moved, models[i], kMaxTid);
                break;
              }
              default: // clear
                clocks[i].clear();
                models[i] = ClockModel{};
                break;
            }
            expectClockEquals(clocks[i], models[i], kMaxTid);
        }

        // Reflexivity and join-absorption on the final states.
        for (size_t i = 0; i < kClocks; ++i) {
            ASSERT_TRUE(clocks[i].lessOrEqual(clocks[i]));
            VectorClock joined(clocks[i]);
            joined.join(clocks[(i + 1) % kClocks]);
            ASSERT_TRUE(clocks[i].lessOrEqual(joined));
        }
    }
}

/** Random clock with components across the inline-4 spill boundary. */
VectorClock
randomClock(Rng &rng)
{
    VectorClock vc;
    const uint32_t entries = static_cast<uint32_t>(rng.below(8));
    for (uint32_t i = 0; i < entries; ++i)
        vc.set(static_cast<uint32_t>(rng.below(12)),
               rng.below(1 << 16) + 1);
    return vc;
}

TEST(VectorClockProps, JoinIsIdempotentAndMonotone)
{
    // join(a, a) == a, and a <= b implies join(a, c) <= join(b, c) —
    // the property that makes rwlock read-clock accumulation and
    // semaphore snapshot joining sound in any order.
    for (uint64_t seed : testutil::testSeeds({5ull, 55ull, 555ull})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        for (int trial = 0; trial < 2000; ++trial) {
            VectorClock a = randomClock(rng);
            VectorClock c = randomClock(rng);
            VectorClock self(a);
            self.join(a);
            for (uint32_t t = 0; t < 12; ++t)
                ASSERT_EQ(self.get(t), a.get(t));

            VectorClock b(a); // b >= a by construction
            b.join(randomClock(rng));
            ASSERT_TRUE(a.lessOrEqual(b));
            VectorClock ac(a), bc(b);
            ac.join(c);
            bc.join(c);
            ASSERT_TRUE(ac.lessOrEqual(bc));
            ASSERT_TRUE(c.lessOrEqual(ac));
        }
    }
}

TEST(VectorClockProps, JoinIsCommutativeAndAssociative)
{
    // Order-insensitivity is what lets readUnlock deposits and
    // semaphore snapshot merges happen in any interleaving.
    for (uint64_t seed : testutil::testSeeds({8ull, 88ull})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        for (int trial = 0; trial < 2000; ++trial) {
            const VectorClock a = randomClock(rng);
            const VectorClock b = randomClock(rng);
            const VectorClock c = randomClock(rng);
            VectorClock ab(a), ba(b);
            ab.join(b);
            ba.join(a);
            VectorClock ab_c(ab), bc(b), a_bc(a);
            ab_c.join(c);
            bc.join(c);
            a_bc.join(bc);
            for (uint32_t t = 0; t < 12; ++t) {
                ASSERT_EQ(ab.get(t), ba.get(t));
                ASSERT_EQ(ab_c.get(t), a_bc.get(t));
            }
        }
    }
}

TEST(ReadSharedProps, DemotionDoesNotMaskLaterConflicts)
{
    // After a clean promotion/demotion cycle (shared readers fully
    // joined by a rwlock writer), the collapsed epoch state must still
    // catch a genuinely unordered write — demotion forgets the
    // readers, not the writer.
    using detect::FastTrack;
    using detect::MemAccess;
    FastTrack ft;
    for (uint32_t t = 1; t <= 3; ++t)
        ft.fork(0, t);
    for (uint32_t t = 1; t <= 2; ++t) {
        ft.readLock(t, 0xa000);
        MemAccess ma;
        ma.tid = t;
        ma.addr = 0x1000;
        ma.is_write = false;
        ma.insn_index = t;
        ft.access(ma);
        ft.readUnlock(t, 0xa000);
    }
    ft.writeLock(1, 0xa000);
    MemAccess w;
    w.tid = 1;
    w.addr = 0x1000;
    w.is_write = true;
    w.insn_index = 5;
    ft.access(w);
    ft.writeUnlock(1, 0xa000);
    ASSERT_TRUE(ft.report().empty());
    ASSERT_GT(ft.stats().read_shares, 0u);

    // Thread 3 never took the lock: its write races the collapsed
    // writer epoch, nothing else.
    MemAccess rogue;
    rogue.tid = 3;
    rogue.addr = 0x1000;
    rogue.is_write = true;
    rogue.insn_index = 9;
    ft.access(rogue);
    ASSERT_EQ(ft.report().size(), 1u);
    EXPECT_TRUE(ft.report().containsPair(5, 9));
}

TEST(ReadSharedProps, SameEpochReadRepetitionDoesNotChangeOutcomes)
{
    // Promotion idempotence: once a granule is read-shared, repeating
    // any reader's read at the same epoch must not change what a later
    // conflicting write reports.
    using detect::FastTrack;
    using detect::MemAccess;
    const auto read = [](uint32_t tid, uint32_t insn) {
        MemAccess ma;
        ma.tid = tid;
        ma.addr = 0x1000;
        ma.is_write = false;
        ma.insn_index = insn;
        return ma;
    };
    FastTrack once, twice;
    for (FastTrack *ft : {&once, &twice}) {
        ft->fork(0, 1);
        ft->fork(0, 2);
        ft->fork(0, 3);
    }
    for (uint32_t t = 1; t <= 3; ++t) {
        once.access(read(t, t));
        twice.access(read(t, t));
        twice.access(read(t, t)); // same epoch: must be absorbed
    }
    EXPECT_GT(twice.stats().epoch_fast_path, 0u);
    for (FastTrack *ft : {&once, &twice}) {
        MemAccess w;
        w.tid = 0;
        w.addr = 0x1000;
        w.is_write = true;
        w.insn_index = 9;
        ft->access(w);
    }
    ASSERT_EQ(once.report().size(), twice.report().size());
    ASSERT_EQ(once.report().size(), 1u);
    EXPECT_EQ(once.report().races()[0].prior.insn_index,
              twice.report().races()[0].prior.insn_index);
}

TEST(ReadSharedProps, PromotionDemotionCyclesStayClean)
{
    // Demotion correctness: rounds of concurrent readers (promoting the
    // granule to read-shared) followed by a writer that joined every
    // reader (demoting it back to epochs) must never report a race, in
    // any round, for any seed.
    using detect::FastTrack;
    using detect::MemAccess;
    constexpr uint32_t kThreads = 4;
    for (uint64_t seed : testutil::testSeeds({3ull, 33ull})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        FastTrack ft;
        const uint64_t rw = 0xa000;
        for (uint32_t t = 1; t < kThreads; ++t)
            ft.fork(0, t);
        for (int round = 0; round < 50; ++round) {
            // A random non-empty reader subset, in random order.
            std::vector<uint32_t> readers;
            for (uint32_t t = 0; t < kThreads; ++t)
                if (rng.below(2) == 0)
                    readers.push_back(t);
            if (readers.empty())
                readers.push_back(static_cast<uint32_t>(
                    rng.below(kThreads)));
            for (size_t i = readers.size(); i > 1; --i)
                std::swap(readers[i - 1], readers[rng.below(i)]);

            for (uint32_t t : readers) {
                ft.readLock(t, rw);
                MemAccess ma;
                ma.tid = t;
                ma.addr = 0x1000;
                ma.is_write = false;
                ma.insn_index = 1;
                ft.access(ma);
                ft.readUnlock(t, rw);
            }
            const uint32_t writer =
                static_cast<uint32_t>(rng.below(kThreads));
            ft.writeLock(writer, rw);
            MemAccess w;
            w.tid = writer;
            w.addr = 0x1000;
            w.is_write = true;
            w.insn_index = 2;
            ft.access(w);
            ft.writeUnlock(writer, rw);
        }
        EXPECT_TRUE(ft.report().empty()) << "seed " << seed;
        EXPECT_GT(ft.stats().read_shares, 0u);
    }
}

TEST(ReadSharedProps, LockDisciplinedRandomSchedulesNeverRace)
{
    // Drive the rwlock state machine with random legal schedules —
    // overlapping readers, exclusive writers, and writer-to-reader
    // downgrades — all touching one shared granule. Any reported race
    // would be a false positive in the two-clock rwlock model.
    using detect::FastTrack;
    using detect::MemAccess;
    constexpr uint32_t kThreads = 5;
    enum class Phase : uint8_t { kIdle, kReading, kWriting };
    for (uint64_t seed : testutil::testSeeds({9ull, 99ull, 999ull})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        FastTrack ft;
        const uint64_t rw = 0xa000;
        for (uint32_t t = 1; t < kThreads; ++t)
            ft.fork(0, t);

        std::vector<Phase> phase(kThreads, Phase::kIdle);
        uint32_t readers = 0;
        bool writer_active = false;
        const auto touch = [&](uint32_t t, bool is_write) {
            MemAccess ma;
            ma.tid = t;
            ma.addr = 0x1000;
            ma.is_write = is_write;
            ma.insn_index = t * 2 + (is_write ? 1 : 0);
            ft.access(ma);
        };
        for (int step = 0; step < 4000; ++step) {
            const uint32_t t = static_cast<uint32_t>(rng.below(kThreads));
            switch (phase[t]) {
              case Phase::kIdle:
                if (rng.below(4) == 0) {
                    if (!writer_active && readers == 0) {
                        ft.writeLock(t, rw);
                        touch(t, true);
                        phase[t] = Phase::kWriting;
                        writer_active = true;
                    }
                } else if (!writer_active) {
                    ft.readLock(t, rw);
                    touch(t, false);
                    phase[t] = Phase::kReading;
                    ++readers;
                }
                break;
              case Phase::kReading:
                if (rng.below(2) == 0) {
                    touch(t, false);
                } else {
                    ft.readUnlock(t, rw);
                    phase[t] = Phase::kIdle;
                    --readers;
                }
                break;
              case Phase::kWriting:
                switch (rng.below(3)) {
                  case 0:
                    touch(t, true);
                    break;
                  case 1: // downgrade: unlock + immediate read lock
                    ft.writeUnlock(t, rw);
                    ft.readLock(t, rw);
                    touch(t, false);
                    phase[t] = Phase::kReading;
                    writer_active = false;
                    ++readers;
                    break;
                  default:
                    ft.writeUnlock(t, rw);
                    phase[t] = Phase::kIdle;
                    writer_active = false;
                    break;
                }
                break;
            }
        }
        EXPECT_TRUE(ft.report().empty()) << "seed " << seed;
        EXPECT_GT(ft.stats().read_shares, 0u);
    }
}

} // namespace
