/**
 * @file
 * Sample alignment pinned as data. Every thread's aligned samples and
 * syncs (record index, path position) and its anchors (position, TSC)
 * are folded into one CRC per run, so any change to which position a
 * sample lands on shows up here before it reaches a report. The runs
 * are registry subjects at a dense and a sparse period and one
 * hand-built trace that reaches the alignment's corner cases. The
 * per-core PEBS index is checked against the brute-force scans it
 * replaces over random record sets.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "asmkit/builder.hh"
#include "core/pipeline.hh"
#include "replay/align.hh"
#include "support/crc32.hh"
#include "support/rng.hh"
#include "testutil.hh"
#include "workload/registry.hh"

namespace prorace::replay {
namespace {

using isa::CondCode;
using isa::Reg;
using pmu::kPathGap;

/** Fold @p value into a running CRC. */
template <typename T>
void
crcAdd(uint32_t &crc, T value)
{
    crc = crc32(&value, sizeof value, crc);
}

/**
 * "crc matched unmatched" of an alignment: the CRC covers, per thread
 * in tid order, the tid, every sample and sync as (record_index,
 * position) and every anchor as (position, tsc).
 */
std::string
alignmentDigest(const std::map<uint32_t, ThreadAlignment> &alignments,
                const AlignStats &stats)
{
    uint32_t crc = 0;
    for (const auto &[tid, a] : alignments) {
        crcAdd(crc, tid);
        crcAdd(crc, static_cast<uint64_t>(a.samples.size()));
        for (const AlignedSample &s : a.samples) {
            crcAdd(crc, static_cast<uint64_t>(s.record_index));
            crcAdd(crc, s.position);
        }
        crcAdd(crc, static_cast<uint64_t>(a.syncs.size()));
        for (const AlignedSync &s : a.syncs) {
            crcAdd(crc, static_cast<uint64_t>(s.record_index));
            crcAdd(crc, s.position);
        }
        crcAdd(crc, static_cast<uint64_t>(a.anchors.size()));
        for (const pmu::PathAnchor &an : a.anchors) {
            crcAdd(crc, an.position);
            crcAdd(crc, an.tsc);
        }
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%08x %llu %llu", crc,
                  static_cast<unsigned long long>(stats.samples_matched),
                  static_cast<unsigned long long>(stats.samples_unmatched));
    return buf;
}

TEST(AlignBaseline, RegistrySubjectsKeepTheirAlignments)
{
    // The subjects of ReplayBaseline, traced once with proRaceConfig at
    // P=16 (many samples per bracket) and P=1000 (first-sample anchoring
    // carries more weight), one fixed seed, scale 0.25.
    struct Pinned {
        const char *subject;
        uint64_t period;
        const char *digest;
    };
    static const Pinned kPinned[] = {
        {"mpmc-queue-racy", 16, "170ebd6c 95 5"},
        {"mpmc-queue-racy", 1000, "3ee45e2a 1 0"},
        {"event-loop", 16, "4b34e684 79 6"},
        {"event-loop", 1000, "69606e80 1 0"},
        {"ptr-dispatch", 16, "a3f53357 56 4"},
        {"ptr-dispatch", 1000, "bb04a46e 1 0"},
        {"rcu-table", 16, "19b9bba6 185 11"},
        {"rcu-table", 1000, "f3d9f3bc 2 0"},
        {"cherokee-0.9.2", 16, "079ae963 2808 167"},
        {"cherokee-0.9.2", 1000, "c9a10716 46 2"},
        {"pbzip2-0.9.4", 16, "a4d2e27c 1957 587"},
        {"pbzip2-0.9.4", 1000, "ff21be93 39 1"},
        {"memcached", 16, "09319aaa 3771 175"},
        {"memcached", 1000, "876f51a9 45 17"},
        {"aget-bug2", 16, "79e43b10 2549 191"},
        {"aget-bug2", 1000, "72871f27 42 2"},
    };
    static const char *const kSubjects[] = {
        "mpmc-queue-racy", "event-loop",   "ptr-dispatch", "rcu-table",
        "cherokee-0.9.2",  "pbzip2-0.9.4", "memcached",    "aget-bug2",
    };
    constexpr uint64_t kSeed = 5000;
    size_t checked = 0;
    for (const char *subject : kSubjects) {
        const auto w = workload::findWorkload(subject, 0.25);
        ASSERT_TRUE(w) << subject;
        for (const uint64_t period : {16ull, 1000ull}) {
            const core::PipelineConfig cfg =
                core::proRaceConfig(period, kSeed);
            const core::RunArtifacts online =
                core::Session::run(*w->program, w->setup, cfg.session);
            const auto paths = pmu::decodePt(
                *w->program, online.trace.meta.pt_filter, online.trace);
            AlignStats stats;
            const auto alignments =
                alignTrace(*w->program, paths, online.trace, &stats);
            const std::string digest = alignmentDigest(alignments, stats);
            const Pinned *pin = nullptr;
            for (const Pinned &p : kPinned) {
                if (w->name == p.subject && period == p.period)
                    pin = &p;
            }
            if (!pin) {
                ADD_FAILURE() << "unpinned: {\"" << w->name << "\", "
                              << period << ", \"" << digest << "\"},";
                continue;
            }
            EXPECT_EQ(digest, pin->digest) << w->name << " P=" << period;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 16u);
}

/**
 * A two-thread run built by hand. Both threads execute the same loop
 * (one load per iteration, insns 1-4) between a ThreadStart and a
 * ThreadExit; tid 1's path has a gap. The PEBS records are chosen to
 * reach the corner cases of alignment: both tids interleaved on core 0,
 * TSC ties across the tids, same-tid samples that cannot match between
 * ones that do, and samples on a core past meta.first_periods.
 */
struct HandBuiltRun {
    asmkit::Program program;
    std::map<uint32_t, pmu::ThreadPath> paths;
    trace::RunTrace run;
};

constexpr uint64_t kIterations = 80;
constexpr uint64_t kTscPerInsn = 10;

HandBuiltRun
makeHandBuiltRun()
{
    asmkit::ProgramBuilder b;
    b.globalU64("g", 0);
    b.label("main");
    b.movri(Reg::rcx, 0);          // 0
    b.label("loop");
    b.load(Reg::rax, b.symRef("g")); // 1: the only memory event
    b.addri(Reg::rcx, 1);          // 2
    b.cmpri(Reg::rcx, static_cast<int64_t>(kIterations)); // 3
    b.jcc(CondCode::kLt, "loop");  // 4
    b.halt();                      // 5

    HandBuiltRun h{b.build(), {}, {}};
    trace::RunTrace &run = h.run;
    run.meta.pebs_period = 8;
    run.meta.first_periods = {8}; // core 0 only: cores 1+ have no entry

    const uint64_t start[2] = {1000, 1005};
    for (uint32_t tid = 0; tid < 2; ++tid) {
        pmu::ThreadPath &path = h.paths[tid];
        path.tid = tid;
        path.insns.push_back(0);
        for (uint64_t k = 0; k < kIterations; ++k) {
            if (tid == 1 && k == 40)
                path.insns.push_back(kPathGap); // untraced code
            for (uint32_t i = 1; i <= 4; ++i)
                path.insns.push_back(i);
        }
        path.insns.push_back(5);
        path.complete = true;
        // Sparse PT anchors. One runs backwards in time; the alignment
        // flattens it, so tscAt has a plateau.
        for (uint64_t pos = 64; pos < path.insns.size(); pos += 64)
            path.anchors.push_back({pos, start[tid] + kTscPerInsn * pos});
        path.anchors.push_back({200, start[tid] + 3});

        const uint64_t end = start[tid] + kTscPerInsn * path.insns.size();
        trace::SyncRecord begin_rec;
        begin_rec.tid = tid;
        begin_rec.kind = vm::SyncKind::kThreadStart;
        begin_rec.tsc = start[tid];
        trace::SyncRecord exit_rec;
        exit_rec.tid = tid;
        exit_rec.kind = vm::SyncKind::kThreadExit;
        exit_rec.tsc = end;
        exit_rec.insn_index = 5;
        run.sync.push_back(begin_rec);
        run.sync.push_back(exit_rec);
        run.meta.threads.push_back({tid, 0});
    }

    // A load sample of tid at iteration k on a core; the TSC is the
    // load's nominal time plus a skew, rdx a register no insn writes.
    auto sample = [&](uint32_t tid, uint32_t core, uint64_t k,
                      int64_t skew, uint64_t rdx) {
        const uint64_t gap = (tid == 1 && k >= 40) ? 1 : 0;
        const uint64_t pos = 1 + 4 * k + gap;
        trace::PebsRecord r;
        r.tid = tid;
        r.core = core;
        r.insn_index = 1;
        r.tsc = static_cast<uint64_t>(
            static_cast<int64_t>(start[tid] + kTscPerInsn * pos) + skew);
        r.regs.set(Reg::rcx, k);
        r.regs.set(Reg::rdx, rdx);
        run.pebs.push_back(r);
        return r.tsc;
    };

    // tid 0 opens alone on core 0 (first-period anchoring), keeps the
    // core to itself across its next pairs (distance anchoring), and
    // loses it where tid 1's records fall between two of its samples.
    const uint64_t t0_k31 = [&] {
        sample(0, 0, 7, 0, 0);
        sample(0, 0, 15, 25, 0);
        sample(0, 0, 23, -30, 0);
        return sample(0, 0, 31, 60, 0);
    }();
    // Unmatchable (rdx disagrees with the last match) between matches.
    sample(0, 0, 35, 0, 99);
    sample(0, 0, 36, 5, 7);
    sample(0, 0, 39, 12, 0);
    sample(0, 0, 47, -45, 0);
    sample(0, 0, 63, 0, 0); // a dropped sample skipped k = 55
    sample(0, 0, 71, 38, 0);
    sample(0, 0, 79, -70, 0);
    // tid 1: its first sample on a core without a first period, the
    // next on core 0 after tid 0's records; one TSC ties tid 0's k = 31
    // sample, and a run of samples falls between tid 0's k = 47 and
    // k = 63 samples.
    sample(1, 2, 5, 0, 0);
    sample(1, 0, 13, 0, 0);
    sample(1, 0, 29, 0, 0);
    run.pebs.back().tsc = t0_k31;
    sample(1, 0, 37, -20, 0);
    sample(1, 0, 45, 0, 5);
    sample(1, 0, 53, 14, 0);
    sample(1, 1, 54, 0, 0);
    sample(1, 0, 61, -8, 0);
    // Same TSC as the previous tid-1 sample, and one past the thread's
    // end.
    run.pebs.push_back(run.pebs.back());
    run.pebs.back().regs.set(Reg::rcx, 62);
    sample(1, 0, 79, 4000, 0);
    return h;
}

TEST(AlignBaseline, HandBuiltCornerCasesKeepTheirAlignment)
{
    const HandBuiltRun h = makeHandBuiltRun();
    ASSERT_EQ(h.program.insnAt(1).op, isa::Op::kLoad);
    AlignStats stats;
    const auto alignments = alignTrace(h.program, h.paths, h.run, &stats);
    ASSERT_EQ(alignments.size(), 2u);
    EXPECT_GT(stats.samples_matched, 0u);
    EXPECT_GT(stats.samples_unmatched, 0u);
    EXPECT_EQ(alignmentDigest(alignments, stats), "8a25b810 14 7");
}

TEST(AlignIndexFuzz, QueriesMatchBruteForceScans)
{
    // Random record sets on a few cores (one far past the others), with
    // TSCs drawn from a narrow range so ties across and within tids are
    // common; every query's bounds are strict, as the scans' were.
    for (const uint64_t seed : testutil::testSeeds({1, 2, 3, 4})) {
        PRORACE_SEED_TRACE(seed);
        Rng rng(seed);
        for (int round = 0; round < 200; ++round) {
            trace::RunTrace run;
            const uint32_t cores[] = {0, 1, 2, 1u << 30};
            const uint64_t records = rng.below(40);
            const uint64_t tsc_range = 1 + rng.below(30);
            for (uint64_t i = 0; i < records; ++i) {
                trace::PebsRecord r;
                r.core = cores[rng.below(4)];
                r.tid = static_cast<uint32_t>(rng.below(3));
                r.tsc = rng.below(tsc_range);
                run.pebs.push_back(r);
            }
            const AlignIndex index(run);
            for (int q = 0; q < 50; ++q) {
                const uint32_t core = cores[rng.below(4)];
                const uint32_t tid = static_cast<uint32_t>(rng.below(4));
                const uint64_t a = rng.below(tsc_range + 2);
                const uint64_t b = rng.below(tsc_range + 2);
                bool between = false, before = false;
                for (const trace::PebsRecord &o : run.pebs) {
                    if (o.core != core || o.tid == tid)
                        continue;
                    between = between || (o.tsc > a && o.tsc < b);
                    before = before || o.tsc < b;
                }
                ASSERT_EQ(index.foreignBetween(core, tid, a, b), between)
                    << "round " << round << " core " << core << " tid "
                    << tid << " (" << a << ", " << b << ")";
                ASSERT_EQ(index.foreignBefore(core, tid, b), before)
                    << "round " << round << " core " << core << " tid "
                    << tid << " before " << b;
            }
        }
    }
}

} // namespace
} // namespace prorace::replay
