/**
 * @file
 * Heap-allocation accounting for the replay inner loop.
 *
 * This file is its own test binary: it replaces the global operator
 * new/delete with counting versions, which must not leak into the main
 * suite. The property checked is the replayer's contract: once warm, a
 * Replayer replays windows (forward passes, backward scans, the emit
 * buffer, the ProgramMap) without touching the heap; only the caller's
 * output vector may grow.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "driver/session.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "vm/machine.hh"
#include "workload/registry.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
countedAllocOrThrow(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned form is replaced, so each pointer is freed by the
// allocator that made it (sanitizer runtimes supply their own default
// forms). The replacements stay out of line: inlined, GCC pairs the
// malloc() inside with a delete and reports a mismatch
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    return countedAllocOrThrow(size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return countedAllocOrThrow(size);
}

[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace prorace::replay {
namespace {

/** One traced registry workload, decoded and aligned. */
struct TracedRun {
    workload::Workload w;
    trace::RunTrace trace;
    std::map<uint32_t, pmu::ThreadPath> paths;
    std::map<uint32_t, ThreadAlignment> alignments;

    TracedRun(const std::string &name, uint64_t period)
        : w(*workload::findWorkload(name, 0.3))
    {
        vm::MachineConfig mcfg;
        mcfg.seed = 5;
        driver::TraceConfig tcfg;
        tcfg.pebs_period = period;
        tcfg.seed = 105;
        tcfg.pt.filter = w.pt_filter;
        vm::Machine machine(*w.program, mcfg);
        driver::TracingSession tracing(tcfg, mcfg.num_cores);
        machine.setObserver(&tracing);
        w.setup(machine);
        machine.run();
        trace = tracing.finish();
        for (uint32_t tid = 0; tid < machine.numThreads(); ++tid)
            trace.meta.threads.push_back({tid, machine.thread(tid).entry_ip});
        paths = pmu::decodePt(*w.program, w.pt_filter, trace);
        alignments = alignTrace(*w.program, paths, trace);
    }
};

/** Replay every window of every aligned thread, in path order. */
void
replayEveryWindow(Replayer &replayer, const TracedRun &run,
                  const std::vector<std::vector<Replayer::Window>> &plan,
                  std::vector<ReconstructedAccess> &out)
{
    size_t t = 0;
    for (const auto &[tid, path] : run.paths) {
        const ThreadAlignment &alignment = run.alignments.at(tid);
        for (const Replayer::Window &w : plan[t])
            replayer.replayWindow(w, path, alignment, out);
        ++t;
    }
}

class WarmReplay : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(WarmReplay, WindowsReplayWithoutHeapAllocation)
{
    const TracedRun run("pfscan", GetParam());
    const analysis::ProgramAnalysis pa(*run.w.program);
    ReplayConfig cfg;
    cfg.analysis = &pa;

    std::vector<std::map<uint64_t, const trace::SyncRecord *>> sync_maps;
    std::vector<std::vector<Replayer::Window>> plan;
    sync_maps.reserve(run.paths.size());
    for (const auto &[tid, path] : run.paths) {
        const ThreadAlignment &alignment = run.alignments.at(tid);
        sync_maps.push_back(Replayer::syncAtMap(alignment, run.trace));
        plan.push_back(Replayer::buildWindows(path, alignment, run.trace,
                                              sync_maps.back()));
    }

    Replayer replayer(*run.w.program, cfg);
    std::vector<ReconstructedAccess> first;
    replayEveryWindow(replayer, run, plan, first);
    ASSERT_GT(first.size(), 100u);
    ASSERT_GT(replayer.stats().backward_rounds, 0u);

    std::vector<ReconstructedAccess> second;
    second.reserve(first.size());
    const uint64_t before = g_allocations.load();
    replayEveryWindow(replayer, run, plan, second);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "a warm replayer allocated while replaying "
        << replayer.stats().windows / 2 << " windows";

    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].position, second[i].position) << i;
        EXPECT_EQ(first[i].addr, second[i].addr) << i;
        EXPECT_EQ(first[i].origin, second[i].origin) << i;
    }
}

// Dense sampling (short windows) and sparse sampling (long windows).
INSTANTIATE_TEST_SUITE_P(Periods, WarmReplay,
                         ::testing::Values(16ull, 10000ull));

} // namespace
} // namespace prorace::replay
