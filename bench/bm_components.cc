/**
 * @file
 * google-benchmark microbenchmarks of the pipeline's components: VM
 * interpretation rate, PT encode/decode throughput, sample alignment,
 * replay throughput (with and without the static analysis attached),
 * and FastTrack event throughput.
 */

#include <atomic>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "analysis/analysis.hh"
#include "core/offline.hh"
#include "core/session.hh"
#include "detect/fasttrack.hh"
#include "detect/fasttrack_ref.hh"
#include "exec/executor.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/byte_map_model.hh"
#include "replay/program_map.hh"
#include "replay/replayer.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"
#include "workload/apps.hh"

namespace {

using namespace prorace;

workload::Workload &
benchApp()
{
    static workload::Workload w = [] {
        workload::AppProfile p;
        p.name = "bench-app";
        p.items = 120;
        p.compute_iters = 80;
        p.sweep_elems = 40;
        p.chase_steps = 10;
        return workload::makeAppWorkload(p);
    }();
    return w;
}

core::RunArtifacts
traceBenchApp(uint64_t period)
{
    auto &w = benchApp();
    core::SessionOptions opt;
    opt.machine.seed = 9;
    opt.run_baseline = false;
    opt.tracing.pebs_period = period;
    opt.tracing.pt.filter = w.pt_filter;
    return core::Session::run(*w.program, w.setup, opt);
}

/** The bench app traced at period 200, or at 16 or 10000 when asked. */
core::RunArtifacts &
benchRun(uint64_t period = 200)
{
    if (period == 16) {
        static core::RunArtifacts densest = traceBenchApp(16);
        return densest;
    }
    if (period == 10000) {
        static core::RunArtifacts sparse = traceBenchApp(10000);
        return sparse;
    }
    static core::RunArtifacts dense = traceBenchApp(200);
    return dense;
}

void
BM_MachineInterpret(benchmark::State &state)
{
    auto &w = benchApp();
    uint64_t insns = 0;
    for (auto _ : state) {
        vm::MachineConfig cfg;
        cfg.seed = 3;
        vm::Machine m(*w.program, cfg);
        w.setup(m);
        m.run();
        insns += m.totalInstructions();
    }
    state.counters["insn/s"] = benchmark::Counter(
        static_cast<double>(insns), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineInterpret)->Unit(benchmark::kMillisecond);

void
BM_MachineInterpretTraced(benchmark::State &state)
{
    auto &w = benchApp();
    uint64_t insns = 0;
    for (auto _ : state) {
        vm::MachineConfig cfg;
        cfg.seed = 3;
        driver::TraceConfig tcfg;
        tcfg.pebs_period = 200;
        tcfg.pt.filter = w.pt_filter;
        vm::Machine m(*w.program, cfg);
        driver::TracingSession tracing(tcfg, cfg.num_cores);
        m.setObserver(&tracing);
        w.setup(m);
        m.run();
        benchmark::DoNotOptimize(tracing.finish());
        insns += m.totalInstructions();
    }
    state.counters["insn/s"] = benchmark::Counter(
        static_cast<double>(insns), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineInterpretTraced)->Unit(benchmark::kMillisecond);

void
BM_PtDecode(benchmark::State &state)
{
    auto &run = benchRun();
    auto &w = benchApp();
    uint64_t entries = 0;
    for (auto _ : state) {
        pmu::PtDecodeStats stats;
        auto paths =
            pmu::decodePt(*w.program, run.trace.meta.pt_filter,
                          run.trace, &stats);
        benchmark::DoNotOptimize(paths);
        entries += stats.path_entries;
    }
    state.counters["entries/s"] = benchmark::Counter(
        static_cast<double>(entries), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PtDecode)->Unit(benchmark::kMillisecond);

void
BM_AlignSamples(benchmark::State &state)
{
    auto &run = benchRun();
    auto &w = benchApp();
    auto paths =
        pmu::decodePt(*w.program, run.trace.meta.pt_filter, run.trace);
    for (auto _ : state) {
        auto aligns = replay::alignTrace(*w.program, paths, run.trace);
        benchmark::DoNotOptimize(aligns);
    }
}
BENCHMARK(BM_AlignSamples)->Unit(benchmark::kMillisecond);

void
BM_Replay(benchmark::State &state)
{
    // Arg 1 attaches the static analysis (the analyzer's configuration:
    // facts from the flat table); 0 is the analysis-free path. Both
    // replay the same windows. Period 10000 is the paper's deployment
    // regime: long windows where most forward steps find an operand
    // unknown and mixed passes resume late. At period 16 windows are
    // a few dozen positions, so resuming saves nearly nothing and only
    // its cost shows. forward-steps/s counts emulated steps only.
    auto &run = benchRun(static_cast<uint64_t>(state.range(1)));
    auto &w = benchApp();
    auto paths =
        pmu::decodePt(*w.program, run.trace.meta.pt_filter, run.trace);
    auto aligns = replay::alignTrace(*w.program, paths, run.trace);
    const analysis::ProgramAnalysis pa(*w.program);
    replay::ReplayConfig cfg;
    if (state.range(0))
        cfg.analysis = &pa;
    uint64_t accesses = 0;
    uint64_t windows = 0;
    uint64_t forward_steps = 0;
    for (auto _ : state) {
        replay::Replayer rep(*w.program, cfg);
        auto out = rep.replayAll(paths, aligns, run.trace);
        accesses += out.size();
        windows += rep.stats().windows;
        forward_steps += rep.stats().forward_steps;
        benchmark::DoNotOptimize(out);
    }
    state.counters["accesses/s"] = benchmark::Counter(
        static_cast<double>(accesses), benchmark::Counter::kIsRate);
    state.counters["windows/s"] = benchmark::Counter(
        static_cast<double>(windows), benchmark::Counter::kIsRate);
    state.counters["forward-steps/s"] = benchmark::Counter(
        static_cast<double>(forward_steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Replay)
    ->ArgsProduct({{0, 1}, {16, 200, 10000}})
    ->ArgNames({"analysis", "period"})
    ->Unit(benchmark::kMillisecond);

void
BM_FastTrack(benchmark::State &state)
{
    // A synthetic stream: 4 threads, mixed reads/writes over 1K
    // variables with periodic lock handoffs.
    Rng rng(11);
    std::vector<detect::MemAccess> stream;
    for (int i = 0; i < 100000; ++i) {
        detect::MemAccess ma;
        ma.tid = static_cast<uint32_t>(rng.below(4));
        ma.addr = 0x10000 + 8 * rng.below(1024);
        ma.is_write = rng.chance(0.3);
        ma.insn_index = static_cast<uint32_t>(rng.below(500));
        stream.push_back(ma);
    }
    uint64_t events = 0;
    for (auto _ : state) {
        detect::FastTrack ft;
        for (size_t i = 0; i < stream.size(); ++i) {
            if (i % 64 == 0) {
                ft.acquire(stream[i].tid, 0x9000);
                ft.release(stream[i].tid, 0x9000);
            }
            ft.access(stream[i]);
        }
        events += stream.size();
        benchmark::DoNotOptimize(ft.report().size());
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FastTrack)->Unit(benchmark::kMillisecond);

// --- shadow-memory microbenchmarks (paged ProgramMap vs byte map) ---
//
// Each benchmark runs the same aligned 8-byte store+load mix over both
// the paged shadow (replay::ProgramMap) and the pre-overhaul
// byte-granular model (replay::ByteMapModel), with an invalidateMemory
// sweep every 16 Ki operations the way regeneration rounds bulk-reset
// emulated memory. Acceptance: the paged shadow wins the random-access
// pattern by >= 2x.

/** Address streams shared by the ProgramMap/ByteMap benchmark pairs. */
const std::vector<uint64_t> &
shadowAddressStream(int pattern)
{
    // 16 Ki slots * 8 B = a 128 KiB working set spanning 32 shadow pages.
    constexpr uint64_t kSlots = 1 << 14;
    constexpr uint64_t kBase = 0x100000;
    constexpr size_t kOps = 1 << 16;
    static const std::vector<uint64_t> streams[3] = {
        [] { // sequential: a warm linear walk
            std::vector<uint64_t> v(kOps);
            for (size_t i = 0; i < v.size(); ++i)
                v[i] = kBase + 8 * (i % kSlots);
            return v;
        }(),
        [] { // strided: page-crossing stride (4 KiB + 8)
            std::vector<uint64_t> v(kOps);
            uint64_t off = 0;
            for (size_t i = 0; i < v.size(); ++i) {
                v[i] = kBase + off;
                off = (off + 4096 + 8) % (8 * kSlots);
            }
            return v;
        }(),
        [] { // random: uniform over the working set
            std::vector<uint64_t> v(kOps);
            Rng rng(5);
            for (auto &a : v)
                a = kBase + 8 * rng.below(kSlots);
            return v;
        }(),
    };
    return streams[pattern];
}

template <typename Shadow>
void
runShadowBench(benchmark::State &state)
{
    const std::vector<uint64_t> &addrs =
        shadowAddressStream(static_cast<int>(state.range(0)));
    uint64_t ops = 0;
    for (auto _ : state) {
        Shadow shadow;
        uint64_t sink = 0;
        for (size_t i = 0; i < addrs.size(); ++i) {
            if ((i & 0x3fff) == 0x3fff)
                shadow.invalidateMemory();
            shadow.writeMem(addrs[i], i, 8);
            // Load a nearby earlier slot: mostly hits, some misses.
            if (auto v = shadow.readMem(addrs[i ? i - 1 : 0], 8))
                sink += *v;
        }
        benchmark::DoNotOptimize(sink);
        ops += addrs.size() * 2;
    }
    state.counters["ops/s"] = benchmark::Counter(
        static_cast<double>(ops), benchmark::Counter::kIsRate);
}

void
BM_ProgramMapShadow(benchmark::State &state)
{
    runShadowBench<replay::ProgramMap>(state);
}
BENCHMARK(BM_ProgramMapShadow)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgNames({"pattern"})
    ->Unit(benchmark::kMillisecond);

void
BM_ByteMapShadow(benchmark::State &state)
{
    runShadowBench<replay::ByteMapModel>(state);
}
BENCHMARK(BM_ByteMapShadow)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgNames({"pattern"})
    ->Unit(benchmark::kMillisecond);

// --- detector microbenchmarks (flat FastTrack vs reference) ---
//
// A shared-read-heavy stream: 8 threads hammer 512 variables with 2%
// writes and periodic lock handoffs, so most granules inflate to
// read-share vector clocks and the inner loop is dominated by shadow
// lookups + clock updates. Acceptance: the flat detector wins >= 1.5x.

const std::vector<detect::MemAccess> &
sharedReadStream()
{
    static const std::vector<detect::MemAccess> stream = [] {
        Rng rng(17);
        std::vector<detect::MemAccess> v;
        v.reserve(200000);
        for (int i = 0; i < 200000; ++i) {
            detect::MemAccess ma;
            ma.tid = static_cast<uint32_t>(rng.below(8));
            ma.addr = 0x10000 + 8 * rng.below(512);
            ma.is_write = rng.chance(0.02);
            ma.insn_index = static_cast<uint32_t>(rng.below(500));
            v.push_back(ma);
        }
        return v;
    }();
    return stream;
}

template <typename Detector>
void
runSharedReadBench(benchmark::State &state)
{
    const auto &stream = sharedReadStream();
    uint64_t events = 0;
    for (auto _ : state) {
        Detector ft;
        for (size_t i = 0; i < stream.size(); ++i) {
            if (i % 256 == 0) {
                ft.acquire(stream[i].tid, 0x9000);
                ft.release(stream[i].tid, 0x9000);
            }
            ft.access(stream[i]);
        }
        events += stream.size();
        benchmark::DoNotOptimize(ft.report().size());
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}

void
BM_FastTrackSharedRead(benchmark::State &state)
{
    runSharedReadBench<detect::FastTrack>(state);
}
BENCHMARK(BM_FastTrackSharedRead)->Unit(benchmark::kMillisecond);

void
BM_RefFastTrackSharedRead(benchmark::State &state)
{
    runSharedReadBench<detect::RefFastTrack>(state);
}
BENCHMARK(BM_RefFastTrackSharedRead)->Unit(benchmark::kMillisecond);

void
BM_ExecutorSubmit(benchmark::State &state)
{
    // Raw task dispatch rate: trivial tasks, measuring submit + wakeup +
    // future-resolution overhead per task on N workers.
    const unsigned threads = static_cast<unsigned>(state.range(0));
    uint64_t tasks = 0;
    for (auto _ : state) {
        exec::Executor ex(threads);
        std::atomic<uint64_t> sum{0};
        std::vector<exec::Future<void>> futures;
        constexpr int kTasks = 4096;
        futures.reserve(kTasks);
        for (int i = 0; i < kTasks; ++i) {
            futures.push_back(ex.submit(
                [&sum, i] { sum.fetch_add(static_cast<uint64_t>(i),
                                          std::memory_order_relaxed); }));
        }
        for (auto &f : futures)
            f.get();
        benchmark::DoNotOptimize(sum.load());
        tasks += kTasks;
    }
    state.counters["tasks/s"] = benchmark::Counter(
        static_cast<double>(tasks), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutorSubmit)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelOffline(benchmark::State &state)
{
    // Whole offline pipeline (arg = jobs; 0 runs every task on the
    // calling thread, for comparison).
    auto &run = benchRun();
    auto &w = benchApp();
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    uint64_t events = 0;
    for (auto _ : state) {
        core::OfflineOptions opt;
        opt.num_threads = jobs;
        core::OfflineAnalyzer analyzer(*w.program, opt);
        core::OfflineResult result = analyzer.analyze(run.trace);
        events += result.extended_trace_events;
        benchmark::DoNotOptimize(result);
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelOffline)->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_TraceSerialize(benchmark::State &state)
{
    auto &run = benchRun();
    uint64_t bytes = 0;
    for (auto _ : state) {
        auto buf = trace::serializeTrace(run.trace);
        bytes += buf.size();
        benchmark::DoNotOptimize(buf);
    }
    state.counters["bytes/s"] = benchmark::Counter(
        static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSerialize)->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Like BENCHMARK_MAIN(), plus the repo-wide `--json <path>` convention
 * (bench_util.hh): it is translated to google-benchmark's
 * --benchmark_out/--benchmark_out_format pair so the CI perf job can
 * invoke every bench binary uniformly.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag;
    std::string fmt_flag = "--benchmark_out_format=json";
    for (size_t i = 1; i < args.size(); ++i) {
        if (std::string(args[i]) == "--json" && i + 1 < args.size()) {
            out_flag =
                std::string("--benchmark_out=") + args[i + 1];
            args.erase(args.begin() + static_cast<long>(i),
                       args.begin() + static_cast<long>(i) + 2);
            break;
        }
    }
    if (!out_flag.empty()) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int argn = static_cast<int>(args.size());
    benchmark::Initialize(&argn, args.data());
    if (benchmark::ReportUnrecognizedArguments(argn, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
