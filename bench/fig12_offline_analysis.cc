/**
 * @file
 * Regenerates Figure 12: offline-analysis cost per one second of traced
 * program execution at sampling period 10000, with the pipeline
 * breakdown (PT decode / trace reconstruction / race detection).
 *
 * The paper (on PIN-based tooling) reports 54.5 s/s for apache and
 * 35.3 s/s for mysql, split 33.7% decode / 64.7% reconstruction /
 * 1.6% detection; reconstruction dominating and detection being a tiny
 * slice are the shapes to reproduce (our native replayer is much faster
 * than PIN in absolute terms).
 *
 * `--jobs N` switches to the scaling mode: each subject is traced once,
 * then analyzed serially and on an N-thread executor; the harness
 * reports the wall-clock speedup and checks that the parallel report is
 * byte-identical to the serial one. `--json <path>` writes JSONL
 * records in either mode.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "driver/cost_model.hh"
#include "support/timer.hh"
#include "workload/racybugs.hh"

namespace {

const char *kSubjects[] = {"apache-25520",  "mysql-3596",
                           "cherokee-0.9.2", "pbzip2-0.9.5", "pfscan",
                           "aget-bug2"};

int
runBreakdown(prorace::bench::JsonReporter &json)
{
    using namespace prorace;
    bench::banner("Figure 12",
                  "Offline analysis seconds per 1 s of traced execution "
                  "(period 10000), with stage breakdown.");
    std::printf("%-16s %12s %12s %14s %12s\n", "app", "total s/s",
                "decode%", "reconstruct%", "detect%");

    double decode_sum = 0, rec_sum = 0, det_sum = 0;
    for (const char *name : kSubjects) {
        auto bug = workload::makeRacyBug(name, bench::envScale());
        auto cfg = core::proRaceConfig(10000, 42, bug.pt_filter);
        auto result = core::runPipeline(*bug.program, bug.setup, cfg);

        const double run_seconds =
            static_cast<double>(result.online.traced_cycles) /
            driver::kCyclesPerSecond;
        const double total = result.offline.totalSeconds();
        const double per_second = total / run_seconds;
        decode_sum += result.offline.decode_seconds;
        rec_sum += result.offline.reconstruct_seconds;
        det_sum += result.offline.detect_seconds;
        std::printf("%-16s %12.1f %11.1f%% %13.1f%% %11.2f%%\n", name,
                    per_second,
                    100 * result.offline.decode_seconds / total,
                    100 * result.offline.reconstruct_seconds / total,
                    100 * result.offline.detect_seconds / total);
        std::fflush(stdout);
        const auto &pm = result.offline.replay_stats.program_map;
        json.record(
            "fig12_offline_analysis", {{"app", name}},
            {{"per_second", per_second},
             {"total_s", total},
             {"decode_s", result.offline.decode_seconds},
             {"reconstruct_s", result.offline.reconstruct_seconds},
             {"detect_s", result.offline.detect_seconds},
             // Shadow-structure behavior behind the wall time: paged
             // ProgramMap page/probe traffic and FastTrack's fast-path
             // and read-share mix.
             {"events",
              static_cast<double>(result.offline.extended_trace_events)},
             {"pm_pages", static_cast<double>(pm.pages_allocated)},
             {"pm_lookups", static_cast<double>(pm.page_lookups)},
             {"pm_cache_hits", static_cast<double>(pm.cache_hits)},
             {"ft_fast_path",
              static_cast<double>(
                  result.offline.detect_stats.epoch_fast_path)},
             {"ft_read_shares",
              static_cast<double>(
                  result.offline.detect_stats.read_shares)}});
    }
    const double total = decode_sum + rec_sum + det_sum;
    std::printf("%-16s %12s %11.1f%% %13.1f%% %11.2f%%\n", "(overall)",
                "", 100 * decode_sum / total, 100 * rec_sum / total,
                100 * det_sum / total);
    std::printf("\npaper breakdown: decode 33.7%%, reconstruction "
                "64.7%%, detection 1.6%% (PIN-based engine)\n");
    return 0;
}

int
runScaling(unsigned jobs, prorace::bench::JsonReporter &json)
{
    using namespace prorace;
    bench::banner("Figure 12 (scaling mode)",
                  "Serial vs parallel offline analysis of the same "
                  "trace; reports must be byte-identical.");
    std::printf("jobs = %u\n", jobs);
    std::printf("%-16s %12s %12s %10s %10s\n", "app", "serial s",
                "parallel s", "speedup", "identical");

    bool all_identical = true;
    double serial_sum = 0, parallel_sum = 0;
    for (const char *name : kSubjects) {
        auto bug = workload::makeRacyBug(name, bench::envScale());
        auto cfg = core::proRaceConfig(10000, 42, bug.pt_filter);
        core::RunArtifacts run =
            core::Session::run(*bug.program, bug.setup, cfg.session);

        Stopwatch timer;
        core::OfflineAnalyzer serial(*bug.program, cfg.offline);
        core::OfflineResult serial_result = serial.analyze(run.trace);
        const double serial_s = timer.lap();

        core::OfflineOptions par_opt = cfg.offline;
        par_opt.num_threads = jobs;
        core::OfflineAnalyzer parallel(*bug.program, par_opt);
        core::OfflineResult parallel_result =
            parallel.analyze(run.trace);
        const double parallel_s = timer.lap();

        const bool identical =
            serial_result.report.format(bug.program.get()) ==
                parallel_result.report.format(bug.program.get()) &&
            serial_result.extended_trace_events ==
                parallel_result.extended_trace_events;
        all_identical = all_identical && identical;
        serial_sum += serial_s;
        parallel_sum += parallel_s;
        std::printf("%-16s %12.3f %12.3f %9.2fx %10s\n", name, serial_s,
                    parallel_s, serial_s / parallel_s,
                    identical ? "yes" : "NO");
        std::fflush(stdout);
        json.record("fig12_scaling",
                    {{"app", name}, {"jobs", std::to_string(jobs)}},
                    {{"serial_s", serial_s},
                     {"parallel_s", parallel_s},
                     {"speedup", serial_s / parallel_s},
                     {"identical", identical ? 1.0 : 0.0}});
    }
    std::printf("%-16s %12.3f %12.3f %9.2fx %10s\n", "(overall)",
                serial_sum, parallel_sum, serial_sum / parallel_sum,
                all_identical ? "yes" : "NO");
    if (!all_identical) {
        std::fprintf(stderr, "FAIL: parallel report diverged from "
                             "serial\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = prorace::bench::parseJobs(argc, argv);
    prorace::bench::JsonReporter json(argc, argv);
    return jobs > 0 ? runScaling(jobs, json) : runBreakdown(json);
}
