/**
 * @file
 * Figure 15 (beyond the paper): what the static access prefilter buys
 * the offline phase — extended-trace events pruned before FastTrack
 * and the resulting speedup of replay plus detection (the prefilter
 * runs on the replay lanes, so its cost is charged to reconstruction)
 * — measured on real registry workloads, plus an oracle cell proving
 * the pruning is report-neutral.
 *
 * For each subject workload the online phase runs once; the same trace
 * is then analyzed twice per trial, prefilter on and off. Self-asserted
 * CI floors (exit 1 on violation, so the Release perf job gates on it):
 *   - the racy-pair set is byte-identical with the prefilter on and
 *     off, on every subject and every planted-race oracle workload
 *     (recall and precision exactly equal by construction);
 *   - at least one subject prunes a nonzero fraction of events;
 *   - at least one subject's median replay plus detection (prefilter
 *     cost included) is no slower with the prefilter on.
 *
 * `--json <path>` writes per-trial JSONL rows; `--jobs N` sets the
 * analysis thread count (default 2).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "oracle/generator.hh"
#include "oracle/scorer.hh"
#include "workload/registry.hh"

namespace {

using namespace prorace;

const char *const kSubjects[] = {"pfscan", "pbzip2", "streamcluster",
                                 "swaptions"};
constexpr uint64_t kPeriod = 100;
constexpr uint64_t kSeed = 29;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv, 2);
    bench::JsonReporter json(argc, argv);
    const int trials = bench::envTrials(3);
    const double scale = 0.05 * bench::envScale();

    bench::banner("Figure 15",
                  "Static escape-analysis prefilter: events pruned "
                  "before FastTrack and replay+detection speedup, with "
                  "report identity asserted.");
    std::printf("jobs = %u, trials = %d, period = %llu\n\n", jobs,
                trials,
                static_cast<unsigned long long>(kPeriod));
    std::printf("%-14s %10s %10s %8s %10s %10s %8s\n", "workload",
                "events", "pruned", "frac", "rd_on", "rd_off", "speedup");

    bool ok = true;
    double best_frac = 0.0;
    double best_speedup = 0.0;

    for (const char *name : kSubjects) {
        auto w = workload::findWorkload(name, scale);
        if (!w) {
            std::fprintf(stderr, "FAIL: unknown workload %s\n", name);
            ok = false;
            continue;
        }
        core::PipelineConfig pc =
            core::proRaceConfig(kPeriod, kSeed, w->pt_filter);
        core::RunArtifacts run =
            core::Session::run(*w->program, w->setup, pc.session);

        core::OfflineOptions on = pc.offline;
        on.num_threads = jobs;
        on.static_prefilter = true;
        core::OfflineOptions off = on;
        off.static_prefilter = false;

        // Replay plus detection: the stages the prefilter changes.
        std::vector<double> rd_on, rd_off;
        uint64_t events = 0, pruned = 0;
        oracle::RacePairSet pairs_on, pairs_off;
        for (int trial = 0; trial < trials; ++trial) {
            core::OfflineAnalyzer a_on(*w->program, on);
            core::OfflineResult r_on = a_on.analyze(run.trace);
            core::OfflineAnalyzer a_off(*w->program, off);
            core::OfflineResult r_off = a_off.analyze(run.trace);

            rd_on.push_back(r_on.reconstruct_seconds + r_on.detect_seconds);
            rd_off.push_back(r_off.reconstruct_seconds +
                             r_off.detect_seconds);
            events = r_on.prefilter.events_seen;
            pruned = r_on.prefilter.pruned();
            pairs_on = oracle::reportPairs(r_on.report);
            pairs_off = oracle::reportPairs(r_off.report);
            if (pairs_on != pairs_off) {
                std::fprintf(stderr,
                             "FAIL: %s reports differ with the "
                             "prefilter on (%zu pairs) vs off (%zu)\n",
                             name, pairs_on.size(), pairs_off.size());
                ok = false;
            }
            json.record(
                "fig15_static_prune",
                {{"workload", name},
                 {"jobs", std::to_string(jobs)},
                 {"trial", std::to_string(trial)}},
                {{"events",
                  static_cast<double>(r_on.prefilter.events_seen)},
                 {"pruned", static_cast<double>(r_on.prefilter.pruned())},
                 {"pruned_frac",
                  r_on.prefilter.events_seen
                      ? static_cast<double>(r_on.prefilter.pruned()) /
                          static_cast<double>(r_on.prefilter.events_seen)
                      : 0.0},
                 {"sites_thread_local",
                  static_cast<double>(
                      r_on.prefilter.sites_thread_local)},
                 {"sites_total",
                  static_cast<double>(r_on.prefilter.sites_total)},
                 {"detect_on_s", r_on.detect_seconds},
                 {"detect_off_s", r_off.detect_seconds},
                 {"reconstruct_on_s", r_on.reconstruct_seconds},
                 {"reconstruct_off_s", r_off.reconstruct_seconds},
                 {"total_on_s", r_on.totalSeconds()},
                 {"total_off_s", r_off.totalSeconds()},
                 {"pairs", static_cast<double>(pairs_on.size())}});
        }

        const double mon = median(rd_on);
        const double moff = median(rd_off);
        const double frac = events
            ? static_cast<double>(pruned) / static_cast<double>(events)
            : 0.0;
        const double speedup = mon > 0 ? moff / mon : 0.0;
        best_frac = std::max(best_frac, frac);
        best_speedup = std::max(best_speedup, speedup);
        std::printf("%-14s %10llu %10llu %7.1f%% %9.4fs %9.4fs %7.2fx\n",
                    name, static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(pruned),
                    100.0 * frac, mon, moff, speedup);
    }

    // --- oracle cell: pruning must be invisible to ground truth ---
    std::printf("\noracle battery (report identity, prefilter on/off):\n");
    const auto battery = oracle::standardBattery(1077, 5);
    for (const oracle::GeneratorConfig &cfg : battery) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc = core::proRaceConfig(
            kPeriod, kSeed + 11, gw.workload.pt_filter);
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);

        core::OfflineOptions on = pc.offline;
        on.num_threads = jobs;
        on.static_prefilter = true;
        core::OfflineOptions off = on;
        off.static_prefilter = false;

        core::OfflineAnalyzer a_on(*gw.workload.program, on);
        core::OfflineResult r_on = a_on.analyze(run.trace);
        core::OfflineAnalyzer a_off(*gw.workload.program, off);
        core::OfflineResult r_off = a_off.analyze(run.trace);

        const oracle::OracleScore s_on =
            oracle::scoreReport(gw.truth, r_on.report);
        const oracle::OracleScore s_off =
            oracle::scoreReport(gw.truth, r_off.report);
        const bool identical = oracle::reportPairs(r_on.report) ==
            oracle::reportPairs(r_off.report);
        if (!identical) {
            std::fprintf(stderr,
                         "FAIL: %s oracle pair sets differ with the "
                         "prefilter on vs off\n",
                         gw.workload.name.c_str());
            ok = false;
        }
        std::printf("  %-18s recall %.3f/%.3f precis %.3f/%.3f "
                    "pruned %llu %s\n",
                    gw.workload.name.c_str(), s_on.recall(),
                    s_off.recall(), s_on.precision(), s_off.precision(),
                    static_cast<unsigned long long>(
                        r_on.prefilter.pruned()),
                    identical ? "identical" : "DIFFER");
        json.record(
            "fig15_static_prune",
            {{"workload", gw.workload.name},
             {"jobs", std::to_string(jobs)},
             {"trial", "oracle"}},
            {{"events",
              static_cast<double>(r_on.prefilter.events_seen)},
             {"pruned", static_cast<double>(r_on.prefilter.pruned())},
             {"recall_on", s_on.recall()},
             {"recall_off", s_off.recall()},
             {"precision_on", s_on.precision()},
             {"precision_off", s_off.precision()},
             {"identical", identical ? 1.0 : 0.0}});
    }

    if (best_frac <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: no subject pruned any events — the "
                     "prefilter is dead\n");
        ok = false;
    }
    if (best_speedup < 1.0) {
        std::fprintf(stderr,
                     "FAIL: replay plus detection was slower with the "
                     "prefilter on for every subject (best %.2fx)\n",
                     best_speedup);
        ok = false;
    }
    std::printf("\nbest pruned fraction %.1f%%, best replay+detect speedup "
                "%.2fx\n%s\n",
                100.0 * best_frac, best_speedup,
                ok ? "floors OK" : "FLOOR VIOLATION");
    return ok ? 0 : 1;
}
