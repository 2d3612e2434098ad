/**
 * @file
 * Figure 20 (beyond the paper): what the Andersen points-to layer adds
 * on top of the stack-only escape prefilter of fig15 — heap-locality
 * event pruning, indirect-branch fan-out sharpening, and replay
 * constant recovery — with report identity asserted everywhere.
 *
 * For each subject the online phase runs once; the same trace is then
 * analyzed twice per trial, points-to on (`OfflineOptions::pointsto`)
 * and off (the `--no-pointsto` CLI path). Self-asserted CI floors
 * (exit 1 on violation, so the Release perf job gates on it):
 *   - the racy-pair set is byte-identical with points-to on and off on
 *     every subject, every workload of the full registry (small scale),
 *     and the full oracle battery including the sync-vocabulary half;
 *   - at least one heap-heavy subject prunes strictly MORE events with
 *     points-to on than its stack-only (points-to off) fig15 baseline,
 *     with a nonzero heap-local share;
 *   - on every subject with resolved indirect transfers, the summed
 *     sharp fan-out is strictly smaller than the blunt address-taken
 *     fan-out.
 *
 * `--json <path>` writes per-trial JSONL rows; `--jobs N` sets the
 * analysis thread count (default 2).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "oracle/generator.hh"
#include "oracle/scorer.hh"
#include "workload/registry.hh"

namespace {

using namespace prorace;

const char *const kSubjects[] = {"ptr-dispatch", "mpmc-queue",
                                 "event-loop", "pfscan"};
const char *const kHeapHeavy = "ptr-dispatch";
constexpr uint64_t kPeriod = 100;
constexpr uint64_t kSeed = 31;

struct OnOff {
    core::OfflineResult on;
    core::OfflineResult off;
};

OnOff
analyzeBoth(const asmkit::Program &program, const core::RunArtifacts &run,
            const core::OfflineOptions &base, unsigned jobs)
{
    core::OfflineOptions on = base;
    on.num_threads = jobs;
    on.static_prefilter = true;
    on.pointsto = true;
    core::OfflineOptions off = on;
    off.pointsto = false;

    OnOff r;
    core::OfflineAnalyzer a_on(program, on);
    r.on = a_on.analyze(run.trace);
    core::OfflineAnalyzer a_off(program, off);
    r.off = a_off.analyze(run.trace);
    return r;
}

bool
assertIdentical(const char *name, const OnOff &r)
{
    if (oracle::reportPairs(r.on.report) ==
        oracle::reportPairs(r.off.report)) {
        return true;
    }
    std::fprintf(stderr,
                 "FAIL: %s reports differ with points-to on (%zu races) "
                 "vs off (%zu)\n",
                 name, r.on.report.size(), r.off.report.size());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv, 2);
    bench::JsonReporter json(argc, argv);
    const int trials = bench::envTrials(3);
    const double scale = 0.05 * bench::envScale();

    bench::banner("Figure 20",
                  "Andersen points-to layer: heap-locality pruning over "
                  "the fig15 stack-only baseline, indirect fan-out "
                  "sharpening, constant recovery — report identity "
                  "asserted.");
    std::printf("jobs = %u, trials = %d, period = %llu\n\n", jobs, trials,
                static_cast<unsigned long long>(kPeriod));
    std::printf("%-14s %9s %9s %9s %9s %7s %7s %9s\n", "workload",
                "events", "pruned_on", "prunedoff", "heap", "ivals",
                "const", "fanout");

    bool ok = true;
    bool heap_floor_met = false;

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

        uint64_t events = 0, pruned_on = 0, pruned_off = 0;
        uint64_t pruned_heap = 0, intervals = 0, defeated = 0;
        uint64_t recovered_const = 0;
        for (int trial = 0; trial < trials; ++trial) {
            const OnOff r =
                analyzeBoth(*w->program, run, pc.offline, jobs);
            ok &= assertIdentical(name, r);
            events = r.on.prefilter.events_seen;
            pruned_on = r.on.prefilter.pruned();
            pruned_off = r.off.prefilter.pruned();
            pruned_heap = r.on.prefilter.pruned_heap;
            intervals = r.on.prefilter.heap_intervals;
            defeated = r.on.prefilter.heap_defeated;
            recovered_const = r.on.replay_stats.recovered_constant;
            if (r.off.replay_stats.recovered_constant != 0) {
                std::fprintf(stderr,
                             "FAIL: %s recovered constant accesses with "
                             "points-to off\n",
                             name);
                ok = false;
            }
            json.record(
                "fig20_pointsto",
                {{"workload", name},
                 {"jobs", std::to_string(jobs)},
                 {"trial", std::to_string(trial)}},
                {{"events", static_cast<double>(events)},
                 {"pruned_on", static_cast<double>(pruned_on)},
                 {"pruned_off", static_cast<double>(pruned_off)},
                 {"pruned_heap", static_cast<double>(pruned_heap)},
                 {"heap_intervals", static_cast<double>(intervals)},
                 {"heap_defeated", static_cast<double>(defeated)},
                 {"sites_heap_local",
                  static_cast<double>(r.on.prefilter.sites_heap_local)},
                 {"recovered_constant",
                  static_cast<double>(recovered_const)},
                 {"pointsto_objects",
                  static_cast<double>(r.on.prefilter.pointsto_objects)},
                 {"pointsto_constraints",
                  static_cast<double>(
                      r.on.prefilter.pointsto_constraints)},
                 {"pointsto_iterations",
                  static_cast<double>(
                      r.on.prefilter.pointsto_iterations)},
                 {"detect_on_s", r.on.detect_seconds},
                 {"detect_off_s", r.off.detect_seconds}});
        }

        // Static CFG sharpening: on subjects where the solver resolved
        // indirect sites, the per-site fan-out must strictly shrink.
        analysis::ProgramAnalysis pa(*w->program, true);
        const analysis::StaticSummary sum = pa.summary();
        const analysis::PointsToStats &pt = sum.pointsto;
        if (pt.resolved_indirect_sites > 0 &&
            pt.fanout_sharp >= pt.fanout_blunt) {
            std::fprintf(stderr,
                         "FAIL: %s resolved %llu indirect sites but the "
                         "sharp fan-out (%llu) did not shrink below the "
                         "blunt fan-out (%llu)\n",
                         name,
                         static_cast<unsigned long long>(
                             pt.resolved_indirect_sites),
                         static_cast<unsigned long long>(pt.fanout_sharp),
                         static_cast<unsigned long long>(
                             pt.fanout_blunt));
            ok = false;
        }

        if (std::strcmp(name, kHeapHeavy) == 0 &&
            pruned_on > pruned_off && pruned_heap > 0) {
            heap_floor_met = true;
        }

        char fanout[48];
        std::snprintf(fanout, sizeof(fanout), "%llu<%llu",
                      static_cast<unsigned long long>(pt.fanout_sharp),
                      static_cast<unsigned long long>(pt.fanout_blunt));
        std::printf("%-14s %9llu %9llu %9llu %9llu %7llu %7llu %9s\n",
                    name, static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(pruned_on),
                    static_cast<unsigned long long>(pruned_off),
                    static_cast<unsigned long long>(pruned_heap),
                    static_cast<unsigned long long>(intervals),
                    static_cast<unsigned long long>(recovered_const),
                    pt.resolved_indirect_sites ? fanout : "-");
    }

    // --- oracle batteries: identity must hold under planted races and
    // the full sync vocabulary ---
    std::printf("\noracle batteries (report identity, points-to on/off):\n");
    auto batteries = oracle::standardBattery(1078, 5);
    const auto sync_battery = oracle::syncBattery(1079, 5);
    batteries.insert(batteries.end(), sync_battery.begin(),
                     sync_battery.end());
    for (const oracle::GeneratorConfig &cfg : batteries) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc = core::proRaceConfig(
            kPeriod, kSeed + 13, gw.workload.pt_filter);
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);
        const OnOff r =
            analyzeBoth(*gw.workload.program, run, pc.offline, jobs);
        const bool identical =
            assertIdentical(gw.workload.name.c_str(), r);
        ok &= identical;
        const oracle::OracleScore s_on =
            oracle::scoreReport(gw.truth, r.on.report);
        std::printf("  %-18s recall %.3f pruned %llu (heap %llu) %s\n",
                    gw.workload.name.c_str(), s_on.recall(),
                    static_cast<unsigned long long>(
                        r.on.prefilter.pruned()),
                    static_cast<unsigned long long>(
                        r.on.prefilter.pruned_heap),
                    identical ? "identical" : "DIFFER");
        json.record("fig20_pointsto",
                    {{"workload", gw.workload.name},
                     {"jobs", std::to_string(jobs)},
                     {"trial", "oracle"}},
                    {{"pruned", static_cast<double>(
                                    r.on.prefilter.pruned())},
                     {"pruned_heap", static_cast<double>(
                                         r.on.prefilter.pruned_heap)},
                     {"recall_on", s_on.recall()},
                     {"identical", identical ? 1.0 : 0.0}});
    }

    // --- full registry sweep at reduced scale: identity everywhere ---
    std::printf("\nregistry sweep (report identity at scale 0.02):\n");
    unsigned swept = 0;
    for (const std::string &name : workload::allWorkloadNames()) {
        auto w = workload::findWorkload(name, 0.02 * bench::envScale());
        if (!w)
            continue;
        core::PipelineConfig pc =
            core::proRaceConfig(kPeriod, kSeed + 17, w->pt_filter);
        core::RunArtifacts run =
            core::Session::run(*w->program, w->setup, pc.session);
        const OnOff r = analyzeBoth(*w->program, run, pc.offline, jobs);
        ok &= assertIdentical(name.c_str(), r);
        ++swept;
    }
    std::printf("  %u workloads, all identical: %s\n", swept,
                ok ? "yes" : "NO");

    if (!heap_floor_met) {
        std::fprintf(stderr,
                     "FAIL: heap-heavy subject %s did not prune strictly "
                     "more events than its stack-only baseline\n",
                     kHeapHeavy);
        ok = false;
    }
    std::printf("\n%s\n", ok ? "floors OK" : "FLOOR VIOLATION");
    return ok ? 0 : 1;
}
