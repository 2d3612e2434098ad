/**
 * @file
 * Figure 19 (beyond the paper): the rich sync vocabulary end to end —
 * recall vs sampling period on the planted-race families only the new
 * primitives can express (rwlock upgrade races, semaphore-as-signal
 * misuse, broken spinlock publication, relaxed-atomic data races),
 * plus macro throughput on the concurrency archetypes built from
 * them (lock-free MPMC queue, RCU-style reader/writer table,
 * event-loop server).
 *
 * Self-asserted CI floors:
 *   - every racy family scores recall 1.0 with zero false positives
 *     at period 1
 *   - every racy family keeps recall >= 0.90 at period 10
 *   - the all-clean-families workload reports nothing at period 1
 *   - clean archetypes report nothing; the racy MPMC variant's two
 *     planted bugs are both detected at period 1
 *   - serial and parallel reports are byte-identical on a sync-heavy
 *     subject
 * Exit status 1 on any violation, so the Release perf job gates on it.
 *
 * `--json <path>` writes per-trial JSONL rows.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "oracle/generator.hh"
#include "oracle/scorer.hh"
#include "support/timer.hh"
#include "trace/trace_file.hh"
#include "workload/archetypes.hh"

namespace {

using namespace prorace;

const uint64_t kPeriods[] = {1, 10, 100, 1000};
constexpr double kRecallFloorAtPeriodTen = 0.90;

struct Family {
    const char *name;
    unsigned oracle::GeneratorConfig::*racy;
    unsigned oracle::GeneratorConfig::*clean;
};

const Family kFamilies[] = {
    {"rw-upgrade", &oracle::GeneratorConfig::rw_racy_sites,
     &oracle::GeneratorConfig::rw_locked_sites},
    {"sem-misuse", &oracle::GeneratorConfig::sem_racy_sites,
     &oracle::GeneratorConfig::sem_signal_sites},
    {"spin-publication", &oracle::GeneratorConfig::spin_racy_sites,
     &oracle::GeneratorConfig::spin_locked_sites},
    {"relaxed-atomic", &oracle::GeneratorConfig::relaxed_racy_sites,
     &oracle::GeneratorConfig::relacq_sites},
};

oracle::GeneratorConfig
familyConfig(const Family &family, uint64_t seed)
{
    oracle::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 4;
    cfg.items = 40;
    cfg.racy_sites = 0;
    cfg.*family.racy = 2;
    cfg.*family.clean = 1; // clean sync noise of the same primitive
    return cfg;
}

bool
recallSweep(bench::JsonReporter &json, int trials)
{
    std::printf("%-18s %7s %8s %10s %4s\n", "family", "period",
                "recall", "truthpairs", "fp");
    bool ok = true;
    for (const Family &family : kFamilies) {
        for (const uint64_t period : kPeriods) {
            oracle::ScoreAccumulator acc;
            for (int trial = 0; trial < trials; ++trial) {
                const oracle::GeneratedWorkload gw = oracle::generate(
                    familyConfig(family, 1901 + 2 * trial));
                auto pc = core::proRaceConfig(period, 7 + 13 * trial,
                                              gw.workload.pt_filter);
                const core::PipelineResult result = core::runPipeline(
                    *gw.workload.program, gw.workload.setup, pc);
                const oracle::OracleScore score = oracle::scoreReport(
                    gw.truth, result.offline.report);
                acc.add(score);
                json.record(
                    "fig19_sync_vocabulary",
                    {{"family", family.name},
                     {"period", std::to_string(period)},
                     {"trial", std::to_string(trial)}},
                    {{"recall", score.recall()},
                     {"precision", score.precision()},
                     {"truth_pairs",
                      static_cast<double>(score.truth_pairs)},
                     {"detected",
                      static_cast<double>(score.detected_pairs)},
                     {"false_positives",
                      static_cast<double>(score.false_positives)}});
            }
            std::printf("%-18s %7llu %8.3f %10zu %4zu\n", family.name,
                        static_cast<unsigned long long>(period),
                        acc.recall(), acc.truth_pairs,
                        acc.false_positives);
            std::fflush(stdout);
            if (period == 1 &&
                (acc.recall() < 1.0 || acc.false_positives != 0)) {
                std::fprintf(stderr,
                             "FAIL: %s at period 1: recall %.3f, %zu "
                             "false positives (must be 1.0 and 0)\n",
                             family.name, acc.recall(),
                             acc.false_positives);
                ok = false;
            }
            if (period == 10 &&
                acc.recall() < kRecallFloorAtPeriodTen) {
                std::fprintf(stderr,
                             "FAIL: %s at period 10: recall %.3f is "
                             "below the %.2f floor\n",
                             family.name, acc.recall(),
                             kRecallFloorAtPeriodTen);
                ok = false;
            }
        }
    }
    return ok;
}

bool
cleanFamiliesStaySilent()
{
    oracle::GeneratorConfig cfg;
    cfg.seed = 77;
    cfg.threads = 4;
    cfg.items = 40;
    cfg.racy_sites = 0;
    cfg.rw_locked_sites = 1;
    cfg.sem_signal_sites = 1;
    cfg.spin_locked_sites = 1;
    cfg.relacq_sites = 1;
    const oracle::GeneratedWorkload gw = oracle::generate(cfg);
    auto pc = core::proRaceConfig(1, 5, gw.workload.pt_filter);
    const core::PipelineResult result = core::runPipeline(
        *gw.workload.program, gw.workload.setup, pc);
    if (!result.offline.report.empty()) {
        std::fprintf(stderr,
                     "FAIL: all-clean sync families reported %zu "
                     "race(s) at period 1:\n%s",
                     result.offline.report.size(),
                     result.offline.report.format(
                         gw.workload.program.get()).c_str());
        return false;
    }
    std::printf("clean families silent at period 1: OK\n");
    return true;
}

bool
archetypeThroughput(bench::JsonReporter &json)
{
    std::printf("\n%-18s %10s %12s %12s %7s\n", "archetype", "insns",
                "analysis s", "insns/s", "races");
    bool ok = true;
    for (const std::string &name : workload::archetypeNames()) {
        const bool racy = name == "mpmc-queue-racy";
        const workload::Workload w =
            workload::makeArchetype(name, bench::envScale());
        // Period 1 for the racy variant (the detection floor below
        // needs every access); a production-shaped period elsewhere.
        auto pc = core::proRaceConfig(racy ? 1 : 200, 9, w.pt_filter);
        Stopwatch timer;
        const core::PipelineResult result =
            core::runPipeline(*w.program, w.setup, pc);
        const double seconds = timer.lap();
        const double insns =
            static_cast<double>(result.online.trace.meta.total_insns);
        std::printf("%-18s %10.0f %12.3f %12.0f %7zu\n", name.c_str(),
                    insns, result.offline.totalSeconds(),
                    insns / std::max(seconds, 1e-9),
                    result.offline.report.size());
        std::fflush(stdout);
        json.record("fig19_sync_vocabulary",
                    {{"archetype", name}},
                    {{"total_insns", insns},
                     {"analysis_s", result.offline.totalSeconds()},
                     {"races",
                      static_cast<double>(
                          result.offline.report.size())}});
        if (racy) {
            for (const workload::RacyBug &bug : w.bugs)
                if (!workload::bugDetected(bug,
                                           result.offline.report)) {
                    std::fprintf(stderr,
                                 "FAIL: %s bug %s undetected at "
                                 "period 1\n",
                                 name.c_str(), bug.id.c_str());
                    ok = false;
                }
        } else if (!result.offline.report.empty()) {
            std::fprintf(stderr,
                         "FAIL: clean archetype %s reported %zu "
                         "race(s)\n",
                         name.c_str(), result.offline.report.size());
            ok = false;
        }
    }
    return ok;
}

bool
reportIdentity()
{
    // Serial vs parallel on a subject that uses every new primitive at
    // once.
    oracle::GeneratorConfig cfg;
    cfg.seed = 41;
    cfg.threads = 4;
    cfg.items = 40;
    cfg.racy_sites = 1;
    cfg.rw_racy_sites = 1;
    cfg.sem_racy_sites = 1;
    cfg.spin_racy_sites = 1;
    cfg.relaxed_racy_sites = 1;
    const oracle::GeneratedWorkload gw = oracle::generate(cfg);
    auto pc = core::proRaceConfig(2, 3, gw.workload.pt_filter);
    core::RunArtifacts run = core::Session::run(
        *gw.workload.program, gw.workload.setup, pc.session);
    const asmkit::Program *prog = gw.workload.program.get();

    std::string baseline;
    bool ok = true;
    for (const unsigned jobs : {0u, 3u}) {
        core::OfflineOptions opt = pc.offline;
        opt.num_threads = jobs;
        core::OfflineAnalyzer analyzer(*gw.workload.program, opt);
        const std::string report =
            analyzer.analyze(run.trace).report.format(prog);
        if (baseline.empty()) {
            baseline = report;
        } else if (report != baseline) {
            std::fprintf(stderr, "FAIL: jobs=%u report diverged on %s\n",
                         jobs, gw.workload.name.c_str());
            ok = false;
        }
    }
    if (ok)
        std::printf("\nserial/parallel identity: OK (%s)\n",
                    gw.workload.name.c_str());
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json(argc, argv);
    const int trials = bench::envTrials(3);

    bench::banner("Figure 19",
                  "Rich sync vocabulary: recall vs period on the "
                  "rwlock/semaphore/spinlock/atomic race families, and "
                  "archetype macro throughput.");
    std::printf("trials per cell = %d\n\n", trials);

    bool ok = recallSweep(json, trials);
    ok = cleanFamiliesStaySilent() && ok;
    ok = archetypeThroughput(json) && ok;
    ok = reportIdentity() && ok;

    std::printf("%s\n", ok ? "floors OK" : "FLOOR VIOLATION");
    return ok ? 0 : 1;
}
