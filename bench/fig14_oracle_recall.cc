/**
 * @file
 * Figure 14 (beyond the paper): ground-truth recall vs sampling
 * period on generated planted-race workloads — the shape of the
 * paper's Fig 11 / Table 2 measured against an exact oracle instead
 * of a hand-curated bug list.
 *
 * A battery of >= 5 seeded workloads from oracle::standardBattery is
 * traced at each period, analyzed, and scored with oracle::scoreReport
 * against the generator's exact racy-pair set. Two extra dimensions
 * ride along: trace corruption (1% segment bit flips through the
 * fault-ingestion path) and an analysis-jobs identity check (the
 * parallel analyzer must score identically to the serial one).
 *
 * Self-asserted CI floors, checked on the clean jobs=N cells:
 *   - mean recall >= 0.95 at period 1
 *   - mean recall never increases by more than 0.10 from one period
 *     to the next larger one (monotonically plausible degradation)
 *   - no analysis crash anywhere, corrupted inputs included
 * Exit status 1 on any violation, so the Release perf job gates on it.
 *
 * `--json <path>` writes per-trial JSONL rows; `--jobs N` sets the
 * analysis thread count (default 2).
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "fault_injection.hh"
#include "oracle/generator.hh"
#include "oracle/scorer.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"

namespace {

using namespace prorace;

const uint64_t kPeriods[] = {1, 10, 100, 1000, 10000};

/** Periods that also get a corrupted-trace cell (bounds run time). */
const uint64_t kCorruptPeriods[] = {100, 10000};
constexpr double kCorruptRate = 0.01;

constexpr double kRecallFloorAtPeriodOne = 0.95;
constexpr double kMonotonicSlack = 0.10;

struct TrialScore {
    bool crashed = false;
    bool rejected = false;
    oracle::OracleScore score;
};

TrialScore
runTrial(const oracle::GeneratedWorkload &gw,
         const core::OfflineOptions &opt,
         const std::vector<uint8_t> &bytes)
{
    TrialScore out;
    try {
        auto loaded = trace::readTrace(bytes);
        if (!loaded.ok()) {
            out.rejected = true;
            return out;
        }
        core::OfflineAnalyzer analyzer(*gw.workload.program, opt);
        core::OfflineResult result = analyzer.analyze(loaded.value().trace);
        out.score = oracle::scoreReport(gw.truth, result.report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "CRASH: analysis threw: %s\n", e.what());
        out.crashed = true;
    } catch (...) {
        std::fprintf(stderr, "CRASH: analysis threw a non-exception\n");
        out.crashed = true;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv, 2);
    bench::JsonReporter json(argc, argv);
    const int trials = bench::envTrials(3);
    const size_t battery_size = std::max<size_t>(
        5, static_cast<size_t>(5.0 * bench::envScale()));
    const auto battery = oracle::standardBattery(1001, battery_size);

    bench::banner("Figure 14",
                  "Ground-truth race recall vs PEBS sampling period on "
                  "generated planted-race workloads.");
    std::printf("workloads = %zu, jobs = %u, trials per cell = %d\n\n",
                battery.size(), jobs, trials);
    std::printf("%-18s %7s %8s %8s %10s %4s\n", "workload", "period",
                "recall", "precis", "truthpairs", "fp");

    bool any_crash = false;
    std::vector<double> mean_by_period;

    for (const uint64_t period : kPeriods) {
        oracle::ScoreAccumulator period_acc;
        for (const oracle::GeneratorConfig &cfg : battery) {
            const oracle::GeneratedWorkload gw = oracle::generate(cfg);
            oracle::ScoreAccumulator acc;
            for (int trial = 0; trial < trials; ++trial) {
                const uint64_t machine_seed = 7 + 13 * trial;
                auto pc = core::proRaceConfig(period, machine_seed,
                                              gw.workload.pt_filter);
                pc.offline.num_threads = jobs;
                core::RunArtifacts run = core::Session::run(
                    *gw.workload.program, gw.workload.setup, pc.session);
                const std::vector<uint8_t> clean =
                    trace::serializeTrace(run.trace);

                const TrialScore out = runTrial(gw, pc.offline, clean);
                any_crash = any_crash || out.crashed;
                if (out.crashed || out.rejected)
                    continue;
                acc.add(out.score);
                json.record(
                    "fig14_oracle_recall",
                    {{"workload", gw.workload.name},
                     {"period", std::to_string(period)},
                     {"corrupt", "0"},
                     {"jobs", std::to_string(jobs)},
                     {"trial", std::to_string(trial)}},
                    {{"recall", out.score.recall()},
                     {"precision", out.score.precision()},
                     {"truth_pairs",
                      static_cast<double>(out.score.truth_pairs)},
                     {"detected",
                      static_cast<double>(out.score.detected_pairs)},
                     {"reported",
                      static_cast<double>(out.score.reported_pairs)},
                     {"false_positives",
                      static_cast<double>(out.score.false_positives)}});

                // Serial/parallel identity: the work-stealing analyzer
                // must not move the score.
                if (trial == 0 && period == 100) {
                    try {
                        core::OfflineOptions serial = pc.offline;
                        serial.num_threads = 0;
                        core::OfflineAnalyzer analyzer(
                            *gw.workload.program, serial);
                        const oracle::OracleScore serial_score =
                            oracle::scoreReport(
                                gw.truth,
                                analyzer.analyze(run.trace).report);
                        if (serial_score.detected_pairs !=
                            out.score.detected_pairs) {
                            std::fprintf(stderr,
                                         "FAIL: jobs=%u scored %zu "
                                         "pairs, serial %zu on %s\n",
                                         jobs, out.score.detected_pairs,
                                         serial_score.detected_pairs,
                                         gw.workload.name.c_str());
                            any_crash = true;
                        }
                        json.record(
                            "fig14_oracle_recall",
                            {{"workload", gw.workload.name},
                             {"period", std::to_string(period)},
                             {"corrupt", "0"},
                             {"jobs", "0"},
                             {"trial", std::to_string(trial)}},
                            {{"recall", serial_score.recall()},
                             {"precision", serial_score.precision()},
                             {"truth_pairs",
                              static_cast<double>(
                                  serial_score.truth_pairs)},
                             {"detected",
                              static_cast<double>(
                                  serial_score.detected_pairs)},
                             {"reported",
                              static_cast<double>(
                                  serial_score.reported_pairs)},
                             {"false_positives",
                              static_cast<double>(
                                  serial_score.false_positives)}});
                    } catch (const std::exception &e) {
                        std::fprintf(stderr, "CRASH: serial: %s\n",
                                     e.what());
                        any_crash = true;
                    }
                }

                // Corrupted-trace cell: degraded input may lose races
                // but must never crash or fabricate a crash report.
                bool want_corrupt = false;
                for (const uint64_t p : kCorruptPeriods)
                    want_corrupt = want_corrupt || p == period;
                if (want_corrupt) {
                    std::vector<uint8_t> damaged = clean;
                    Rng corrupt_rng(cfg.seed * 1000003ull + period +
                                    static_cast<uint64_t>(trial));
                    fault::corruptSegments(damaged, kCorruptRate,
                                           corrupt_rng);
                    const TrialScore hurt =
                        runTrial(gw, pc.offline, damaged);
                    any_crash = any_crash || hurt.crashed;
                    if (!hurt.crashed && !hurt.rejected) {
                        json.record(
                            "fig14_oracle_recall",
                            {{"workload", gw.workload.name},
                             {"period", std::to_string(period)},
                             {"corrupt", std::to_string(kCorruptRate)},
                             {"jobs", std::to_string(jobs)},
                             {"trial", std::to_string(trial)}},
                            {{"recall", hurt.score.recall()},
                             {"precision", hurt.score.precision()},
                             {"truth_pairs",
                              static_cast<double>(
                                  hurt.score.truth_pairs)},
                             {"detected",
                              static_cast<double>(
                                  hurt.score.detected_pairs)},
                             {"reported",
                              static_cast<double>(
                                  hurt.score.reported_pairs)},
                             {"false_positives",
                              static_cast<double>(
                                  hurt.score.false_positives)}});
                    }
                }
            }
            std::printf("%-18s %7llu %8.3f %8.3f %10zu %4zu\n",
                        gw.workload.name.c_str(),
                        static_cast<unsigned long long>(period),
                        acc.recall(), acc.precision(), acc.truth_pairs,
                        acc.false_positives);
            period_acc.add({acc.truth_pairs, acc.detected_pairs,
                            acc.reported_pairs, acc.false_positives});
        }
        std::printf("%-18s %7llu %8.3f %8.3f %10zu %4zu\n\n",
                    "MEAN", static_cast<unsigned long long>(period),
                    period_acc.recall(), period_acc.precision(),
                    period_acc.truth_pairs,
                    period_acc.false_positives);
        mean_by_period.push_back(period_acc.recall());
    }

    bool ok = !any_crash;
    if (mean_by_period[0] < kRecallFloorAtPeriodOne) {
        std::fprintf(stderr,
                     "FAIL: recall %.3f at period 1 is below the %.2f "
                     "floor\n",
                     mean_by_period[0], kRecallFloorAtPeriodOne);
        ok = false;
    }
    for (size_t i = 1; i < mean_by_period.size(); ++i) {
        if (mean_by_period[i] >
            mean_by_period[i - 1] + kMonotonicSlack) {
            std::fprintf(
                stderr,
                "FAIL: recall rose from %.3f to %.3f between periods "
                "%llu and %llu — not a plausible degradation curve\n",
                mean_by_period[i - 1], mean_by_period[i],
                static_cast<unsigned long long>(kPeriods[i - 1]),
                static_cast<unsigned long long>(kPeriods[i]));
            ok = false;
        }
    }
    if (any_crash)
        std::fprintf(stderr, "FAIL: at least one analysis crashed\n");
    std::printf("%s\n", ok ? "floors OK" : "FLOOR VIOLATION");
    return ok ? 0 : 1;
}
