/**
 * @file
 * Figure 13 (beyond the paper): race-report recall under trace
 * corruption — the degradation curve of the fault-tolerant ingestion
 * layer.
 *
 * Each subject is traced once (period 10000, fixed seed), analyzed
 * clean for the baseline race set, then re-analyzed from deterministic
 * seeded corruptions of the serialized trace at increasing rates:
 *
 *   segflip   each segment takes one random bit flip w.p. rate
 *   segdrop   each segment is removed outright w.p. rate
 *   truncate  the file loses its trailing `rate` fraction of bytes
 *
 * Recall = |detected ∩ baseline| / |baseline| on deduplicated
 * instruction pairs. Every analysis runs under try/catch: any escaped
 * exception is a harness failure — corruption must degrade results,
 * never crash the analyzer. The harness also self-asserts the CI
 * floor: mean recall >= 0.9 for segment corruption (segflip+segdrop)
 * at rates <= 1%. `--json <path>` writes per-trial JSONL; `--jobs N`
 * sets analysis threads (default 2, so sharded decode and window
 * quarantine run under damage too).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "fault_injection.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"
#include "workload/racybugs.hh"

namespace {

using namespace prorace;

const char *kSubjects[] = {"apache-25520",  "mysql-3596",
                           "cherokee-0.9.2", "pbzip2-0.9.5", "pfscan",
                           "aget-bug2"};

const double kRates[] = {0.0, 0.005, 0.01, 0.02, 0.05};

/** The CI floor: mean segment-corruption recall at rates <= this. */
constexpr double kFloorMaxRate = 0.01;
constexpr double kRecallFloor = 0.9;

using RacePairs = std::set<std::pair<uint32_t, uint32_t>>;

RacePairs
racePairs(const detect::RaceReport &report)
{
    RacePairs pairs;
    for (const detect::DataRace &race : report.races()) {
        const uint32_t a = race.prior.insn_index;
        const uint32_t b = race.current.insn_index;
        pairs.insert({std::min(a, b), std::max(a, b)});
    }
    return pairs;
}

double
recallOf(const RacePairs &baseline, const RacePairs &detected)
{
    if (baseline.empty())
        return 1.0;
    size_t hit = 0;
    for (const auto &pair : baseline)
        hit += detected.count(pair);
    return static_cast<double>(hit) /
           static_cast<double>(baseline.size());
}

struct TrialOutcome {
    bool crashed = false;
    bool rejected = false; ///< TraceError (uninterpretable input)
    double recall = 0;
    trace::SegmentLoss loss;
    uint64_t resyncs = 0;
    uint64_t quarantined = 0;
};

/** One corrupted-analysis trial; exceptions are harness failures. */
TrialOutcome
runTrial(const workload::Workload &bug, const core::OfflineOptions &opt,
         const std::vector<uint8_t> &corrupted,
         const RacePairs &baseline)
{
    TrialOutcome out;
    try {
        auto loaded = trace::readTrace(corrupted);
        if (!loaded.ok()) {
            out.rejected = true;
            return out;
        }
        out.loss = loaded.value().loss;
        core::OfflineAnalyzer analyzer(*bug.program, opt);
        core::OfflineResult result =
            analyzer.analyze(loaded.value().trace);
        out.recall = recallOf(baseline, racePairs(result.report));
        out.resyncs = result.decode_stats.resyncs;
        out.quarantined = result.quarantine.windows_quarantined;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "CRASH: analysis threw: %s\n", e.what());
        out.crashed = true;
    } catch (...) {
        std::fprintf(stderr, "CRASH: analysis threw a non-exception\n");
        out.crashed = true;
    }
    return out;
}

std::vector<uint8_t>
corrupt(const std::vector<uint8_t> &clean, const std::string &mode,
        double rate, uint64_t seed)
{
    std::vector<uint8_t> bytes = clean;
    Rng rng(seed);
    if (mode == "segflip") {
        fault::corruptSegments(bytes, rate, rng);
    } else if (mode == "segdrop") {
        fault::dropSegments(bytes, rate, rng);
    } else if (mode == "truncate") {
        const auto keep = static_cast<size_t>(
            static_cast<double>(bytes.size()) * (1.0 - rate));
        fault::truncateAt(bytes, keep);
    }
    return bytes;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv, 2);
    bench::JsonReporter json(argc, argv);
    const int trials = bench::envTrials(3);
    const char *kModes[] = {"segflip", "segdrop", "truncate"};

    bench::banner("Figure 13",
                  "Race-report recall vs trace-corruption rate "
                  "(segment bit flips, segment drops, truncation).");
    std::printf("jobs = %u, trials per cell = %d\n\n", jobs, trials);
    std::printf("%-16s %-9s %7s %8s %9s %9s %8s\n", "app", "mode",
                "rate", "recall", "segs lost", "resyncs", "rejects");

    bool any_crash = false;
    double floor_recall_sum = 0;
    uint64_t floor_cells = 0;

    for (const char *name : kSubjects) {
        auto bug = workload::makeRacyBug(name, bench::envScale());
        auto cfg = core::proRaceConfig(10000, 42, bug.pt_filter);
        core::RunArtifacts run =
            core::Session::run(*bug.program, bug.setup, cfg.session);
        const std::vector<uint8_t> clean =
            trace::serializeTrace(run.trace);

        core::OfflineOptions opt = cfg.offline;
        opt.num_threads = jobs;
        core::OfflineAnalyzer analyzer(*bug.program, opt);
        const RacePairs baseline =
            racePairs(analyzer.analyze(run.trace).report);

        for (const char *mode : kModes) {
            for (const double rate : kRates) {
                double recall_sum = 0;
                uint64_t segs_dropped = 0, resyncs = 0, rejects = 0;
                int measured = 0;
                for (int trial = 0; trial < trials; ++trial) {
                    const uint64_t seed =
                        0xF13ull * 1000003ull + trial * 7919ull +
                        static_cast<uint64_t>(
                            std::hash<std::string>{}(name)) +
                        static_cast<uint64_t>(rate * 1e6);
                    const std::vector<uint8_t> bytes =
                        corrupt(clean, mode, rate, seed);
                    const TrialOutcome out =
                        runTrial(bug, opt, bytes, baseline);
                    any_crash = any_crash || out.crashed;
                    if (out.crashed)
                        continue;
                    if (out.rejected) {
                        ++rejects;
                        continue;
                    }
                    recall_sum += out.recall;
                    segs_dropped += out.loss.segments_dropped;
                    resyncs += out.resyncs;
                    ++measured;
                    json.record(
                        "fig13_fault_tolerance",
                        {{"app", name},
                         {"mode", mode},
                         {"rate", std::to_string(rate)},
                         {"trial", std::to_string(trial)}},
                        {{"recall", out.recall},
                         {"baseline_races",
                          static_cast<double>(baseline.size())},
                         {"segments_dropped",
                          static_cast<double>(
                              out.loss.segments_dropped)},
                         {"bytes_skipped",
                          static_cast<double>(out.loss.bytes_skipped)},
                         {"pebs_dropped",
                          static_cast<double>(out.loss.pebs_dropped)},
                         {"pt_damaged",
                          static_cast<double>(
                              out.loss.pt_streams_damaged)},
                         {"resyncs", static_cast<double>(out.resyncs)},
                         {"quarantined",
                          static_cast<double>(out.quarantined)}});
                }
                const double mean_recall =
                    measured ? recall_sum / measured : 0.0;
                if (measured &&
                    (std::strcmp(mode, "segflip") == 0 ||
                     std::strcmp(mode, "segdrop") == 0) &&
                    rate <= kFloorMaxRate) {
                    floor_recall_sum += mean_recall;
                    ++floor_cells;
                }
                std::printf("%-16s %-9s %6.1f%% %7.1f%% %9llu %9llu "
                            "%8llu\n",
                            name, mode, 100 * rate, 100 * mean_recall,
                            static_cast<unsigned long long>(
                                segs_dropped),
                            static_cast<unsigned long long>(resyncs),
                            static_cast<unsigned long long>(rejects));
                std::fflush(stdout);
            }
        }
    }

    const double floor_recall =
        floor_cells ? floor_recall_sum / static_cast<double>(floor_cells)
                    : 0.0;
    std::printf("\nmean segment-corruption recall at rates <= %.1f%%: "
                "%.1f%% (floor %.0f%%)\n",
                100 * kFloorMaxRate, 100 * floor_recall,
                100 * kRecallFloor);
    if (any_crash) {
        std::fprintf(stderr, "FAIL: a corrupted trace crashed the "
                             "analyzer\n");
        return 1;
    }
    if (floor_recall < kRecallFloor) {
        std::fprintf(stderr, "FAIL: recall %.3f below the %.2f floor\n",
                     floor_recall, kRecallFloor);
        return 1;
    }
    std::printf("PASS: zero crashes, recall floor held\n");
    return 0;
}
