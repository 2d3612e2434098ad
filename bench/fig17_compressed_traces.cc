/**
 * @file
 * Figure 17 (beyond the paper): the v5 columnar trace compression
 * against the v4 fixed-width baseline.
 *
 * For every racy-bug subject the harness traces once (period 10000,
 * fixed seed) and serializes to the v5 format. The encoder's
 * compression accounting gives the exact v4 bytes/event (the raw
 * fixed-width record sizes v4 wrote) next to the v5 bytes/event.
 * Analysis of the decoded trace is timed and its report is required to
 * match analysis of the never-serialized in-memory trace byte for
 * byte, on every subject and across a small planted-race oracle
 * battery with exact ground truth.
 *
 * Self-asserted CI floors:
 *   - aggregate PEBS compression ratio >= 3x (raw/encoded bytes)
 *   - every report-identity check holds
 *
 * `--json <path>` writes per-subject JSONL; `--jobs N` sets analysis
 * threads (default 0 = serial, so detection timing is undisturbed).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "oracle/generator.hh"
#include "support/timer.hh"
#include "trace/trace_file.hh"
#include "workload/racybugs.hh"

namespace {

using namespace prorace;

const char *kSubjects[] = {"apache-25520",  "mysql-3596",
                           "cherokee-0.9.2", "pbzip2-0.9.5", "pfscan",
                           "aget-bug2"};

/** Aggregate PEBS raw/encoded ratio the CI run must reach. */
constexpr double kRatioFloor = 3.0;

/** Min-of-trials detection time; the report lands in @p report_out. */
double
detectSeconds(const workload::Workload &w, const core::OfflineOptions &opt,
              const trace::RunTrace &run, int trials,
              std::string *report_out)
{
    double best = 1e9;
    for (int t = 0; t < trials; ++t) {
        core::OfflineAnalyzer analyzer(*w.program, opt);
        core::OfflineResult result = analyzer.analyze(run);
        best = std::min(best, result.detect_seconds);
        if (report_out)
            *report_out = result.report.format(w.program.get());
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    bench::JsonReporter json(argc, argv);
    const int trials = bench::envTrials(3);

    bench::banner("Figure 17",
                  "Columnar trace compression (v5) vs fixed-width (v4) "
                  "bytes/event, and detection time over the decoded "
                  "trace.");
    std::printf("jobs = %u, trials per cell = %d\n\n", jobs, trials);
    std::printf("%-16s %8s %9s %9s %7s %7s %10s %9s\n", "app",
                "events", "v4 B/ev", "v5 B/ev", "ratio", "runs",
                "detect ms", "identical");

    uint64_t total_raw = 0, total_encoded = 0;
    double total_detect = 0;
    bool all_identical = true;

    for (const char *name : kSubjects) {
        auto bug = workload::makeRacyBug(name, bench::envScale());
        auto cfg = core::proRaceConfig(10000, 42, bug.pt_filter);
        core::RunArtifacts run =
            core::Session::run(*bug.program, bug.setup, cfg.session);
        const std::vector<uint8_t> bytes =
            trace::serializeTrace(run.trace);
        auto loaded = trace::readTrace(bytes);
        if (!loaded.ok() || loaded.value().loss.hasLoss()) {
            std::fprintf(stderr, "FAIL: %s round trip damaged\n", name);
            return 1;
        }
        const trace::RunTrace &decoded = loaded.value().trace;
        const trace::CompressionStats &cs = decoded.meta.compression;
        const uint64_t events = run.trace.pebs.size();

        core::OfflineOptions opt = cfg.offline;
        opt.num_threads = jobs;

        std::string decoded_report, mem_report;
        const double detect_s =
            detectSeconds(bug, opt, decoded, trials, &decoded_report);
        detectSeconds(bug, opt, run.trace, 1, &mem_report);
        const bool identical = decoded_report == mem_report;
        all_identical = all_identical && identical;

        total_raw += cs.pebs_raw_bytes;
        total_encoded += cs.pebs_encoded_bytes;
        total_detect += detect_s;

        const double v4_bpe = events
            ? static_cast<double>(cs.pebs_raw_bytes) /
                  static_cast<double>(events)
            : 0.0;
        const double v5_bpe = events
            ? static_cast<double>(cs.pebs_encoded_bytes) /
                  static_cast<double>(events)
            : 0.0;
        std::printf("%-16s %8llu %9.1f %9.1f %6.2fx %7llu %10.2f "
                    "%9s\n",
                    name, static_cast<unsigned long long>(events),
                    v4_bpe, v5_bpe, cs.pebsRatio(),
                    static_cast<unsigned long long>(cs.run_blocks),
                    1e3 * detect_s,
                    identical ? "yes" : "NO");
        std::fflush(stdout);

        json.record(
            "fig17_compressed_traces",
            {{"app", name}},
            {{"pebs_events", static_cast<double>(events)},
             {"v4_bytes_per_event", v4_bpe},
             {"v5_bytes_per_event", v5_bpe},
             {"pebs_ratio", cs.pebsRatio()},
             {"sync_raw_bytes",
              static_cast<double>(cs.sync_raw_bytes)},
             {"sync_encoded_bytes",
              static_cast<double>(cs.sync_encoded_bytes)},
             {"run_blocks", static_cast<double>(cs.run_blocks)},
             {"run_iterations_folded",
              static_cast<double>(cs.run_iterations_folded)},
             {"detect_s", detect_s},
             {"reports_identical", identical ? 1.0 : 0.0}});
    }

    // Planted-race battery: identity against exact ground truth setups.
    for (const oracle::GeneratorConfig &gcfg :
         oracle::standardBattery(/*seed=*/3, /*count=*/2)) {
        const oracle::GeneratedWorkload gw = oracle::generate(gcfg);
        auto cfg = core::proRaceConfig(5000, 9, gw.workload.pt_filter);
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, cfg.session);
        auto loaded =
            trace::readTrace(trace::serializeTrace(run.trace));
        if (!loaded.ok() || loaded.value().loss.hasLoss()) {
            std::fprintf(stderr, "FAIL: oracle %s round trip damaged\n",
                         gw.workload.name.c_str());
            return 1;
        }
        core::OfflineOptions opt = cfg.offline;
        opt.num_threads = jobs;
        std::string decoded_report, mem_report;
        detectSeconds(gw.workload, opt, loaded.value().trace, 1,
                      &decoded_report);
        detectSeconds(gw.workload, opt, run.trace, 1, &mem_report);
        const bool identical = decoded_report == mem_report;
        all_identical = all_identical && identical;
        std::printf("%-16s (oracle battery) reports %s\n",
                    gw.workload.name.c_str(),
                    identical ? "identical" : "DIVERGED");
    }

    const double ratio = total_encoded
        ? static_cast<double>(total_raw) /
              static_cast<double>(total_encoded)
        : 0.0;
    std::printf("\naggregate: pebs %llu -> %llu bytes (%.2fx, floor "
                "%.1fx), detect %.2fms\n",
                static_cast<unsigned long long>(total_raw),
                static_cast<unsigned long long>(total_encoded), ratio,
                kRatioFloor, 1e3 * total_detect);

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: a report diverged between the "
                             "decoded and in-memory traces\n");
        return 1;
    }
    if (ratio < kRatioFloor) {
        std::fprintf(stderr, "FAIL: compression ratio %.2f below the "
                             "%.1f floor\n",
                     ratio, kRatioFloor);
        return 1;
    }
    std::printf("PASS: reports identical, compression floor held\n");
    return 0;
}
