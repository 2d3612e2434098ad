/**
 * @file
 * Figure 16 (beyond the paper): streaming analysis-service throughput
 * and the incremental detector's resident-memory bound.
 *
 * Part A — fleet throughput: N producer tenants stream recorded racy
 * subjects into one AnalysisService; reports events analyzed per
 * second, p50/p99 ingest-to-report latency, ingest high-water marks,
 * and the per-session detector residency ceiling across rising fleet
 * sizes.
 *
 * Part B — memory bound: the kvchurn subject (growing live set — each
 * item touches a fresh arena slice, barriers retire old slices) is
 * recorded at growing lengths and analyzed with the streaming
 * detector, GC on vs GC off. With GC off, resident shadow granules
 * track every granule ever touched and grow with the trace; with GC
 * on, quiescent state is swept at batch boundaries and residency
 * flattens to the working window.
 *
 * Self-asserted checks (the harness exits nonzero on violation):
 *   1. Report identity: GC on/off produce byte-identical reports at
 *      every length (sweeping provably-quiescent state is invisible).
 *   2. The GC sweeps reclaim state (granules_reclaimed > 0).
 *   3. Memory bound: at the longest trace, GC-on peak residency stays
 *      below the GC-off peak by a real margin, and grows by less than
 *      half the events growth across the sweep (flat ceiling, not
 *      linear).
 *   4. Fleet ingest memory: producers parse their own chunks, so the
 *      only raw bytes the service holds are its session readers'
 *      unparsed tails. Their high-water never exceeds tenants x
 *      session slots x the largest serialized subject trace: a reader
 *      holds no more than the bytes fed to it (the chunk being parsed
 *      included), and a tenant has at most session_slots sessions.
 *
 * `--json <path>` writes one JSONL record per configuration.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/pipeline.hh"
#include "service/fleet.hh"
#include "workload/registry.hh"

namespace {

using namespace prorace;

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(values.size() - 1) + 0.5);
    return values[idx];
}

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("SELF-CHECK FAILED: %s\n", what);
        ++failures;
    }
}

/** Part A: one fleet configuration. */
void
runFleetConfig(unsigned producers, unsigned sessions, double scale,
               bench::JsonReporter &json)
{
    service::FleetConfig cfg;
    cfg.producers = producers;
    cfg.sessions_per_producer = sessions;
    cfg.scale = scale;
    cfg.period = 8;
    cfg.seed = 7;
    cfg.chunk_bytes = 4096;
    cfg.service.num_workers = 3;
    cfg.service.session_slots = 2;
    const service::FleetResult r = service::runFleet(cfg);

    const service::TenantServiceStats &roll = r.stats.rollup;
    const double events_per_s = r.wall_seconds > 0
        ? static_cast<double>(roll.incremental.events) / r.wall_seconds
        : 0;
    const double p50 = percentile(r.latencies, 0.5);
    const double p99 = percentile(r.latencies, 0.99);

    // Per-session residency ceiling: the largest shadow table any one
    // analysis ever held. Total service residency is bounded by
    // num_workers times this (only that many analyses coexist).
    const uint64_t session_peak = r.session_peak_granules;
    const uint64_t ingest_bound = static_cast<uint64_t>(producers) *
        cfg.service.session_slots * r.largest_trace_bytes;

    std::printf("%2u tenants x %u sessions: %7llu events in %6.2fs "
                "(%7.0f ev/s), latency p50 %6.1fms p99 %6.1fms, "
                "session peak %5llu granules, gc reclaimed %llu, "
                "ingest peak %llu KB (bound %llu KB)\n",
                producers, sessions,
                static_cast<unsigned long long>(roll.incremental.events),
                r.wall_seconds, events_per_s, p50 * 1e3, p99 * 1e3,
                static_cast<unsigned long long>(session_peak),
                static_cast<unsigned long long>(
                    roll.incremental.granules_reclaimed),
                static_cast<unsigned long long>(
                    r.stats.ingest.peak_buffered_bytes >> 10),
                static_cast<unsigned long long>(ingest_bound >> 10));

    check(r.stats.rollup.sessions_failed == 0, "no failed sessions");
    check(r.stats.rollup.sessions_completed ==
              static_cast<uint64_t>(producers) * sessions,
          "every opened session completed");
    check(r.stats.ingest.peak_buffered_bytes <= ingest_bound,
          "ingest memory bounded by tenants x slots x largest trace");
    check(r.stats.distinct_races > 0, "fleet finds the planted races");

    json.record("fig16_fleet",
                {{"producers", std::to_string(producers)},
                 {"sessions", std::to_string(sessions)}},
                {{"events", static_cast<double>(roll.incremental.events)},
                 {"wall_s", r.wall_seconds},
                 {"events_per_s", events_per_s},
                 {"latency_p50_s", p50},
                 {"latency_p99_s", p99},
                 {"session_peak_granules",
                  static_cast<double>(session_peak)},
                 {"gc_granules_reclaimed",
                  static_cast<double>(roll.incremental.granules_reclaimed)},
                 {"ingest_peak_bytes",
                  static_cast<double>(r.stats.ingest.peak_buffered_bytes)},
                 {"distinct_races",
                  static_cast<double>(r.stats.distinct_races)}});
}

struct MemoryPoint {
    uint64_t events = 0;
    uint64_t gc_peak = 0;
    uint64_t nogc_peak = 0;
    uint64_t reclaimed = 0;
};

/** Part B: one trace length, streaming analysis with GC on vs off. */
MemoryPoint
runMemoryPoint(const std::string &subject, double scale,
               bench::JsonReporter &json)
{
    auto w = workload::findWorkload(subject, scale);
    if (!w) {
        check(false, "memory-bound subject exists");
        return {};
    }
    core::PipelineConfig cfg = core::proRaceConfig(4, 11, w->pt_filter);
    cfg.session.run_baseline = false;
    core::RunArtifacts run =
        core::Session::run(*w->program, w->setup, cfg.session);

    core::OfflineOptions gc_on;
    gc_on.incremental.enabled = true;
    gc_on.incremental.batch_events = 1024;
    gc_on.incremental.gc_min_events = 256;
    core::OfflineOptions gc_off = gc_on;
    gc_off.incremental.enable_gc = false;

    core::OfflineAnalyzer on(*w->program, gc_on);
    core::OfflineAnalyzer off(*w->program, gc_off);
    const core::OfflineResult with_gc = on.analyze(run.trace);
    const core::OfflineResult without_gc = off.analyze(run.trace);

    check(with_gc.report.format(w->program.get()) ==
              without_gc.report.format(w->program.get()),
          "GC on/off reports byte-identical");

    MemoryPoint point;
    point.events = with_gc.incremental.events;
    point.gc_peak = with_gc.incremental.peak_live_granules;
    point.nogc_peak = without_gc.incremental.peak_live_granules;
    point.reclaimed = with_gc.incremental.granules_reclaimed;

    std::printf("scale %4.2f: %7llu events, peak granules %6llu with "
                "GC / %6llu without (%.2fx), %llu reclaimed in %llu "
                "sweeps\n",
                scale,
                static_cast<unsigned long long>(point.events),
                static_cast<unsigned long long>(point.gc_peak),
                static_cast<unsigned long long>(point.nogc_peak),
                point.gc_peak
                    ? static_cast<double>(point.nogc_peak) /
                        static_cast<double>(point.gc_peak)
                    : 0.0,
                static_cast<unsigned long long>(point.reclaimed),
                static_cast<unsigned long long>(
                    with_gc.incremental.gc_sweeps));

    json.record("fig16_memory",
                {{"subject", subject},
                 {"scale", std::to_string(scale)}},
                {{"events", static_cast<double>(point.events)},
                 {"gc_peak_granules", static_cast<double>(point.gc_peak)},
                 {"nogc_peak_granules",
                  static_cast<double>(point.nogc_peak)},
                 {"granules_reclaimed",
                  static_cast<double>(point.reclaimed)}});
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json(argc, argv);
    const double scale = bench::envScale(0.5);

    bench::banner("Figure 16 (beyond the paper)",
                  "Streaming service throughput and the incremental "
                  "detector's memory bound");

    std::printf("\n-- fleet throughput (racy subjects, streamed in 4 KB "
                "chunks) --\n");
    runFleetConfig(2, 2, scale, json);
    runFleetConfig(3, 2, scale, json);
    runFleetConfig(4, 3, scale, json);

    std::printf("\n-- detector residency vs trace length (subject "
                "kvchurn, growing live set) --\n");
    std::vector<MemoryPoint> points;
    for (const double s : {0.5, 1.0, 2.0, 4.0})
        points.push_back(runMemoryPoint("kvchurn", s * scale, json));

    const MemoryPoint &first = points.front();
    const MemoryPoint &last = points.back();
    check(last.reclaimed > 0, "GC reclaims state on the longest trace");
    check(last.events > first.events * 2,
          "the sweep actually grows the trace");
    check(last.nogc_peak > first.nogc_peak * 2,
          "unswept residency grows with the trace");
    check(last.gc_peak * 2 <= last.nogc_peak,
          "GC peak residency at most half the unswept residency");
    // Flat ceiling: the unswept shadow table grows with the trace
    // while the GC-on peak grows at less than half that rate.
    const double nogc_growth = first.nogc_peak
        ? static_cast<double>(last.nogc_peak) /
            static_cast<double>(first.nogc_peak)
        : 0;
    const double gc_growth = first.gc_peak
        ? static_cast<double>(last.gc_peak) /
            static_cast<double>(first.gc_peak)
        : 0;
    std::printf("\nunswept residency grew %.1fx, GC-on peak grew %.1fx\n",
                nogc_growth, gc_growth);
    check(gc_growth < nogc_growth * 0.5,
          "residency ceiling flat relative to shadow growth");

    if (failures) {
        std::printf("\n%d self-check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall self-checks passed\n");
    return 0;
}
