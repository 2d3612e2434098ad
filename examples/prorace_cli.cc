/**
 * @file
 * Command-line front end for the two-phase deployment:
 *
 *   prorace_cli list
 *       List every built-in workload (PARSEC / real-app / racy-bug).
 *   prorace_cli trace <workload> <trace-file> [--period N] [--seed N]
 *               [--driver prorace|vanilla] [--scale X]
 *       Online phase: run the workload under tracing and write the
 *       trace file (what the production machine does).
 *   prorace_cli analyze <workload> <trace-file> [--racez] [--scale X]
 *       Offline phase: load the trace and run the analysis pipeline
 *       (what the analysis machine does). --racez limits
 *       reconstruction to basic blocks, as the RaceZ baseline does.
 *   prorace_cli run <workload> [--period N] [--seed N] [--scale X]
 *       Both phases in one process.
 *   prorace_cli oracle [--count K] [--period N] [--seed N] [--jobs N]
 *       Generate K seeded planted-race workloads, run the full
 *       pipeline on each, and score the reports against the
 *       generator's exact ground truth (recall / precision / false
 *       positives). The quantitative health check for the whole
 *       reconstruction + detection stack.
 *   prorace_cli static-report <workload> [--scale X]
 *       Static binary analysis only: build the CFG, dataflow and
 *       escape passes over the workload binary and dump the results
 *       as JSONL on stdout (one summary record, one site-class
 *       record) with a human-readable digest on stderr.
 *   prorace_cli serve [--producers N] [--sessions N] [--workers N]
 *               [--slots N] [--credit BYTES] [--shed] [--chunk BYTES]
 *               [--subjects a,b,c] [--scale X] [--period N] [--seed N]
 *               [--stats]
 *       Fleet-service mode (also spelled --serve): run the streaming
 *       multi-tenant analysis service against a simulated fleet of
 *       producers and dump the deduplicated cross-tenant race store
 *       as JSONL on stdout, with throughput and per-tenant counters
 *       on stderr.
 *   prorace_cli submit <workload> <trace-file> [--tenant NAME]
 *               [--chunk BYTES] [--scale X] [--state-dir DIR]
 *       Producer side of the service (also spelled --submit): stream
 *       an existing trace file into an in-process service session in
 *       chunks and print the analysis outcome — what a production
 *       machine's uploader does against a real service endpoint.
 *       With --state-dir, resubmitting the identical trace warm-starts
 *       from the saved detector checkpoint.
 *   prorace_cli store <state-dir> [--verify]
 *       Replay the report journal in <state-dir> offline and dump the
 *       rebuilt store as JSONL — the crash-recovery inspection tool.
 *       --verify exits nonzero when a CRC-valid record fails to apply.
 *
 * The <workload> program must be identical between trace and analyze
 * (same name and --scale), exactly as the offline phase needs the
 * production binary.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <filesystem>
#include <fstream>

#include "analysis/analysis.hh"
#include "baseline/racez.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "detect/fasttrack.hh"
#include "oracle/generator.hh"
#include "oracle/scorer.hh"
#include "replay/program_map.hh"
#include "service/fleet.hh"
#include "service/service.hh"
#include "support/journal.hh"
#include "trace/trace_file.hh"
#include "workload/registry.hh"

using namespace prorace;

namespace {

struct Args {
    std::string command;
    std::string workload;
    std::string trace_file;
    uint64_t period = 10000;
    uint64_t seed = 1;
    double scale = 1.0;
    unsigned jobs = 0; ///< offline analysis workers (0 = calling thread)
    size_t count = 5;  ///< generated workloads for the oracle command
    bool racez = false;
    bool sync_battery = false; ///< oracle: rich-sync-vocabulary configs
    bool vanilla = false;
    bool stats = false;        ///< dump shadow-structure counters
    bool no_prefilter = false; ///< disable the static access prefilter
    bool no_pointsto = false;  ///< disable the Andersen points-to layer

    // Fleet-service knobs (serve / submit commands).
    unsigned producers = 4;
    unsigned sessions = 2;     ///< sessions per producer
    unsigned workers = 2;      ///< analysis pool threads
    unsigned slots = 2;        ///< resident sessions per tenant
    uint64_t credit = 1u << 20;///< ingest credit bytes per tenant
    size_t chunk = 4096;       ///< submission chunk size
    bool shed = false;         ///< shed instead of stalling producers
    std::string subjects;      ///< comma-separated workload names
    std::string tenant = "cli";
    std::string state_dir;     ///< durable-state dir (serve / submit)
    unsigned poison = 0;       ///< poison producers (serve)
    double deadline = 0;       ///< per-session analysis deadline (s)
    bool verify = false;       ///< store command: verify the journal
};

/**
 * `--stats` dump: the paged-ProgramMap and FastTrack shadow counters
 * behind one offline analysis, for eyeballing structure behavior on
 * real workloads without a profiler.
 */
void
printShadowStats(const core::OfflineResult &result)
{
    const replay::ProgramMapStats &pm = result.replay_stats.program_map;
    const double hit_rate = pm.page_lookups
        ? 100.0 * static_cast<double>(pm.cache_hits) /
            static_cast<double>(pm.page_lookups)
        : 0.0;
    const double pm_probe = pm.page_lookups
        ? static_cast<double>(pm.probe_steps) /
            static_cast<double>(pm.page_lookups)
        : 0.0;
    std::printf("program map: %llu pages, %llu lookups "
                "(%.1f%% last-page cache hits, %.2f probes/lookup), "
                "%llu bulk invalidations\n",
                static_cast<unsigned long long>(pm.pages_allocated),
                static_cast<unsigned long long>(pm.page_lookups),
                hit_rate, pm_probe,
                static_cast<unsigned long long>(pm.mem_invalidations));

    const core::PrefilterStats &pf = result.prefilter;
    if (pf.enabled) {
        const double frac = pf.events_seen
            ? 100.0 * static_cast<double>(pf.pruned()) /
                static_cast<double>(pf.events_seen)
            : 0.0;
        std::printf("prefilter: %llu/%llu sites thread-local, "
                    "%llu/%llu events pruned (%.1f%%: %llu implicit "
                    "stack, %llu direct stack)\n",
                    static_cast<unsigned long long>(
                        pf.sites_thread_local),
                    static_cast<unsigned long long>(pf.sites_total),
                    static_cast<unsigned long long>(pf.pruned()),
                    static_cast<unsigned long long>(pf.events_seen),
                    frac,
                    static_cast<unsigned long long>(
                        pf.pruned_stack_implicit),
                    static_cast<unsigned long long>(
                        pf.pruned_stack_direct));
        if (pf.pointsto_objects) {
            std::printf("points-to: %llu objects, %llu constraints, "
                        "%llu solver iterations; %llu heap-local sites"
                        "\n",
                        static_cast<unsigned long long>(
                            pf.pointsto_objects),
                        static_cast<unsigned long long>(
                            pf.pointsto_constraints),
                        static_cast<unsigned long long>(
                            pf.pointsto_iterations),
                        static_cast<unsigned long long>(
                            pf.sites_heap_local));
            std::printf("heap pruning: %llu events in %llu private "
                        "[malloc,free) intervals (%llu intervals "
                        "defeated by a cross-thread access)\n",
                        static_cast<unsigned long long>(pf.pruned_heap),
                        static_cast<unsigned long long>(
                            pf.heap_intervals),
                        static_cast<unsigned long long>(
                            pf.heap_defeated));
        } else {
            std::printf("points-to: off\n");
        }
        if (result.replay_stats.recovered_constant) {
            std::printf("constant recovery: %llu loads from immutable "
                        "globals recovered in replay\n",
                        static_cast<unsigned long long>(
                            result.replay_stats.recovered_constant));
        }
    } else {
        std::printf("prefilter: off (%s), %llu events seen\n",
                    pf.analysis_sound ? "disabled by flag"
                                      : "analysis not sound",
                    static_cast<unsigned long long>(pf.events_seen));
    }

    const detect::FastTrackStats &ft = result.detect_stats;
    const double ft_probe = ft.shadow_lookups
        ? static_cast<double>(ft.shadow_probe_steps) /
            static_cast<double>(ft.shadow_lookups)
        : 0.0;
    std::printf("fasttrack: %llu/%llu shadow slots, %llu lookups "
                "(%.2f probes/lookup), %llu epoch fast path, "
                "%llu read shares, %llu clock spills\n",
                static_cast<unsigned long long>(ft.shadow_slots),
                static_cast<unsigned long long>(ft.shadow_capacity),
                static_cast<unsigned long long>(ft.shadow_lookups),
                ft_probe,
                static_cast<unsigned long long>(ft.epoch_fast_path),
                static_cast<unsigned long long>(ft.read_shares),
                static_cast<unsigned long long>(ft.vc_spills));

    const trace::CompressionStats &cm = result.compression;
    if (cm.pebs_raw_bytes || cm.sync_raw_bytes) {
        std::printf("compression: pebs %llu -> %llu bytes (%.2fx), "
                    "sync %llu -> %llu bytes, %llu run blocks "
                    "(%llu iterations elided)\n",
                    static_cast<unsigned long long>(cm.pebs_raw_bytes),
                    static_cast<unsigned long long>(
                        cm.pebs_encoded_bytes),
                    cm.pebsRatio(),
                    static_cast<unsigned long long>(cm.sync_raw_bytes),
                    static_cast<unsigned long long>(
                        cm.sync_encoded_bytes),
                    static_cast<unsigned long long>(cm.run_blocks),
                    static_cast<unsigned long long>(
                        cm.run_iterations_folded));
    }
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: prorace_cli list\n"
                 "       prorace_cli trace <workload> <file> [--period N]"
                 " [--seed N] [--driver prorace|vanilla] [--scale X]\n"
                 "       prorace_cli analyze <workload> <file> [--racez]"
                 " [--scale X] [--jobs N] [--stats] [--no-prefilter]"
                 " [--no-pointsto]\n"
                 "       prorace_cli run <workload> [--period N]"
                 " [--seed N] [--scale X] [--jobs N] [--stats]"
                 " [--no-prefilter] [--no-pointsto]\n"
                 "       prorace_cli oracle [--count K] [--period N]"
                 " [--seed N] [--jobs N] [--sync]\n"
                 "       prorace_cli static-report <workload>"
                 " [--scale X] [--no-pointsto]\n"
                 "       prorace_cli serve [--producers N] [--sessions "
                 "N] [--workers N] [--slots N] [--credit BYTES] "
                 "[--shed] [--chunk BYTES] [--subjects a,b,c]"
                 " [--scale X] [--period N] [--seed N] [--stats]"
                 " [--state-dir DIR] [--poison N]"
                 " [--deadline SECS]\n"
                 "       prorace_cli submit <workload> <trace-file>"
                 " [--tenant NAME] [--chunk BYTES] [--scale X]"
                 " [--state-dir DIR]\n"
                 "       prorace_cli store <state-dir> [--verify]\n"
                 "\n"
                 "--state-dir DIR makes the service durable: the report "
                 "store rides a write-ahead journal in DIR and detector "
                 "checkpoints enable warm starts; `store` replays that "
                 "journal offline (--verify checks every record)\n"
                 "--poison N adds N garbage-streaming tenants to the "
                 "fleet (chaos soak; their failures are expected and "
                 "exempt from the health gate)\n"
                 "--sync draws the oracle battery from the rich-sync-"
                 "vocabulary families (rwlock upgrade, semaphore "
                 "misuse, spinlock publication, relaxed atomics) "
                 "instead of the lock/atomic standard battery\n"
                 "--jobs N runs the offline analysis on N worker threads"
                 " (0 = on the calling thread; results are identical"
                 " either way)\n"
                 "--stats dumps the shadow-structure counters (program-"
                 "map pages and probes, FastTrack table and clocks)\n"
                 "and the static-prefilter event counters\n"
                 "--no-prefilter keeps definitely-thread-local accesses "
                 "in the detector feed (the race report is identical; "
                 "detection just costs more)\n"
                 "--no-pointsto disables the Andersen points-to layer "
                 "(heap-locality pruning, indirect-branch sharpening, "
                 "replay constant recovery; the race report is identical "
                 "either way)\n");
    return 2;
}

bool
parseFlags(int argc, char **argv, int first, Args &args)
{
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (flag == "--period") {
            const char *v = next();
            if (!v)
                return false;
            args.period = std::strtoull(v, nullptr, 10);
        } else if (flag == "--seed") {
            const char *v = next();
            if (!v)
                return false;
            args.seed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--scale") {
            const char *v = next();
            if (!v)
                return false;
            args.scale = std::atof(v);
        } else if (flag == "--jobs") {
            const char *v = next();
            if (!v)
                return false;
            char *end = nullptr;
            const unsigned long jobs = std::strtoul(v, &end, 10);
            if (*v < '0' || *v > '9' || *end != '\0' ||
                jobs > 0xffffffffu) {
                std::fprintf(stderr, "bad --jobs value: %s\n", v);
                return false;
            }
            args.jobs = static_cast<unsigned>(jobs);
        } else if (flag == "--count") {
            const char *v = next();
            if (!v)
                return false;
            args.count = std::strtoul(v, nullptr, 10);
        } else if (flag == "--racez") {
            args.racez = true;
        } else if (flag == "--sync") {
            args.sync_battery = true;
        } else if (flag == "--stats") {
            args.stats = true;
        } else if (flag == "--no-prefilter") {
            args.no_prefilter = true;
        } else if (flag == "--no-pointsto") {
            args.no_pointsto = true;
        } else if (flag == "--driver") {
            const char *v = next();
            if (!v)
                return false;
            args.vanilla = std::strcmp(v, "vanilla") == 0;
        } else if (flag == "--producers") {
            const char *v = next();
            if (!v)
                return false;
            args.producers =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--sessions") {
            const char *v = next();
            if (!v)
                return false;
            args.sessions =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--workers") {
            const char *v = next();
            if (!v)
                return false;
            args.workers =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--slots") {
            const char *v = next();
            if (!v)
                return false;
            args.slots =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--credit") {
            const char *v = next();
            if (!v)
                return false;
            args.credit = std::strtoull(v, nullptr, 10);
        } else if (flag == "--chunk") {
            const char *v = next();
            if (!v)
                return false;
            args.chunk = std::strtoul(v, nullptr, 10);
        } else if (flag == "--shed") {
            args.shed = true;
        } else if (flag == "--subjects") {
            const char *v = next();
            if (!v)
                return false;
            args.subjects = v;
        } else if (flag == "--tenant") {
            const char *v = next();
            if (!v)
                return false;
            args.tenant = v;
        } else if (flag == "--state-dir") {
            const char *v = next();
            if (!v)
                return false;
            args.state_dir = v;
        } else if (flag == "--poison") {
            const char *v = next();
            if (!v)
                return false;
            args.poison =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--deadline") {
            const char *v = next();
            if (!v)
                return false;
            args.deadline = std::atof(v);
        } else if (flag == "--verify") {
            args.verify = true;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            return false;
        }
    }
    return true;
}

int
cmdList()
{
    for (const std::string &name : workload::allWorkloadNames()) {
        auto w = workload::findWorkload(name, 0.01);
        std::printf("%-16s %s\n", name.c_str(),
                    w ? w->description.c_str() : "");
    }
    return 0;
}

int
cmdTrace(const Args &args)
{
    auto w = workload::findWorkload(args.workload, args.scale);
    if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n",
                     args.workload.c_str());
        return 1;
    }
    core::PipelineConfig cfg =
        core::proRaceConfig(args.period, args.seed, w->pt_filter);
    if (args.vanilla)
        cfg.session.tracing.driver = driver::DriverKind::kVanilla;
    cfg.session.run_baseline = true;
    core::RunArtifacts run =
        core::Session::run(*w->program, w->setup, cfg.session);
    trace::saveTrace(run.trace, args.trace_file);
    std::printf("traced %s: %llu insns, overhead %.2f%%, %llu samples "
                "(%llu dropped), %.1f KB -> %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(run.total_insns),
                100.0 * run.overhead(),
                static_cast<unsigned long long>(run.stats.samples_taken),
                static_cast<unsigned long long>(
                    run.stats.samplesDropped()),
                run.trace.totalBytes() / 1024.0,
                args.trace_file.c_str());
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    auto w = workload::findWorkload(args.workload, args.scale);
    if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n",
                     args.workload.c_str());
        return 1;
    }
    core::OfflineOptions opt;
    opt.num_threads = args.jobs;
    opt.static_prefilter = !args.no_prefilter;
    opt.pointsto = !args.no_pointsto;
    if (args.racez)
        opt.replay.mode = replay::ReplayMode::kBasicBlock;
    core::OfflineAnalyzer analyzer(*w->program, opt);
    auto analyzed = analyzer.analyzeFile(args.trace_file);
    if (!analyzed.ok()) {
        std::fprintf(stderr, "cannot analyze trace: %s\n",
                     analyzed.error().format().c_str());
        return 1;
    }
    core::OfflineResult result = std::move(analyzed.value());
    if (result.ingest_loss.hasLoss()) {
        std::printf("trace damaged; analyzing what survives (%s)\n",
                    result.ingest_loss.summary().c_str());
    }
    if (result.quarantine.windows_quarantined) {
        std::printf("quarantined %llu replay units (%llu retried)\n",
                    static_cast<unsigned long long>(
                        result.quarantine.windows_quarantined),
                    static_cast<unsigned long long>(
                        result.quarantine.window_retries));
    }

    std::printf("decode %.3fs  reconstruct %.3fs  detect %.3fs  "
                "(%llu events, recovery %.1fx, %d regeneration "
                "rounds)\n",
                result.decode_seconds, result.reconstruct_seconds,
                result.detect_seconds,
                static_cast<unsigned long long>(
                    result.extended_trace_events),
                result.replay_stats.recoveryRatio(),
                result.regeneration_rounds);
    if (args.jobs > 0) {
        const exec::ExecutorStats &es = analyzer.executorStats();
        std::printf("executor: %llu tasks (%llu stolen), max queue %llu, "
                    "mean task %.1fus\n",
                    static_cast<unsigned long long>(es.executed),
                    static_cast<unsigned long long>(es.stolen),
                    static_cast<unsigned long long>(es.max_queue_depth),
                    es.task_seconds.mean() * 1e6);
    }
    if (args.stats)
        printShadowStats(result);
    std::printf("%s", result.report.format(w->program.get()).c_str());
    for (const workload::RacyBug &bug : w->bugs) {
        std::printf("ground truth %s: %s\n", bug.id.c_str(),
                    workload::bugDetected(bug, result.report)
                        ? "DETECTED"
                        : "not detected in this trace");
    }
    return result.report.empty() ? 1 : 0;
}

int
cmdRun(const Args &args)
{
    auto w = workload::findWorkload(args.workload, args.scale);
    if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n",
                     args.workload.c_str());
        return 1;
    }
    core::PipelineConfig cfg = args.racez
        ? baseline::raceZConfig(args.period, args.seed)
        : core::proRaceConfig(args.period, args.seed, w->pt_filter);
    cfg.offline.num_threads = args.jobs;
    cfg.offline.static_prefilter = !args.no_prefilter;
    cfg.offline.pointsto = !args.no_pointsto;
    core::PipelineResult result =
        core::runPipeline(*w->program, w->setup, cfg);
    if (args.stats)
        printShadowStats(result.offline);
    std::printf("%s", result.offline.report.format(w->program.get())
                          .c_str());
    for (const workload::RacyBug &bug : w->bugs) {
        std::printf("ground truth %s: %s\n", bug.id.c_str(),
                    workload::bugDetected(bug, result.offline.report)
                        ? "DETECTED"
                        : "not detected in this trace");
    }
    return 0;
}

int
cmdOracle(const Args &args)
{
    const auto battery = args.sync_battery
        ? oracle::syncBattery(args.seed, args.count)
        : oracle::standardBattery(args.seed, args.count);
    oracle::ScoreAccumulator acc;
    std::printf("%-18s %-34s %7s %7s %6s %4s\n", "workload",
                "sites", "recall", "precis", "pairs", "fp");
    for (const oracle::GeneratorConfig &cfg : battery) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc = core::proRaceConfig(
            args.period, args.seed + 7, gw.workload.pt_filter);
        pc.offline.num_threads = args.jobs;
        core::PipelineResult result = core::runPipeline(
            *gw.workload.program, gw.workload.setup, pc);
        const oracle::OracleScore score =
            oracle::scoreReport(gw.truth, result.offline.report);
        acc.add(score);
        std::printf("%-18s %-34s %7.3f %7.3f %6zu %4zu\n",
                    gw.workload.name.c_str(),
                    gw.workload.description.c_str(), score.recall(),
                    score.precision(), score.truth_pairs,
                    score.false_positives);
        for (const auto &pair : score.missed)
            std::printf("  missed (%u, %u)\n", pair.first, pair.second);
        for (const auto &pair : score.spurious)
            std::printf("  spurious (%u, %u)\n", pair.first,
                        pair.second);
    }
    std::printf("\nperiod %llu over %zu workloads: recall %.3f, "
                "precision %.3f, %zu false positives\n",
                static_cast<unsigned long long>(args.period),
                battery.size(), acc.recall(), acc.precision(),
                acc.false_positives);
    return 0;
}

int
cmdStaticReport(const Args &args)
{
    auto w = workload::findWorkload(args.workload, args.scale);
    if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n",
                     args.workload.c_str());
        return 1;
    }
    const analysis::ProgramAnalysis pa(*w->program, !args.no_pointsto);
    const analysis::StaticSummary s = pa.summary();

    // JSONL on stdout: one summary record, one site-class record.
    std::printf(
        "{\"type\":\"summary\",\"workload\":\"%s\",\"insns\":%llu,"
        "\"blocks\":%llu,\"edges\":%llu,\"reachable_blocks\":%llu,"
        "\"address_taken\":%llu,\"mem_sites\":%llu,"
        "\"thread_local_sites\":%llu,\"thread_local_fraction\":%.4f,"
        "\"invertible_insns\":%llu,\"learn_insns\":%llu,"
        "\"rsp_integrity\":%s,\"no_stack_escape\":%s,\"sound\":%s}\n",
        args.workload.c_str(),
        static_cast<unsigned long long>(s.insns),
        static_cast<unsigned long long>(s.blocks),
        static_cast<unsigned long long>(s.edges),
        static_cast<unsigned long long>(s.reachable_blocks),
        static_cast<unsigned long long>(s.address_taken),
        static_cast<unsigned long long>(s.mem_sites),
        static_cast<unsigned long long>(s.thread_local_sites),
        s.threadLocalFraction(),
        static_cast<unsigned long long>(s.invertible_insns),
        static_cast<unsigned long long>(s.learn_insns),
        s.rsp_integrity ? "true" : "false",
        s.no_stack_escape ? "true" : "false",
        s.rsp_integrity && s.no_stack_escape ? "true" : "false");

    // Merged classification: escape's, upgraded to kHeapLocal where
    // the points-to layer confined a site to private heap objects.
    uint64_t by_class[5] = {0, 0, 0, 0, 0};
    for (uint32_t i = 0; i < s.insns; ++i)
        ++by_class[static_cast<unsigned>(pa.siteClass(i))];
    std::printf(
        "{\"type\":\"sites\",\"workload\":\"%s\",\"no_access\":%llu,"
        "\"stack_implicit\":%llu,\"stack_direct\":%llu,"
        "\"may_shared\":%llu,\"heap_local\":%llu}\n",
        args.workload.c_str(),
        static_cast<unsigned long long>(by_class[static_cast<unsigned>(
            analysis::SiteClass::kNoAccess)]),
        static_cast<unsigned long long>(by_class[static_cast<unsigned>(
            analysis::SiteClass::kStackImplicit)]),
        static_cast<unsigned long long>(by_class[static_cast<unsigned>(
            analysis::SiteClass::kStackDirect)]),
        static_cast<unsigned long long>(by_class[static_cast<unsigned>(
            analysis::SiteClass::kMayShared)]),
        static_cast<unsigned long long>(by_class[static_cast<unsigned>(
            analysis::SiteClass::kHeapLocal)]));

    if (s.pointsto_enabled) {
        const analysis::PointsToStats &pt = s.pointsto;
        std::printf(
            "{\"type\":\"pointsto\",\"workload\":\"%s\",\"objects\":%llu,"
            "\"alloc_sites\":%llu,\"constraints\":%llu,"
            "\"iterations\":%llu,\"cycles_collapsed\":%llu,"
            "\"thread_local_allocs\":%llu,\"heap_local_sites\":%llu,"
            "\"immutable_globals\":%llu,\"indirect_sites\":%llu,"
            "\"resolved_indirect_sites\":%llu,\"fanout_blunt\":%llu,"
            "\"fanout_sharp\":%llu,\"sharp_edges\":%llu,"
            "\"sharp_reachable\":%llu,\"no_heap_forgery\":%s,"
            "\"top_store\":%s,\"heap_sound\":%s}\n",
            args.workload.c_str(),
            static_cast<unsigned long long>(pt.objects),
            static_cast<unsigned long long>(pt.alloc_sites),
            static_cast<unsigned long long>(pt.constraints),
            static_cast<unsigned long long>(pt.iterations),
            static_cast<unsigned long long>(pt.cycles_collapsed),
            static_cast<unsigned long long>(pt.thread_local_allocs),
            static_cast<unsigned long long>(pt.heap_local_sites),
            static_cast<unsigned long long>(pt.immutable_globals),
            static_cast<unsigned long long>(pt.indirect_sites),
            static_cast<unsigned long long>(pt.resolved_indirect_sites),
            static_cast<unsigned long long>(pt.fanout_blunt),
            static_cast<unsigned long long>(pt.fanout_sharp),
            static_cast<unsigned long long>(s.sharp_edges),
            static_cast<unsigned long long>(s.sharp_reachable),
            pt.no_heap_forgery ? "true" : "false",
            pt.top_store ? "true" : "false",
            pt.heap_sound ? "true" : "false");
    }

    // Human digest on stderr so stdout stays machine-parseable.
    std::fprintf(stderr,
                 "%s: %llu insns in %llu blocks (%llu reachable), "
                 "%llu edges, %llu address-taken\n"
                 "  %llu memory sites, %llu thread-local (%.1f%%), "
                 "%llu invertible insns, %llu learn insns\n"
                 "  rsp integrity %s, no stack escape %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(s.insns),
                 static_cast<unsigned long long>(s.blocks),
                 static_cast<unsigned long long>(s.reachable_blocks),
                 static_cast<unsigned long long>(s.edges),
                 static_cast<unsigned long long>(s.address_taken),
                 static_cast<unsigned long long>(s.mem_sites),
                 static_cast<unsigned long long>(s.thread_local_sites),
                 100.0 * s.threadLocalFraction(),
                 static_cast<unsigned long long>(s.invertible_insns),
                 static_cast<unsigned long long>(s.learn_insns),
                 s.rsp_integrity ? "held" : "VIOLATED",
                 s.no_stack_escape ? "held" : "VIOLATED");
    if (s.pointsto_enabled) {
        const analysis::PointsToStats &pt = s.pointsto;
        std::fprintf(stderr,
                     "  points-to: %llu objects, %llu constraints; "
                     "%llu/%llu allocs thread-local, %llu heap-local "
                     "sites, %llu immutable globals, %llu/%llu indirect "
                     "sites resolved (fan-out %llu -> %llu), heap "
                     "soundness %s, top store %s\n",
                     static_cast<unsigned long long>(pt.objects),
                     static_cast<unsigned long long>(pt.constraints),
                     static_cast<unsigned long long>(
                         pt.thread_local_allocs),
                     static_cast<unsigned long long>(pt.alloc_sites),
                     static_cast<unsigned long long>(pt.heap_local_sites),
                     static_cast<unsigned long long>(
                         pt.immutable_globals),
                     static_cast<unsigned long long>(
                         pt.resolved_indirect_sites),
                     static_cast<unsigned long long>(pt.indirect_sites),
                     static_cast<unsigned long long>(pt.fanout_blunt),
                     static_cast<unsigned long long>(pt.fanout_sharp),
                     pt.heap_sound ? "held" : "degraded",
                     pt.top_store ? "seen" : "none");
    }
    return 0;
}

/** One tenant's row in the serve/stats dump. */
void
printTenantRow(const std::string &name,
               const service::TenantServiceStats &ts)
{
    std::fprintf(stderr,
                 "  %-12s %3llu opened, %3llu completed, %llu failed, "
                 "%llu events, %llu gc sweeps (%llu granules, "
                 "%llu clocks reclaimed), latency %.1fms mean / "
                 "%.1fms max\n",
                 name.c_str(),
                 static_cast<unsigned long long>(ts.sessions_opened),
                 static_cast<unsigned long long>(ts.sessions_completed),
                 static_cast<unsigned long long>(ts.sessions_failed),
                 static_cast<unsigned long long>(ts.incremental.events),
                 static_cast<unsigned long long>(
                     ts.incremental.gc_sweeps),
                 static_cast<unsigned long long>(
                     ts.incremental.granules_reclaimed),
                 static_cast<unsigned long long>(
                     ts.incremental.clocks_reclaimed),
                 ts.latency_seconds.mean() * 1e3,
                 ts.latency_seconds.max() * 1e3);
    if (ts.prefilter.enabled) {
        std::fprintf(stderr,
                     "  %-12s prefilter: %llu/%llu events pruned "
                     "(%llu implicit stack, %llu direct stack, %llu "
                     "heap-local in %llu intervals), points-to "
                     "%llu objects / %llu constraints\n",
                     "",
                     static_cast<unsigned long long>(
                         ts.prefilter.pruned()),
                     static_cast<unsigned long long>(
                         ts.prefilter.events_seen),
                     static_cast<unsigned long long>(
                         ts.prefilter.pruned_stack_implicit),
                     static_cast<unsigned long long>(
                         ts.prefilter.pruned_stack_direct),
                     static_cast<unsigned long long>(
                         ts.prefilter.pruned_heap),
                     static_cast<unsigned long long>(
                         ts.prefilter.heap_intervals),
                     static_cast<unsigned long long>(
                         ts.prefilter.pointsto_objects),
                     static_cast<unsigned long long>(
                         ts.prefilter.pointsto_constraints));
    }
    const trace::CompressionStats &cm = ts.compression;
    if (cm.pebs_raw_bytes || cm.sync_raw_bytes) {
        std::fprintf(stderr,
                     "  %-12s pebs %llu -> %llu bytes (%.2fx), sync "
                     "%llu -> %llu bytes, %llu run blocks (%llu "
                     "iterations)\n",
                     "",
                     static_cast<unsigned long long>(cm.pebs_raw_bytes),
                     static_cast<unsigned long long>(
                         cm.pebs_encoded_bytes),
                     cm.pebsRatio(),
                     static_cast<unsigned long long>(cm.sync_raw_bytes),
                     static_cast<unsigned long long>(
                         cm.sync_encoded_bytes),
                     static_cast<unsigned long long>(cm.run_blocks),
                     static_cast<unsigned long long>(
                         cm.run_iterations_folded));
    }
    // Salvage/loss accounting: what this tenant's streams lost to
    // damage. Only printed when there was any, so clean runs stay
    // clean.
    if (ts.segments_dropped || ts.bytes_skipped || ts.pebs_dropped ||
        ts.sync_dropped || ts.pt_streams_dropped ||
        ts.pt_streams_damaged || ts.truncated_streams) {
        std::fprintf(stderr,
                     "  %-12s loss: %llu/%llu segments dropped, %llu "
                     "bytes skipped, %llu samples, %llu sync events "
                     "lost, %llu PT streams lost, %llu damaged, %llu "
                     "truncated streams\n",
                     "",
                     static_cast<unsigned long long>(ts.segments_dropped),
                     static_cast<unsigned long long>(ts.segments_seen),
                     static_cast<unsigned long long>(ts.bytes_skipped),
                     static_cast<unsigned long long>(ts.pebs_dropped),
                     static_cast<unsigned long long>(ts.sync_dropped),
                     static_cast<unsigned long long>(
                         ts.pt_streams_dropped),
                     static_cast<unsigned long long>(
                         ts.pt_streams_damaged),
                     static_cast<unsigned long long>(
                         ts.truncated_streams));
    }
    // Supervision: retries, deadline kills, quarantine, warm starts.
    if (ts.sessions_quarantined || ts.analysis_retries ||
        ts.deadline_timeouts || ts.warm_starts ||
        ts.checkpoints_written || ts.quarantined) {
        std::fprintf(stderr,
                     "  %-12s supervision: %llu quarantined%s, %llu "
                     "retries, %llu deadline timeouts, %llu warm "
                     "starts, %llu checkpoints\n",
                     "",
                     static_cast<unsigned long long>(
                         ts.sessions_quarantined),
                     ts.quarantined ? " (TENANT QUARANTINED)" : "",
                     static_cast<unsigned long long>(ts.analysis_retries),
                     static_cast<unsigned long long>(
                         ts.deadline_timeouts),
                     static_cast<unsigned long long>(ts.warm_starts),
                     static_cast<unsigned long long>(
                         ts.checkpoints_written));
    }
}

int
cmdServe(const Args &args)
{
    service::FleetConfig cfg;
    cfg.producers = args.producers;
    cfg.sessions_per_producer = args.sessions;
    cfg.scale = args.scale;
    cfg.period = args.period;
    cfg.seed = args.seed;
    cfg.chunk_bytes = args.chunk;
    cfg.service.num_workers = args.workers;
    cfg.service.session_slots = args.slots;
    cfg.service.ingest.credit_bytes = args.credit;
    cfg.service.ingest.shed_on_full = args.shed;
    cfg.service.offline.pointsto = !args.no_pointsto;
    cfg.service.state_dir = args.state_dir;
    cfg.service.supervision.session_deadline_seconds = args.deadline;
    cfg.poison_producers = args.poison;
    if (!args.subjects.empty()) {
        cfg.subjects.clear();
        std::string rest = args.subjects;
        while (!rest.empty()) {
            const size_t comma = rest.find(',');
            cfg.subjects.push_back(rest.substr(0, comma));
            rest = comma == std::string::npos ? ""
                                              : rest.substr(comma + 1);
        }
    }

    const service::FleetResult result = service::runFleet(cfg);
    const service::TenantServiceStats &roll = result.stats.rollup;
    std::fprintf(stderr,
                 "fleet: %llu sessions over %u tenants in %.2fs "
                 "(%llu shed), %.1f MB streamed, %llu events "
                 "analyzed (%.0f events/s)\n",
                 static_cast<unsigned long long>(
                     result.sessions_opened),
                 cfg.producers, result.wall_seconds,
                 static_cast<unsigned long long>(
                     result.sessions_rejected),
                 static_cast<double>(result.bytes_submitted) / 1.0e6,
                 static_cast<unsigned long long>(
                     roll.incremental.events),
                 result.wall_seconds > 0
                     ? static_cast<double>(roll.incremental.events) /
                         result.wall_seconds
                     : 0.0);
    std::fprintf(stderr,
                 "ingest: peak buffered %.1f KB (credit %.1f KB/tenant),"
                 " %llu stalls, %llu chunks shed, open stalls %llu\n",
                 static_cast<double>(
                     result.stats.ingest.peak_buffered_bytes) / 1024.0,
                 static_cast<double>(cfg.service.ingest.credit_bytes) /
                     1024.0,
                 static_cast<unsigned long long>(
                     result.stats.ingest.total().stalls),
                 static_cast<unsigned long long>(
                     result.stats.ingest.total().shed_chunks),
                 static_cast<unsigned long long>(
                     result.stats.open_stalls));
    std::fprintf(stderr,
                 "store: %llu distinct races from %llu session reports; "
                 "detector peak residency %llu granules\n",
                 static_cast<unsigned long long>(
                     result.stats.distinct_races),
                 static_cast<unsigned long long>(
                     result.stats.report_observations),
                 static_cast<unsigned long long>(
                     roll.incremental.peak_live_granules));
    if (result.stats.durable) {
        std::fprintf(
            stderr,
            "durability: %llu reports recovered at boot, %llu journal "
            "records appended (%llu bytes, %llu syncs), %llu "
            "checkpoints, %llu warm starts\n",
            static_cast<unsigned long long>(
                result.stats.recovered_reports),
            static_cast<unsigned long long>(
                result.stats.journal.appended_records),
            static_cast<unsigned long long>(
                result.stats.journal.appended_bytes),
            static_cast<unsigned long long>(result.stats.journal.syncs),
            static_cast<unsigned long long>(roll.checkpoints_written),
            static_cast<unsigned long long>(roll.warm_starts));
    }
    if (result.stats.tenants_quarantined ||
        result.stats.quarantine_rejected_opens || result.poison_sessions) {
        std::fprintf(
            stderr,
            "quarantine: %llu poison sessions streamed, %llu tenants "
            "quarantined, %llu opens rejected, %llu open sessions "
            "aborted\n",
            static_cast<unsigned long long>(result.poison_sessions),
            static_cast<unsigned long long>(
                result.stats.tenants_quarantined),
            static_cast<unsigned long long>(
                result.stats.quarantine_rejected_opens),
            static_cast<unsigned long long>(
                result.stats.quarantine_aborted_sessions));
    }
    if (args.stats) {
        for (const auto &[name, ts] : result.tenants)
            printTenantRow(name, ts);
        service::TenantServiceStats check;
        for (const auto &[name, ts] : result.tenants)
            check.merge(ts);
        std::fprintf(stderr,
                     "  %-12s %3llu opened, %3llu completed "
                     "(rollup check: %s)\n",
                     "ALL",
                     static_cast<unsigned long long>(
                         roll.sessions_opened),
                     static_cast<unsigned long long>(
                         roll.sessions_completed),
                     check.sessions_completed ==
                             roll.sessions_completed
                         ? "consistent"
                         : "MISMATCH");
    }
    std::printf("%s", result.report_jsonl.c_str());

    // Health gate for CI soak runs: structural invariants only (race
    // presence depends on the subjects chosen, so it is the caller's
    // business). Under the default stall policy no session may be
    // shed; failed sessions and a rollup that disagrees with the
    // per-tenant sum are always bugs. Poison tenants are *expected* to
    // fail — their job is proving the healthy ones don't — so their
    // failures are exempt; a failure on a healthy tenant still trips
    // the gate.
    service::TenantServiceStats sum;
    uint64_t healthy_failed = 0;
    for (const auto &[name, ts] : result.tenants) {
        sum.merge(ts);
        if (name.rfind("poison-", 0) != 0)
            healthy_failed += ts.sessions_failed;
    }
    bool healthy = healthy_failed == 0 &&
                   sum.sessions_completed == roll.sessions_completed &&
                   sum.incremental.events == roll.incremental.events;
    if (!args.shed)
        healthy = healthy && result.sessions_rejected == 0;
    if (!healthy) {
        std::fprintf(stderr, "serve: health check FAILED\n");
        return 1;
    }
    return 0;
}

int
cmdSubmit(const Args &args)
{
    auto w = workload::findWorkload(args.workload, args.scale);
    if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n",
                     args.workload.c_str());
        return 1;
    }
    // Pre-flight the path before any service machinery spins up, so a
    // bad invocation gets a precise diagnostic instead of a misleading
    // "not a ProRace trace file" from an empty stream.
    std::error_code ec;
    const auto status = std::filesystem::status(args.trace_file, ec);
    if (ec || !std::filesystem::exists(status)) {
        std::fprintf(stderr, "cannot read %s: no such file\n",
                     args.trace_file.c_str());
        return 1;
    }
    if (std::filesystem::is_directory(status)) {
        std::fprintf(stderr, "cannot read %s: is a directory\n",
                     args.trace_file.c_str());
        return 1;
    }
    std::ifstream in(args.trace_file, std::ios::binary);
    if (!in) {
        std::fprintf(stderr,
                     "cannot read %s: permission denied or unreadable\n",
                     args.trace_file.c_str());
        return 1;
    }
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (bytes.empty()) {
        std::fprintf(stderr,
                     "cannot read %s: empty file (zero bytes) — not a "
                     "recorded trace\n",
                     args.trace_file.c_str());
        return 1;
    }

    service::ServiceOptions options;
    options.state_dir = args.state_dir;
    service::AnalysisService svc(options);
    svc.registerProgram(args.workload, w->program);
    const uint64_t id = svc.openSession(args.tenant, args.workload);
    for (size_t off = 0; off < bytes.size(); off += args.chunk) {
        const size_t len =
            std::min(args.chunk, bytes.size() - off);
        svc.submit(id, bytes.data() + off, len);
    }
    svc.closeSession(id);
    svc.drain();

    const std::vector<service::SessionOutcome> outcomes =
        svc.outcomes();
    if (outcomes.empty()) {
        std::fprintf(stderr, "no session completed\n");
        return 1;
    }
    const service::SessionOutcome &outcome = outcomes.front();
    if (!outcome.ok) {
        std::fprintf(stderr, "cannot analyze trace: %s\n",
                     outcome.error.c_str());
        return 1;
    }
    if (outcome.loss.hasLoss()) {
        std::printf("trace damaged; analyzed what survives (%s)\n",
                    outcome.loss.summary().c_str());
    }
    if (outcome.warm_started) {
        std::printf("warm start: resumed from a saved detector "
                    "checkpoint (%llu checkpoints written)\n",
                    static_cast<unsigned long long>(
                        outcome.checkpoints_written));
    }
    std::printf("session %llu (%s): %llu events, %llu batches, "
                "%llu gc sweeps, %.1fms ingest-to-report\n",
                static_cast<unsigned long long>(outcome.session_id),
                args.tenant.c_str(),
                static_cast<unsigned long long>(
                    outcome.incremental.events),
                static_cast<unsigned long long>(
                    outcome.incremental.batches),
                static_cast<unsigned long long>(
                    outcome.incremental.gc_sweeps),
                outcome.ingest_to_report_seconds * 1e3);
    std::printf("%s", outcome.report.format(w->program.get()).c_str());
    for (const workload::RacyBug &bug : w->bugs) {
        std::printf("ground truth %s: %s\n", bug.id.c_str(),
                    workload::bugDetected(bug, outcome.report)
                        ? "DETECTED"
                        : "not detected in this trace");
    }
    return outcome.report.empty() ? 1 : 0;
}

/**
 * Offline journal inspection: rebuild the report store by replaying
 * the journal's valid prefix through the scan path (independent of the
 * service's own recovery code) and dump it as JSONL. With --verify,
 * any record in the valid prefix that fails to apply is an error —
 * that is the crash-consistency invariant CI asserts after SIGKILLing
 * a serve run at a random moment.
 */
int
cmdStore(const Args &args)
{
    const std::string path = args.state_dir + "/reports.jrnl";
    const support::JournalScan scan = support::scanJournalFile(path);

    service::ReportStore store;
    uint64_t applied = 0, malformed = 0, foreign = 0;
    for (const support::JournalRecord &record : scan.records) {
        if (record.type != service::kReportIngestRecord) {
            ++foreign;
            continue;
        }
        if (store.applyIngestRecord(record.payload))
            ++applied;
        else
            ++malformed;
    }

    std::fprintf(stderr,
                 "journal %s: %zu records in valid prefix (%llu bytes)"
                 "%s, %llu applied, %llu malformed, %llu foreign; "
                 "%zu distinct races, max sequence %llu\n",
                 path.c_str(), scan.records.size(),
                 static_cast<unsigned long long>(
                     scan.valid_prefix_bytes),
                 scan.clean ? "" : " + torn/corrupt tail",
                 static_cast<unsigned long long>(applied),
                 static_cast<unsigned long long>(malformed),
                 static_cast<unsigned long long>(foreign),
                 store.distinctRaces(),
                 static_cast<unsigned long long>(store.maxSequence()));
    std::printf("%s", store.toJsonl().c_str());

    if (args.verify && malformed > 0) {
        std::fprintf(stderr,
                     "store: VERIFY FAILED — %llu CRC-valid records "
                     "did not apply\n",
                     static_cast<unsigned long long>(malformed));
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Args args;
    args.command = argv[1];
    // The service commands are also spelled as flags (--serve,
    // --submit), matching how deployments typically invoke daemons.
    if (args.command == "--serve")
        args.command = "serve";
    if (args.command == "--submit")
        args.command = "submit";

    if (args.command == "list")
        return cmdList();
    if (args.command == "serve") {
        if (!parseFlags(argc, argv, 2, args))
            return usage();
        return cmdServe(args);
    }
    if (args.command == "oracle") {
        if (!parseFlags(argc, argv, 2, args))
            return usage();
        return cmdOracle(args);
    }
    if (argc < 3)
        return usage();
    if (args.command == "store") {
        args.state_dir = argv[2];
        if (!parseFlags(argc, argv, 3, args))
            return usage();
        return cmdStore(args);
    }
    args.workload = argv[2];

    if (args.command == "trace" || args.command == "analyze" ||
        args.command == "submit") {
        if (argc < 4)
            return usage();
        args.trace_file = argv[3];
        if (!parseFlags(argc, argv, 4, args))
            return usage();
        if (args.command == "submit")
            return cmdSubmit(args);
        return args.command == "trace" ? cmdTrace(args)
                                       : cmdAnalyze(args);
    }
    if (args.command == "run") {
        if (!parseFlags(argc, argv, 3, args))
            return usage();
        return cmdRun(args);
    }
    if (args.command == "static-report") {
        if (!parseFlags(argc, argv, 3, args))
            return usage();
        return cmdStaticReport(args);
    }
    return usage();
}
