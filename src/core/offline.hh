/**
 * @file
 * Offline phase entry point: PT decode, trace alignment, memory-trace
 * reconstruction, and FastTrack race detection, with the paper's
 * racy-emulated-location regeneration loop (§5.1).
 */

#ifndef PRORACE_CORE_OFFLINE_HH
#define PRORACE_CORE_OFFLINE_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "analysis/analysis.hh"
#include "asmkit/program.hh"
#include "detect/fasttrack.hh"
#include "detect/report.hh"
#include "exec/executor.hh"
#include "pmu/pt.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "support/expected.hh"
#include "trace/records.hh"
#include "trace/trace_error.hh"
#include "trace/trace_file.hh"

namespace prorace::core {

/**
 * Checkpoint/resume and supervision hooks into the streaming analysis
 * (detect::FastTrack with batch boundaries). The analysis service uses
 * these for crash recovery: at every epoch-GC batch boundary it can
 * serialize the detector plus the feed cursor, and a later analysis of
 * the same byte stream warm-starts from that image instead of
 * re-running the detector from event zero. Hooks fire only in streaming
 * mode (OfflineOptions::incremental.enabled), for any num_threads;
 * checkpointing and restore apply to regeneration round 0 only — later
 * rounds re-run against a different blacklist, so a round-0 image
 * would be stale for them.
 */
struct CheckpointHooks {
    /**
     * Fired on the calling thread after every committed replay task,
     * at every detection batch boundary, and once after the final
     * event, in every round. Decode and alignment run without a tick.
     * May throw to abort the analysis — this is how the service
     * enforces per-session deadlines cooperatively; the exception
     * propagates out of analyze() once no replay task is running.
     */
    std::function<void()> tick;

    /**
     * Fired (round 0 only) at every batch boundary and once at
     * end-of-feed, after the boundary's retirement/GC ran:
     * @p feed_cursor events of the @p feed_total -event merged feed are
     * fully dispatched and @p detector holds exactly the state an
     * uninterrupted run has at this point. The hook may serialize it.
     */
    std::function<void(uint64_t feed_cursor, uint64_t feed_total,
                       detect::FastTrack &detector)>
        on_boundary;

    /**
     * When set, round 0 restores this serialized detector image and
     * resumes dispatch at feed event @p resume_events instead of 0.
     * Applied only when @p resume_feed_total matches the rebuilt feed
     * size exactly and the image deserializes cleanly; otherwise the
     * analysis cold-starts (correct, just slower).
     */
    const std::vector<uint8_t> *restore = nullptr;
    uint64_t resume_events = 0;
    uint64_t resume_feed_total = 0;

    /** Out-param: set true when the restore was actually applied. */
    bool *resumed = nullptr;
};

/**
 * Offline-phase configuration. There is no PT filter here: the decoder
 * walks each trace with the filter recorded in its meta
 * (trace::TraceMeta::pt_filter), so a trace cannot be analyzed under a
 * filter other than the one it was traced with.
 */
struct OfflineOptions {
    replay::ReplayConfig replay;
    /** Regeneration rounds when races land on emulated locations. */
    int max_regeneration_rounds = 2;
    /**
     * Where PT decode shards and replay tasks run: 0 = on the calling
     * thread, N > 0 = on N executor workers. Either way the same decode
     * and reconstruction routines run the same plan and commit in the
     * same order, so the result is bit-identical.
     */
    unsigned num_threads = 0;
    /**
     * Drop extended-trace events whose access site the static escape
     * analysis proved definitely thread-local before they reach the
     * FastTrack detector. Per-thread stacks are disjoint and FastTrack
     * accesses never advance thread clocks, so the race report is
     * byte-identical with the prefilter on or off; only detection cost
     * changes. Disabled automatically (at zero cost) whenever the
     * analysis cannot certify its stack invariants for the program.
     */
    bool static_prefilter = true;
    /**
     * Run the Andersen points-to layer (heap-locality pruning, CFG
     * sharpening, replay constant recovery). The blunt analyses and the
     * race report are byte-identical with the layer on or off; only
     * pruning/recovery opportunity changes. `--no-pointsto` in the CLI
     * maps here.
     */
    bool pointsto = true;
    /**
     * Streaming detection (detect::FastTrack with batch boundaries):
     * process the merged detector feed in batches with epoch-GC of
     * quiescent shadow state between batches, bounding detector memory
     * on long traces.
     * The race report is byte-identical to one-shot detection; only
     * resident state and statistics differ. The analysis service runs
     * every session this way.
     */
    detect::IncrementalOptions incremental;
    /** Detector checkpoint/resume + deadline hooks (service tier). */
    CheckpointHooks checkpoint;

    // --- prorace_bench/ compatibility shims (see the detail:: block
    // below): ignored by the analyzer.
    /** Ignored; kept only so prorace_bench/ compiles. */
    bool run_summary = true;
    /**
     * Ignored; kept only so prorace_bench/ compiles. proRaceConfig()
     * still fills it with the tracing filter, because the harness
     * hands it to pmu::decodePt in its layer-by-layer replay of
     * analyze(); analysis itself decodes with run.meta.pt_filter.
     */
    pmu::PtFilter pt_filter = pmu::PtFilter::all();
};

/**
 * Counters of the static access prefilter, accumulated over every
 * detection pass (regeneration rounds included) of one analyze() call.
 */
struct PrefilterStats {
    bool enabled = false;        ///< option on and analysis available
    bool analysis_sound = false; ///< escape-analysis invariants held
    bool heap_sound = false;     ///< points-to heap locality trustworthy
    uint64_t sites_total = 0;        ///< static memory-access sites
    uint64_t sites_thread_local = 0; ///< sites proved thread-local
    uint64_t sites_heap_local = 0;   ///< sites confined to private heap
    uint64_t events_seen = 0;   ///< extended-trace events inspected
    uint64_t pruned_stack_implicit = 0; ///< push/pop/call/ret events
    uint64_t pruned_stack_direct = 0;   ///< rsp/rbp-relative accesses
    uint64_t pruned_heap = 0;           ///< heap-local interval events
    uint64_t heap_intervals = 0; ///< dynamic [malloc,free) intervals seen
    uint64_t heap_defeated = 0;  ///< intervals a cross-thread access hit
    // Points-to solver size (per-program facts; max-merged).
    uint64_t pointsto_objects = 0;
    uint64_t pointsto_constraints = 0;
    uint64_t pointsto_iterations = 0;

    uint64_t
    pruned() const
    {
        return pruned_stack_implicit + pruned_stack_direct + pruned_heap;
    }

    /** Rollup across analyzer instances (service-wide --stats). */
    void
    merge(const PrefilterStats &other)
    {
        enabled = enabled || other.enabled;
        analysis_sound = analysis_sound || other.analysis_sound;
        heap_sound = heap_sound || other.heap_sound;
        // Site counts are per-program facts, identical across instances
        // analyzing the same binary: keep the larger, don't sum.
        const auto keep_max = [](uint64_t &a, uint64_t b) {
            a = a > b ? a : b;
        };
        keep_max(sites_total, other.sites_total);
        keep_max(sites_thread_local, other.sites_thread_local);
        keep_max(sites_heap_local, other.sites_heap_local);
        keep_max(pointsto_objects, other.pointsto_objects);
        keep_max(pointsto_constraints, other.pointsto_constraints);
        keep_max(pointsto_iterations, other.pointsto_iterations);
        events_seen += other.events_seen;
        pruned_stack_implicit += other.pruned_stack_implicit;
        pruned_stack_direct += other.pruned_stack_direct;
        pruned_heap += other.pruned_heap;
        heap_intervals += other.heap_intervals;
        heap_defeated += other.heap_defeated;
    }
};

/**
 * Loss accounting of the replay quarantine, in every replay mode and at
 * every num_threads: the units (windows and pathless samples) of a
 * replay task that threw are retried one at a time on the calling
 * thread, and a unit that fails again is dropped with its
 * reconstructed accesses (a window's opening sample included). A
 * failed attempt contributes no accesses and no replay counters.
 */
struct QuarantineStats {
    uint64_t window_retries = 0;      ///< units of failed tasks re-run inline
    uint64_t windows_quarantined = 0; ///< units dropped after retry

    void
    merge(const QuarantineStats &other)
    {
        window_retries += other.window_retries;
        windows_quarantined += other.windows_quarantined;
    }
};

/** Everything the offline phase produces. */
struct OfflineResult {
    detect::RaceReport report;
    replay::ReplayStats replay_stats;
    pmu::PtDecodeStats decode_stats;
    replay::AlignStats align_stats;
    detect::FastTrackStats detect_stats;
    /** Streaming-detector counters (OfflineOptions::incremental). */
    detect::IncrementalStats incremental;
    /** What trace ingestion discarded (LoadedTrace analysis only). */
    trace::SegmentLoss ingest_loss;
    /** v5 columnar compression counters of the ingested trace
     *  (LoadedTrace analysis only; zero for a bare RunTrace). */
    trace::CompressionStats compression;
    QuarantineStats quarantine;
    PrefilterStats prefilter;
    uint64_t extended_trace_events = 0; ///< counted before the prefilter
    int regeneration_rounds = 0;

    // Wall-clock cost split of the offline pipeline (paper §7.6).
    double decode_seconds = 0;
    double reconstruct_seconds = 0; ///< alignment + replay
    double detect_seconds = 0;

    double
    totalSeconds() const
    {
        return decode_seconds + reconstruct_seconds + detect_seconds;
    }
};

/**
 * The offline analyzer: feed it the program binary and a run trace; it
 * returns the race report and pipeline statistics.
 *
 * There is one decode routine (per-core PT decode shards, merged) and
 * one reconstruction routine (the tasks of replay::Replayer::plan,
 * committed in plan order, failed tasks retried per unit and
 * quarantined). OfflineOptions::num_threads only picks where the
 * shards and tasks run: on the calling thread at 0, on a per-call
 * N-worker executor at N > 0. Basic-block (RaceZ) mode skips decode
 * and alignment; its plan is sample tasks only. Prefiltering,
 * detection and the CheckpointHooks run on the calling thread
 * (DESIGN.md §8).
 */
class OfflineAnalyzer
{
  public:
    OfflineAnalyzer(const asmkit::Program &program,
                    const OfflineOptions &options);

    /**
     * Run the full offline pipeline over @p run, decoding its PT
     * streams with the filter it was traced with (run.meta.pt_filter).
     */
    OfflineResult analyze(const trace::RunTrace &run);

    /**
     * Analyze an ingested trace and record what ingestion discarded.
     * When sync records were lost, streaming detection runs without
     * epoch GC: a lost spawn record could hide a fork edge the GC
     * soundness argument relies on.
     */
    OfflineResult analyze(const trace::LoadedTrace &loaded);

    /**
     * Ingest @p path fault-tolerantly and analyze what survives.
     * Segment damage degrades the result (recorded in
     * OfflineResult::ingest_loss); only an uninterpretable file —
     * unreadable, foreign, wrong version, meta destroyed — returns a
     * TraceError.
     */
    Result<OfflineResult, trace::TraceError>
    analyzeFile(const std::string &path);

    /** Executor counters of the last analyze() call (zero at 0 threads). */
    const exec::ExecutorStats &executorStats() const
    {
        return exec_stats_;
    }

  private:
    using Paths = std::map<uint32_t, pmu::ThreadPath>;
    using Alignments = std::map<uint32_t, replay::ThreadAlignment>;

    /** analyze() with the detector options this run allows. */
    OfflineResult analyzeRun(const trace::RunTrace &run,
                             const detect::IncrementalOptions &incremental);

    /**
     * Decode one shard per PT stream, on @p ex or on the calling thread
     * when it is null, and merge them with pmu::mergePtShards (a tid
     * split across streams loses its path).
     */
    Paths decode(const trace::RunTrace &run, exec::Executor *ex,
                 pmu::PtDecodeStats *stats);

    /**
     * One replay pass with the given blacklist, its tasks on the
     * per-worker replayers of @p ex or on the calling thread's when it
     * is null; returns the TSC-sorted extended trace.
     */
    std::vector<replay::ReconstructedAccess>
    reconstruct(const trace::RunTrace &run, const Paths &paths,
                const Alignments &alignments,
                const replay::ReplayConfig &replay_config,
                exec::Executor *ex, OfflineResult &result,
                std::unordered_set<uint64_t> &consumed);

    /** Prefilter plus one-shot or streaming detection. */
    void detectAccesses(const trace::RunTrace &run,
                        const Alignments &alignments,
                        const detect::IncrementalOptions &incremental,
                        std::vector<replay::ReconstructedAccess> &accesses,
                        OfflineResult &result, bool first_round);

    const asmkit::Program &program_;
    OfflineOptions options_;
    /** Static facts shared by the aligner, replayer and prefilter. */
    std::unique_ptr<analysis::ProgramAnalysis> analysis_;
    exec::ExecutorStats exec_stats_;
};

namespace detail {

/**
 * One-shot detection: detectRacesIncremental() with a default-built
 * (non-streaming) FastTrack, returning its report and counters.
 */
void detectRaces(const trace::RunTrace &run,
                 const std::map<uint32_t,
                                replay::ThreadAlignment> &alignments,
                 const std::vector<replay::ReconstructedAccess> &accesses,
                 detect::RaceReport &report,
                 detect::FastTrackStats &stats);

/**
 * The detection stage: merge the reconstructed accesses and the sync
 * trace into one TSC-ordered feed (with the release < access < acquire
 * tie-break at equal timestamps) and dispatch each event into
 * @p detector exactly once.
 *
 * When the detector's IncrementalOptions::enabled is set, the feed is
 * dispatched in batches of batch_events events with a batchBoundary()
 * (thread retirement + epoch GC) between batches, @p hooks fire, and
 * the stream ends with finish(). The caller pre-seeds @p detector with
 * requireThread() for every expected thread. Otherwise the feed runs
 * straight through and @p hooks are ignored. The race report is the
 * same in both modes.
 */
void detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::FastTrack &detector, const CheckpointHooks *hooks = nullptr,
    bool allow_checkpoint = true);

// --- prorace_bench/ compatibility shims: retire with
// OfflineOptions::run_summary, OfflineOptions::pt_filter and
// FastTrackStats::run_iterations_folded.

/** Ignores @p run_summary; kept only so prorace_bench/ compiles. */
inline void
detectRaces(const trace::RunTrace &run,
            const std::map<uint32_t, replay::ThreadAlignment> &alignments,
            const std::vector<replay::ReconstructedAccess> &accesses,
            detect::RaceReport &report, detect::FastTrackStats &stats,
            bool /*run_summary*/)
{
    detectRaces(run, alignments, accesses, report, stats);
}

/** Ignores @p run_summary; kept only so prorace_bench/ compiles. */
inline void
detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::FastTrack &detector, bool /*run_summary*/,
    const CheckpointHooks *hooks = nullptr, bool allow_checkpoint = true)
{
    detectRacesIncremental(run, alignments, accesses, detector, hooks,
                           allow_checkpoint);
}

// --- end of prorace_bench/ compatibility shims ----------------------

/**
 * Paper §5.1: races on locations whose emulated values the replay
 * consumed are suspect; returns the blacklist additions for the next
 * regeneration round (empty = converged).
 */
std::vector<std::pair<uint64_t, uint64_t>>
regenerationBlacklist(
    const detect::RaceReport &report,
    const std::unordered_set<uint64_t> &consumed,
    const std::vector<std::pair<uint64_t, uint64_t>> &existing);

/**
 * The static access prefilter: removes extended-trace events at definitely-thread-local
 * sites and accounts for what was dropped. A no-op (beyond counting
 * events_seen) when @p enabled is false or @p analysis is null.
 *
 * With @p run supplied and the points-to layer available, also prunes
 * heap-local accesses: an access at a kHeapLocal site, made by the
 * thread that allocated the block, strictly inside the block's dynamic
 * [malloc, free) lifetime, where no *other* thread touched the block's
 * shadow granules during that lifetime. The cross-thread defeat scan
 * makes the pruning report-preserving independent of the static claim:
 * FastTrack never reports same-thread races, and allocate()/
 * deallocate() erase the granules at both interval ends, so the
 * removed events can neither produce nor mask any race.
 */
void applyStaticPrefilter(
    std::vector<replay::ReconstructedAccess> &accesses,
    const analysis::ProgramAnalysis *analysis, bool enabled,
    PrefilterStats &stats, const trace::RunTrace *run = nullptr);

} // namespace detail

} // namespace prorace::core

#endif // PRORACE_CORE_OFFLINE_HH
