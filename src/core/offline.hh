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
 * Supervision hook into the analysis: the service's deadline tick. The
 * type and its OfflineOptions::checkpoint field keep their names only
 * so prorace_bench/ compiles (it passes &options.checkpoint).
 */
struct CheckpointHooks {
    /**
     * Fired on the calling thread after every decoded PT stream and
     * every aligned thread, after every committed replay task, at
     * every streaming-detection batch boundary, and once after the
     * final event, in every round; the count is the same at every
     * num_threads. May throw to abort the analysis — this is how the
     * service enforces per-session deadlines cooperatively; the
     * exception propagates out of analyze() once no task of the call
     * is running.
     */
    std::function<void()> tick;
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
     * Streaming detection (detect::FastTrack with batch boundaries):
     * process the merged detector feed in batches with epoch-GC of
     * quiescent shadow state between batches, bounding detector memory
     * on long traces.
     * The race report is byte-identical to one-shot detection; only
     * resident state and statistics differ. The analysis service runs
     * every session this way.
     */
    detect::IncrementalOptions incremental;
    /** The deadline tick (service tier). */
    CheckpointHooks checkpoint;

    // --- prorace_bench/ compatibility shims (see the detail:: block
    // below): ignored by the analyzer.
    /** Ignored; kept only so prorace_bench/ compiles. */
    bool run_summary = true;
    /** Ignored; kept only so prorace_bench/ compiles. */
    bool pointsto = true;
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
 * replay pass (regeneration rounds included) of one analyze() call. The
 * analyzer counts committed replay attempts only: a failed attempt,
 * retried per unit, counts once, through its retries.
 */
struct PrefilterStats {
    bool enabled = false;        ///< option on and analysis available
    bool analysis_sound = false; ///< escape-analysis invariants held
    uint64_t sites_total = 0;        ///< static memory-access sites
    uint64_t sites_thread_local = 0; ///< sites proved thread-local
    uint64_t events_seen = 0;   ///< extended-trace events inspected
    uint64_t pruned_stack_implicit = 0; ///< push/pop/call/ret events
    uint64_t pruned_stack_direct = 0;   ///< rsp/rbp-relative accesses
    /** Always 0; kept only so prorace_bench/ compiles. */
    uint64_t pointsto_iterations = 0;

    uint64_t
    pruned() const
    {
        return pruned_stack_implicit + pruned_stack_direct;
    }

    /** Rollup across analyzer instances (service-wide --stats). */
    void
    merge(const PrefilterStats &other)
    {
        enabled = enabled || other.enabled;
        analysis_sound = analysis_sound || other.analysis_sound;
        // Site counts are per-program facts, identical across instances
        // analyzing the same binary: keep the larger, don't sum.
        const auto keep_max = [](uint64_t &a, uint64_t b) {
            a = a > b ? a : b;
        };
        keep_max(sites_total, other.sites_total);
        keep_max(sites_thread_local, other.sites_thread_local);
        events_seen += other.events_seen;
        pruned_stack_implicit += other.pruned_stack_implicit;
        pruned_stack_direct += other.pruned_stack_direct;
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
    /** Reconstructed accesses of the last pass, counted before the
     *  prefilter (Replayer::replayAll's size on the same plan). */
    uint64_t extended_trace_events = 0;
    int regeneration_rounds = 0;

    // Wall-clock cost split of the offline pipeline (paper §7.6).
    double decode_seconds = 0;
    double reconstruct_seconds = 0; ///< alignment + replay + prefilter
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
 * quarantined). Alignment runs one task per thread. Each replay
 * attempt prefilters its own output where it ran, and the commit keeps
 * the survivors in plan order; the detector feed's stable sort is the
 * run's one ordering pass.
 * OfflineOptions::num_threads only picks where the shards and tasks
 * run: on the calling thread at 0, on a per-call N-worker executor at
 * N > 0. Basic-block (RaceZ) mode skips decode and alignment; its plan
 * is sample tasks only. Detection and the deadline tick run on the
 * calling thread (DESIGN.md §8).
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
     * Align every thread of @p paths (replay::alignThread over one
     * shared replay::AlignIndex), one task per thread on @p ex or on
     * the calling thread when it is null; the per-thread counters add
     * up into @p stats.
     */
    Alignments align(const trace::RunTrace &run, const Paths &paths,
                     exec::Executor *ex, replay::AlignStats *stats);

    /** The deadline tick in streaming mode, else an empty function. */
    std::function<void()> deadlineTick() const;

    /**
     * One replay pass with the given blacklist, its tasks on the
     * per-worker replayers of @p ex or on the calling thread's when it
     * is null; returns the prefiltered extended trace in plan order
     * (not sorted by TSC: the detector feed orders it). Sets
     * OfflineResult::extended_trace_events to the accesses the
     * committed attempts produced and adds them, and the pruned ones,
     * to OfflineResult::prefilter.
     */
    std::vector<replay::ReconstructedAccess>
    reconstruct(const trace::RunTrace &run, const Paths &paths,
                const Alignments &alignments,
                const replay::ReplayConfig &replay_config,
                exec::Executor *ex, OfflineResult &result,
                std::unordered_set<uint64_t> &consumed);

    /** One-shot or streaming detection of the prefiltered accesses. */
    void
    detectAccesses(const trace::RunTrace &run, const Alignments &alignments,
                   const detect::IncrementalOptions &incremental,
                   const std::vector<replay::ReconstructedAccess> &accesses,
                   OfflineResult &result);

    const asmkit::Program &program_;
    OfflineOptions options_;
    /** Static facts shared by the aligner, replayer and prefilter. */
    std::unique_ptr<analysis::ProgramAnalysis> analysis_;
    /** The prefilter's per-program fields, counters zero. */
    PrefilterStats prefilter_facts_;
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
 * The detection stage: merge the reconstructed accesses, in any order,
 * and the sync trace into one TSC-ordered feed (with the release <
 * access < acquire tie-break at equal timestamps) and dispatch each
 * event into @p detector exactly once.
 *
 * When the detector's IncrementalOptions::enabled is set, the feed is
 * dispatched in batches of batch_events events with a batchBoundary()
 * (thread retirement + epoch GC) between batches, the @p hooks tick
 * fires after each boundary, and the stream ends with finish(). The
 * caller pre-seeds @p detector with requireThread() for every expected
 * thread. Otherwise the feed runs straight through and @p hooks are
 * ignored. The race report is the same in both modes.
 */
void detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::FastTrack &detector, const CheckpointHooks *hooks = nullptr);

/**
 * The static access prefilter: removes extended-trace events at
 * definitely-thread-local sites and accounts for what was dropped. A
 * no-op (beyond counting events_seen) when @p enabled is false or
 * @p analysis is null.
 */
void applyStaticPrefilter(
    std::vector<replay::ReconstructedAccess> &accesses,
    const analysis::ProgramAnalysis *analysis, bool enabled,
    PrefilterStats &stats);

// --- prorace_bench/ compatibility shims: retire with
// OfflineOptions::run_summary, OfflineOptions::pt_filter,
// OfflineOptions::pointsto, PrefilterStats::pointsto_iterations,
// ProgramAnalysis's bool constructor and
// FastTrackStats::run_iterations_folded.

/** Ignores @p run; kept only so prorace_bench/ compiles. */
inline void
applyStaticPrefilter(std::vector<replay::ReconstructedAccess> &accesses,
                     const analysis::ProgramAnalysis *analysis,
                     bool enabled, PrefilterStats &stats,
                     const trace::RunTrace * /*run*/)
{
    applyStaticPrefilter(accesses, analysis, enabled, stats);
}

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

/**
 * Ignores @p run_summary and the trailing bool (it once gated detector
 * checkpoints); kept only so prorace_bench/ compiles.
 */
inline void
detectRacesIncremental(
    const trace::RunTrace &run,
    const std::map<uint32_t, replay::ThreadAlignment> &alignments,
    const std::vector<replay::ReconstructedAccess> &accesses,
    detect::FastTrack &detector, bool /*run_summary*/,
    const CheckpointHooks *hooks = nullptr, bool /*unused*/ = true)
{
    detectRacesIncremental(run, alignments, accesses, detector, hooks);
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

} // namespace detail

} // namespace prorace::core

#endif // PRORACE_CORE_OFFLINE_HH
