/**
 * @file
 * The long-running multi-tenant analysis service.
 *
 * ProRace's deployment model keeps production machines cheap and moves
 * the heavyweight analysis to dedicated machines; this is that backend
 * tier as one process. Producers open *sessions* (one recorded run
 * each), stream trace-file bytes (trace/trace_file.hh) in chunks, and
 * close. submit() feeds each chunk to the session's own
 * trace::TraceReader cursor and parses every segment the chunk
 * completes, on the producer's thread under the session's lock: a
 * producer pays for parsing its own bytes, and no tenant's stream waits
 * behind another's. closeSession() hands the ingested trace to the
 * offline pipeline on the service's executor, with streaming detection
 * (detect::FastTrack with epoch GC) so detector memory stays bounded on
 * long traces. Finished reports fold into the cross-tenant ReportStore.
 *
 * Session slots bound resident memory regardless of producer count or
 * stream length (DESIGN.md §13.1): a tenant may have at most
 * session_slots sessions resident (ingesting or awaiting/under
 * analysis), and an ingesting session holds no raw bytes beyond its
 * reader's unparsed tail. A saturated analysis pool delays
 * completions, which exhausts slots, which stalls (or sheds) producers
 * at openSession — backpressure propagates from the pool to the fleet
 * instead of accumulating unbounded parsed traces.
 *
 * Every per-session OfflineResult's counters are aggregated per tenant
 * and service-wide (the --stats rollup), not just kept from the last
 * run.
 *
 * With a state_dir configured the report store rides a write-ahead
 * journal (support/journal.hh) and recovers byte-identically on
 * restart (DESIGN.md §15). With or without one, a SupervisionPolicy
 * retries faulting analyses with exponential backoff before
 * quarantining the session — and eventually the tenant — so a poisoned
 * producer degrades into a statistic instead of an outage. A session's
 * analysis keeps no state on disk: a re-streamed or retried session
 * runs again from event zero and reports the same races.
 */

#ifndef PRORACE_SERVICE_SERVICE_HH
#define PRORACE_SERVICE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "asmkit/program.hh"
#include "core/offline.hh"
#include "exec/executor.hh"
#include "service/report_store.hh"
#include "support/stats.hh"
#include "trace/trace_file.hh"

namespace prorace::service {

/**
 * Self-healing policy: what the service does when a session's analysis
 * misbehaves (throws, or overruns its deadline). Failed attempts are
 * retried with exponential backoff; a session that exhausts its retries
 * is *quarantined* — it completes as failed, releases its slot, and
 * counts a strike against its tenant. A tenant collecting
 * tenant_quarantine_strikes quarantined sessions is itself quarantined:
 * its open sessions are aborted and further opens are rejected, so one
 * poisoned producer cannot take the pool down or starve the fleet.
 *
 * Hard trace errors (uninterpretable stream) are NOT retried: the input
 * is deterministic, so a retry would re-fail identically.
 */
struct SupervisionPolicy {
    /**
     * Per-attempt analysis deadline in seconds; 0 disables. Enforced
     * cooperatively by the deadline tick (core::CheckpointHooks), after
     * every replay task and at every streaming-detection batch
     * boundary. Every attempt starts again from event zero with the
     * whole deadline.
     */
    double session_deadline_seconds = 0;
    /** Analysis attempts after the first before quarantining. */
    unsigned max_retries = 2;
    /** Sleep before the first retry; doubles per retry. */
    double backoff_initial_seconds = 0.05;
    /**
     * Quarantined sessions before the whole tenant is quarantined;
     * 0 = never quarantine tenants.
     */
    unsigned tenant_quarantine_strikes = 3;
};

/** Service configuration. */
struct ServiceOptions {
    /** Analysis pool size (executor threads). */
    unsigned num_workers = 2;
    /** Concurrent resident sessions allowed per tenant. */
    unsigned session_slots = 2;
    /** Out of session slots: true = openSession sheds, false = waits. */
    bool shed_on_full = false;
    /**
     * Offline-pipeline configuration applied to every session.
     * incremental.enabled is forced on, and num_threads to 0: sessions
     * already run in parallel on the service pool, so each session's
     * replay tasks run on its worker thread, with the same window
     * quarantine as at any other num_threads. enable_gc is cleared per
     * session when that session's sync stream arrived damaged (the GC
     * soundness gate of OfflineAnalyzer::analyze(const LoadedTrace &)).
     * Each session decodes with the PT filter its own trace records,
     * so one service analyzes programs traced under different filters.
     */
    core::OfflineOptions offline;
    /**
     * Durable-state directory; empty = fully in-memory. When set, the
     * report store is backed by a write-ahead journal at
     * <state_dir>/reports.jrnl (the only file the service writes
     * there): restart replays it and recovers the store
     * byte-identically up to the last synced record.
     */
    std::string state_dir;
    SupervisionPolicy supervision;
    /**
     * Test hook: called at the start of every analysis attempt
     * (tenant, session id, attempt index). May throw to simulate an
     * analysis crash; the supervision machinery treats it exactly like
     * a real fault. Null in production.
     */
    std::function<void(const std::string &tenant, uint64_t session_id,
                       unsigned attempt)>
        analysis_fault_injector;
};

/** What one completed session produced. */
struct SessionOutcome {
    uint64_t session_id = 0;
    uint64_t sequence = 0; ///< completion order (ReportStore timeline)
    std::string tenant;
    std::string program_id;
    bool ok = false;
    std::string error; ///< TraceError message when !ok
    detect::RaceReport report;
    trace::SegmentLoss loss;
    /** v5 columnar compression counters of the streamed trace. */
    trace::CompressionStats compression;
    detect::FastTrackStats detect_stats;
    detect::IncrementalStats incremental;
    core::PrefilterStats prefilter;
    core::QuarantineStats quarantine;
    uint64_t extended_trace_events = 0;
    double ingest_to_report_seconds = 0; ///< openSession -> store fold
    /** Supervision: how many analysis attempts this session took. */
    unsigned attempts = 1;
    /** Attempts aborted by the per-session deadline. */
    uint64_t deadline_timeouts = 0;
    /** Session quarantined (retries exhausted); implies !ok. */
    bool quarantined = false;
};

/** Aggregated analysis counters (per tenant, and merged service-wide). */
struct TenantServiceStats {
    uint64_t sessions_opened = 0;
    uint64_t sessions_completed = 0;
    uint64_t sessions_failed = 0; ///< uninterpretable streams
    uint64_t extended_trace_events = 0;
    detect::FastTrackStats detect;
    /** v5 compression counters summed over the tenant's traces. */
    trace::CompressionStats compression;
    detect::IncrementalStats incremental;
    core::PrefilterStats prefilter;
    core::QuarantineStats quarantine;
    uint64_t segments_dropped = 0;
    uint64_t sync_dropped = 0;
    // Full salvage/loss accounting (trace::SegmentLoss rollup): what
    // each tenant's streams lost to damage, surfaced in --stats.
    uint64_t segments_seen = 0;
    uint64_t bytes_skipped = 0;
    uint64_t pebs_dropped = 0;
    uint64_t pt_streams_dropped = 0;
    uint64_t pt_streams_damaged = 0;
    uint64_t truncated_streams = 0;
    // Supervision counters.
    uint64_t sessions_quarantined = 0;
    uint64_t analysis_retries = 0;   ///< extra attempts beyond the first
    uint64_t deadline_timeouts = 0;  ///< attempts killed by the deadline
    bool quarantined = false;        ///< whole tenant quarantined
    RunningStat latency_seconds; ///< ingest-to-report per session

    void
    merge(const TenantServiceStats &other)
    {
        sessions_opened += other.sessions_opened;
        sessions_completed += other.sessions_completed;
        sessions_failed += other.sessions_failed;
        extended_trace_events += other.extended_trace_events;
        detect.merge(other.detect);
        compression.merge(other.compression);
        incremental.merge(other.incremental);
        prefilter.merge(other.prefilter);
        quarantine.merge(other.quarantine);
        segments_dropped += other.segments_dropped;
        sync_dropped += other.sync_dropped;
        segments_seen += other.segments_seen;
        bytes_skipped += other.bytes_skipped;
        pebs_dropped += other.pebs_dropped;
        pt_streams_dropped += other.pt_streams_dropped;
        pt_streams_damaged += other.pt_streams_damaged;
        truncated_streams += other.truncated_streams;
        sessions_quarantined += other.sessions_quarantined;
        analysis_retries += other.analysis_retries;
        deadline_timeouts += other.deadline_timeouts;
        quarantined = quarantined || other.quarantined;
        latency_seconds.merge(other.latency_seconds);
    }
};

/** Ingest accounting. Producers parse their own chunks in submit(). */
struct IngestStats {
    /** High-water mark of unparsed bytes held by session readers. */
    uint64_t peak_buffered_bytes = 0;
};

/** Service-wide snapshot: the rollup plus frontend/pool counters. */
struct ServiceStats {
    TenantServiceStats rollup; ///< every tenant merged
    uint64_t sessions_shed = 0;      ///< openSession rejected (shedding)
    uint64_t open_stalls = 0;        ///< openSession waits for a slot
    uint64_t peak_active_sessions = 0;
    uint64_t distinct_races = 0;     ///< ReportStore dedup size
    uint64_t report_observations = 0;
    // Durability & self-healing (zero / false without a state_dir).
    bool durable = false;            ///< journal open and bound
    uint64_t recovered_reports = 0;  ///< journal records replayed at boot
    uint64_t tenants_quarantined = 0;
    uint64_t quarantine_rejected_opens = 0;
    uint64_t quarantine_aborted_sessions = 0;
    support::JournalStats journal;
    IngestStats ingest;
    exec::ExecutorStats executor;
};

class AnalysisService
{
  public:
    explicit AnalysisService(const ServiceOptions &options = {});

    /** Shuts down (drains outstanding work) if not done explicitly. */
    ~AnalysisService();

    AnalysisService(const AnalysisService &) = delete;
    AnalysisService &operator=(const AnalysisService &) = delete;

    /**
     * Make @p program analyzable under @p program_id. Sessions name the
     * id; the service keeps the binary (analysis machines have the
     * symbolized binaries in the paper's deployment, too).
     */
    void registerProgram(const std::string &program_id,
                         std::shared_ptr<const asmkit::Program> program);

    /**
     * Open a session. Blocks while the tenant is out of session slots
     * (or returns 0 immediately with shed_on_full, and for unknown
     * program ids / after shutdown). Returns the session id.
     */
    uint64_t openSession(const std::string &tenant,
                         const std::string &program_id);

    /**
     * Stream trace bytes into the session and parse every segment they
     * complete, on the caller's thread. Chunking is arbitrary — segment
     * boundaries need not be respected. Returns false, feeding nothing,
     * when the session is unknown, closed or aborted (its tenant was
     * quarantined), or the service is shut down.
     */
    bool submit(uint64_t session_id, const uint8_t *data, size_t size);

    bool
    submit(uint64_t session_id, const std::vector<uint8_t> &bytes)
    {
        return submit(session_id, bytes.data(), bytes.size());
    }

    /**
     * End of stream: later submits fail, and the analysis of everything
     * ingested goes to the executor.
     */
    void closeSession(uint64_t session_id);

    /** Block until every closed session's analysis has completed. */
    void drain();

    /**
     * Stop intake, drain, and join the pool. Idempotent; further
     * opens/submits fail.
     */
    void shutdown();

    const ReportStore &store() const { return store_; }

    /** True when @p tenant has been quarantined (opens rejected). */
    bool tenantQuarantined(const std::string &tenant) const;

    /** Force-sync the report journal (no-op without a state_dir). */
    void syncJournal();

    /** Per-tenant aggregated counters. */
    std::map<std::string, TenantServiceStats> tenantStats() const;

    /** Service-wide rollup. */
    ServiceStats stats() const;

    /** Completed-session records, in completion order. */
    std::vector<SessionOutcome> outcomes() const;

    /** Ingest-to-report latencies (seconds), one per completion. */
    std::vector<double> latencies() const;

  private:
    struct SessionState {
        uint64_t id = 0;
        std::string tenant;
        std::string program_id;
        std::shared_ptr<const asmkit::Program> program;
        std::chrono::steady_clock::time_point opened;
        /** Guards reader and closed while producers submit. */
        std::mutex mu;
        trace::TraceReader reader;
        bool closed = false; ///< intake over; the reader is analysis's
    };

    /** Mark @p session closed to submits. Caller holds mu_. */
    void endIntakeLocked(SessionState &session);
    /** Account a reader's unparsed bytes moving from @p before to @p after. */
    void trackUnparsed(uint64_t before, uint64_t after);
    void analyzeSession(std::shared_ptr<SessionState> session);
    void completeSession(const std::shared_ptr<SessionState> &session,
                         SessionOutcome outcome);
    /** Abort every open (not yet closed) session of @p tenant. */
    void abortTenantSessionsLocked(const std::string &tenant);

    ServiceOptions options_;
    ReportStore store_;
    std::unique_ptr<support::Journal> journal_;
    uint64_t recovered_reports_ = 0;

    mutable std::mutex mu_;
    std::condition_variable slot_cv_;  ///< session slot released
    std::condition_variable drain_cv_; ///< active count hit zero
    std::map<std::string,
             std::shared_ptr<const asmkit::Program>> programs_;
    /** Open sessions; closing or aborting one removes it. */
    std::map<uint64_t, std::shared_ptr<SessionState>> sessions_;
    std::map<std::string, unsigned> active_per_tenant_;
    std::map<std::string, TenantServiceStats> tenant_stats_;
    std::vector<SessionOutcome> outcomes_;
    std::vector<double> latencies_;
    uint64_t next_session_id_ = 1;
    uint64_t completion_sequence_ = 0;
    uint64_t active_sessions_ = 0; ///< opened, analysis not yet folded
    uint64_t closed_pending_ = 0;  ///< closed, analysis not yet folded
    uint64_t peak_active_sessions_ = 0;
    uint64_t sessions_shed_ = 0;
    uint64_t open_stalls_ = 0;
    std::set<std::string> quarantined_tenants_;
    uint64_t quarantine_rejected_opens_ = 0;
    uint64_t quarantine_aborted_sessions_ = 0;
    bool shut_down_ = false;
    /** Unparsed bytes held by open sessions' readers, and its peak. */
    std::atomic<uint64_t> unparsed_bytes_{0};
    std::atomic<uint64_t> peak_unparsed_bytes_{0};

    // Constructed last, destroyed first: the pool references everything
    // above.
    std::unique_ptr<exec::Executor> executor_;
};

} // namespace prorace::service

#endif // PRORACE_SERVICE_SERVICE_HH
