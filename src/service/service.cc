#include "service/service.hh"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "support/log.hh"

namespace prorace::service {

namespace {

/** Thrown by the deadline tick; caught by the supervision loop. */
struct DeadlineExceeded : std::runtime_error {
    DeadlineExceeded() : std::runtime_error("session deadline exceeded")
    {
    }
};

/** Each retry waits this many times longer than the one before. */
constexpr double kBackoffMultiplier = 2.0;

} // namespace

AnalysisService::AnalysisService(const ServiceOptions &options)
    : options_(options)
{
    // The whole point of the service tier is bounded-memory streaming
    // detection; the one-shot detector is not an option here.
    options_.offline.incremental.enabled = true;

    if (!options_.state_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options_.state_dir, ec);
        if (ec) {
            warn("service: cannot create state dir '", options_.state_dir,
                 "': ", ec.message(), "; running without durability");
            options_.state_dir.clear();
        }
    }
    if (!options_.state_dir.empty()) {
        journal_ = std::make_unique<support::Journal>();
        std::string error;
        const bool ok = journal_->open(
            options_.state_dir + "/reports.jrnl",
            [this](const support::JournalRecord &record) {
                if (record.type == kReportIngestRecord &&
                    store_.applyIngestRecord(record.payload))
                    ++recovered_reports_;
            },
            &error);
        if (!ok) {
            warn("service: journal open failed: ", error,
                 "; running without durability");
            journal_.reset();
        } else {
            store_.bindJournal(journal_.get());
            // Resume sequence numbering above everything recovered so
            // first/last-seen ordering stays monotone across restarts.
            completion_sequence_ = store_.maxSequence();
        }
    }

    executor_ = std::make_unique<exec::Executor>(options_.num_workers);
}

AnalysisService::~AnalysisService()
{
    shutdown();
}

void
AnalysisService::registerProgram(
    const std::string &program_id,
    std::shared_ptr<const asmkit::Program> program)
{
    std::lock_guard<std::mutex> lock(mu_);
    programs_[program_id] = std::move(program);
}

uint64_t
AnalysisService::openSession(const std::string &tenant,
                             const std::string &program_id)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (shut_down_)
        return 0;
    if (quarantined_tenants_.count(tenant)) {
        ++quarantine_rejected_opens_;
        return 0;
    }
    auto pit = programs_.find(program_id);
    if (pit == programs_.end()) {
        warn("service: open of unregistered program '", program_id, "'");
        return 0;
    }

    // Session-slot backpressure: a saturated pool delays completions,
    // completions release slots, so producers block (or shed) here.
    auto slot_free = [&] {
        return active_per_tenant_[tenant] < options_.session_slots;
    };
    if (!slot_free()) {
        if (options_.shed_on_full) {
            ++sessions_shed_;
            return 0;
        }
        ++open_stalls_;
        slot_cv_.wait(lock, [&] {
            return shut_down_ || slot_free() ||
                quarantined_tenants_.count(tenant) != 0;
        });
        if (shut_down_)
            return 0;
        if (quarantined_tenants_.count(tenant)) {
            ++quarantine_rejected_opens_;
            return 0;
        }
    }

    const uint64_t id = next_session_id_++;
    auto session = std::make_shared<SessionState>();
    session->id = id;
    session->tenant = tenant;
    session->program_id = program_id;
    session->program = pit->second;
    session->reader = trace::TraceReader(
        tenant + "/session-" + std::to_string(id));
    session->opened = std::chrono::steady_clock::now();
    sessions_[id] = session;
    ++active_per_tenant_[tenant];
    ++active_sessions_;
    peak_active_sessions_ =
        std::max(peak_active_sessions_, active_sessions_);
    ++tenant_stats_[tenant].sessions_opened;
    return id;
}

bool
AnalysisService::submit(uint64_t session_id, const uint8_t *data,
                        size_t size)
{
    std::shared_ptr<SessionState> session;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sessions_.find(session_id);
        if (shut_down_ || it == sessions_.end())
            return false;
        session = it->second;
    }
    // The producer parses its own bytes under its session's lock only,
    // so one tenant's stream never waits behind another's parse.
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->closed)
        return false;
    trace::TraceReader &reader = session->reader;
    const size_t before = reader.bytesBuffered();
    reader.feed(data, size);
    const size_t fed = reader.bytesBuffered();
    trackUnparsed(before, fed);
    reader.poll();
    trackUnparsed(fed, reader.bytesBuffered());
    return true;
}

void
AnalysisService::closeSession(uint64_t session_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (shut_down_ || it == sessions_.end())
        return;
    std::shared_ptr<SessionState> session = std::move(it->second);
    sessions_.erase(it);
    endIntakeLocked(*session);
    ++closed_pending_;
    // Dispatched under mu_: shutdown() sets shut_down_ under mu_ before
    // it retires the executor.
    executor_->submit([this, session] { analyzeSession(session); });
}

void
AnalysisService::endIntakeLocked(SessionState &session)
{
    // Waits out a submit still parsing on another thread; after this,
    // submits of the session return false without touching the reader.
    std::lock_guard<std::mutex> lock(session.mu);
    session.closed = true;
    trackUnparsed(session.reader.bytesBuffered(), 0);
}

void
AnalysisService::trackUnparsed(uint64_t before, uint64_t after)
{
    // Unsigned wrap-around turns a shrinking tail into a subtraction;
    // every session adds its bytes before it releases them, so the
    // running total never goes below zero.
    const uint64_t delta = after - before;
    const uint64_t now = unparsed_bytes_.fetch_add(delta) + delta;
    uint64_t peak = peak_unparsed_bytes_.load();
    while (now > peak &&
           !peak_unparsed_bytes_.compare_exchange_weak(peak, now)) {
    }
}

void
AnalysisService::analyzeSession(std::shared_ptr<SessionState> session)
{
    SessionOutcome outcome;
    outcome.session_id = session->id;
    outcome.tenant = session->tenant;
    outcome.program_id = session->program_id;

    auto finished = session->reader.finish();
    if (!finished.ok()) {
        // Hard trace errors are deterministic properties of the bytes:
        // a retry re-parses the same stream and fails identically, so
        // fail fast — no retry, no quarantine strike.
        outcome.ok = false;
        outcome.error = finished.error().format();
        completeSession(session, std::move(outcome));
        return;
    }

    trace::LoadedTrace &loaded = finished.value();
    outcome.loss = loaded.loss;
    outcome.compression = loaded.trace.meta.compression;
    core::OfflineOptions opts = options_.offline;
    // Sessions run their replay tasks on the worker's own thread: the
    // service already parallelises across sessions on its own pool, and
    // executors must not nest there.
    opts.num_threads = 0;
    // The service owns the tick: it is the session deadline, if any.
    opts.checkpoint = core::CheckpointHooks{};

    const SupervisionPolicy &sup = options_.supervision;
    double backoff = sup.backoff_initial_seconds;
    std::string last_error;

    for (unsigned attempt = 0;; ++attempt) {
        outcome.attempts = attempt + 1;
        try {
            if (options_.analysis_fault_injector)
                options_.analysis_fault_injector(session->tenant,
                                                 session->id, attempt);

            // Each attempt gets the whole deadline, from event zero.
            const auto deadline_start = std::chrono::steady_clock::now();
            if (sup.session_deadline_seconds > 0) {
                const double limit = sup.session_deadline_seconds;
                opts.checkpoint.tick = [deadline_start, limit] {
                    const double elapsed =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            deadline_start)
                            .count();
                    if (elapsed > limit)
                        throw DeadlineExceeded();
                };
            }

            core::OfflineAnalyzer analyzer(*session->program, opts);
            core::OfflineResult result = analyzer.analyze(loaded);
            outcome.ok = true;
            outcome.report = std::move(result.report);
            outcome.detect_stats = result.detect_stats;
            outcome.incremental = result.incremental;
            outcome.prefilter = result.prefilter;
            outcome.quarantine = result.quarantine;
            outcome.extended_trace_events = result.extended_trace_events;
            break;
        } catch (const DeadlineExceeded &e) {
            ++outcome.deadline_timeouts;
            last_error = e.what();
        } catch (const std::exception &e) {
            last_error = e.what();
        }

        if (attempt >= sup.max_retries) {
            // Retries exhausted: quarantine the session. It completes
            // as failed — releasing its slot so the tenant's other
            // work (and everyone else's) keeps flowing — and strikes
            // its tenant.
            outcome.ok = false;
            outcome.quarantined = true;
            outcome.error = "quarantined after " +
                std::to_string(outcome.attempts) +
                " attempts: " + last_error;
            warn("service: session ", session->id, " (", session->tenant,
                 ") quarantined: ", last_error);
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff));
        backoff *= kBackoffMultiplier;
    }
    completeSession(session, std::move(outcome));
}

void
AnalysisService::completeSession(
    const std::shared_ptr<SessionState> &session, SessionOutcome outcome)
{
    std::lock_guard<std::mutex> lock(mu_);
    outcome.sequence = ++completion_sequence_;
    outcome.ingest_to_report_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      session->opened)
            .count();

    // The store lock nests inside mu_ (never the other way around), so
    // folding here keeps sequence numbers and store content consistent.
    if (outcome.ok) {
        store_.ingest(outcome.tenant, outcome.program_id, outcome.report,
                      outcome.sequence);
    }

    TenantServiceStats &ts = tenant_stats_[outcome.tenant];
    if (outcome.ok)
        ++ts.sessions_completed;
    else
        ++ts.sessions_failed;
    ts.extended_trace_events += outcome.extended_trace_events;
    ts.detect.merge(outcome.detect_stats);
    ts.compression.merge(outcome.compression);
    ts.incremental.merge(outcome.incremental);
    ts.prefilter.merge(outcome.prefilter);
    ts.quarantine.merge(outcome.quarantine);
    ts.segments_dropped += outcome.loss.segments_dropped;
    ts.sync_dropped += outcome.loss.sync_dropped;
    ts.segments_seen += outcome.loss.segments_seen;
    ts.bytes_skipped += outcome.loss.bytes_skipped;
    ts.pebs_dropped += outcome.loss.pebs_dropped;
    ts.pt_streams_dropped += outcome.loss.pt_streams_dropped;
    ts.pt_streams_damaged += outcome.loss.pt_streams_damaged;
    if (outcome.loss.truncated)
        ++ts.truncated_streams;
    ts.analysis_retries += outcome.attempts - 1;
    ts.deadline_timeouts += outcome.deadline_timeouts;
    if (outcome.quarantined) {
        ++ts.sessions_quarantined;
        const unsigned strikes =
            options_.supervision.tenant_quarantine_strikes;
        if (strikes > 0 && ts.sessions_quarantined >= strikes &&
            !ts.quarantined) {
            ts.quarantined = true;
            quarantined_tenants_.insert(outcome.tenant);
            warn("service: tenant '", outcome.tenant,
                 "' quarantined after ", ts.sessions_quarantined,
                 " poisoned sessions");
            abortTenantSessionsLocked(outcome.tenant);
        }
    }
    ts.latency_seconds.add(outcome.ingest_to_report_seconds);
    latencies_.push_back(outcome.ingest_to_report_seconds);
    outcomes_.push_back(std::move(outcome));

    auto it = active_per_tenant_.find(session->tenant);
    if (it != active_per_tenant_.end() && it->second > 0)
        --it->second;
    --active_sessions_;
    --closed_pending_;
    slot_cv_.notify_all();
    drain_cv_.notify_all();
}

void
AnalysisService::abortTenantSessionsLocked(const std::string &tenant)
{
    // Drop the tenant's still-streaming sessions; closed ones already
    // left sessions_ and run to completion, so drain accounting stays
    // exact. Slots free here so a quarantine can never wedge
    // openSession waiters.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        SessionState &s = *it->second;
        if (s.tenant != tenant) {
            ++it;
            continue;
        }
        endIntakeLocked(s);
        it = sessions_.erase(it);
        ++quarantine_aborted_sessions_;
        auto ait = active_per_tenant_.find(tenant);
        if (ait != active_per_tenant_.end() && ait->second > 0)
            --ait->second;
        --active_sessions_;
    }
    slot_cv_.notify_all();
    drain_cv_.notify_all();
}

void
AnalysisService::drain()
{
    // Waits for closed sessions only: a producer that opened a session
    // and is still streaming does not block other tenants' drains.
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return closed_pending_ == 0; });
}

void
AnalysisService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shut_down_)
            return;
        shut_down_ = true;
        slot_cv_.notify_all();
    }
    // Sessions never closed by their producer can't complete; wait only
    // for the analyses closeSession dispatched.
    executor_.reset(); // waits for in-flight tasks
    // Journal closes after the last completion folded in: close()
    // syncs, so a clean shutdown loses nothing.
    if (journal_)
        journal_->close();
}

bool
AnalysisService::tenantQuarantined(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_tenants_.count(tenant) != 0;
}

void
AnalysisService::syncJournal()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (journal_)
        journal_->sync();
}

std::map<std::string, TenantServiceStats>
AnalysisService::tenantStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return tenant_stats_;
}

ServiceStats
AnalysisService::stats() const
{
    ServiceStats stats;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[tenant, ts] : tenant_stats_)
            stats.rollup.merge(ts);
        stats.sessions_shed = sessions_shed_;
        stats.open_stalls = open_stalls_;
        stats.peak_active_sessions = peak_active_sessions_;
        stats.durable = journal_ != nullptr;
        stats.recovered_reports = recovered_reports_;
        stats.tenants_quarantined = quarantined_tenants_.size();
        stats.quarantine_rejected_opens = quarantine_rejected_opens_;
        stats.quarantine_aborted_sessions = quarantine_aborted_sessions_;
        if (journal_)
            stats.journal = journal_->stats();
    }
    stats.distinct_races = store_.distinctRaces();
    stats.report_observations = store_.totalObservations();
    stats.ingest.peak_buffered_bytes = peak_unparsed_bytes_.load();
    if (executor_)
        stats.executor = executor_->stats();
    return stats;
}

std::vector<SessionOutcome>
AnalysisService::outcomes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return outcomes_;
}

std::vector<double>
AnalysisService::latencies() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latencies_;
}

} // namespace prorace::service
