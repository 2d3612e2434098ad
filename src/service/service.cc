#include "service/service.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "support/crc32.hh"
#include "support/log.hh"

namespace prorace::service {

namespace {

/** Thrown by the deadline tick; caught by the supervision loop. */
struct DeadlineExceeded : std::runtime_error {
    DeadlineExceeded() : std::runtime_error("session deadline exceeded")
    {
    }
};

constexpr uint32_t kCheckpointMagic = 0x4B435250; // "PRCK"
constexpr uint32_t kCheckpointVersion = 1;

/** A detector checkpoint file, parsed. */
struct CheckpointImage {
    uint64_t feed_cursor = 0;
    uint64_t feed_total = 0;
    std::vector<uint8_t> detector;
};

/**
 * Checkpoint file layout: magic, version, the stream identity it was
 * taken under (tenant, program, stream bytes + CRC), the feed cursor,
 * and the serialized detector, with a trailing CRC-32 over everything
 * before it. Written to a temp file and renamed into place, so a crash
 * mid-write leaves either the old checkpoint or none — never a torn
 * one (the trailing CRC catches torn temp files that got renamed by a
 * dying filesystem anyway).
 */
bool
writeCheckpointFile(const std::string &path, const std::string &tenant,
                    const std::string &program_id, uint64_t stream_bytes,
                    uint32_t stream_crc, uint64_t feed_cursor,
                    uint64_t feed_total,
                    const std::vector<uint8_t> &detector)
{
    support::ByteWriter w;
    w.u32(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.str(tenant);
    w.str(program_id);
    w.u64(stream_bytes);
    w.u32(stream_crc);
    w.u64(feed_cursor);
    w.u64(feed_total);
    w.blob(detector);
    const uint32_t crc =
        crc32(w.bytes().data(), w.bytes().size());
    w.u32(crc);

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char *>(w.bytes().data()),
                  static_cast<std::streamsize>(w.bytes().size()));
        if (!out)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/**
 * Load and validate a checkpoint against the expected stream identity.
 * Any mismatch or damage means "no checkpoint" — the analysis cold-
 * starts, which is always correct.
 */
bool
loadCheckpointFile(const std::string &path, const std::string &tenant,
                   const std::string &program_id, uint64_t stream_bytes,
                   uint32_t stream_crc, CheckpointImage &image)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (bytes.size() < 4)
        return false;
    const size_t body = bytes.size() - 4;
    uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i)
        stored_crc |= static_cast<uint32_t>(bytes[body + i]) << (8 * i);
    if (crc32(bytes.data(), body) != stored_crc)
        return false;
    support::ByteReader r(bytes.data(), body);
    if (r.u32() != kCheckpointMagic || r.u32() != kCheckpointVersion)
        return false;
    if (r.str() != tenant || r.str() != program_id)
        return false;
    if (r.u64() != stream_bytes || r.u32() != stream_crc)
        return false;
    image.feed_cursor = r.u64();
    image.feed_total = r.u64();
    image.detector = r.blob();
    return r.ok();
}

} // namespace

AnalysisService::AnalysisService(const ServiceOptions &options)
    : options_(options), queue_(options.ingest)
{
    // The whole point of the service tier is bounded-memory streaming
    // detection; the one-shot detector is not an option here.
    options_.offline.incremental.enabled = true;

    if (!options_.state_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(
            options_.state_dir + "/checkpoints", ec);
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
            options_.state_dir + "/reports.jrnl", options_.journal,
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
    pump_ = std::thread([this] { pumpLoop(); });
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
        if (options_.ingest.shed_on_full) {
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
    IngestQueue::Chunk chunk;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sessions_.find(session_id);
        if (it == sessions_.end() || it->second->close_submitted)
            return false;
        chunk.tenant = it->second->tenant;
    }
    chunk.session = session_id;
    chunk.bytes.assign(data, data + size);
    // push() may block for credit; never under mu_.
    return queue_.push(std::move(chunk)) ==
        IngestQueue::PushResult::kAccepted;
}

void
AnalysisService::closeSession(uint64_t session_id)
{
    IngestQueue::Chunk chunk;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sessions_.find(session_id);
        if (it == sessions_.end() || it->second->close_submitted)
            return;
        it->second->close_submitted = true;
        chunk.tenant = it->second->tenant;
        ++closed_pending_;
    }
    chunk.session = session_id;
    chunk.close = true;
    queue_.push(std::move(chunk));
}

void
AnalysisService::pumpLoop()
{
    IngestQueue::Chunk chunk;
    while (queue_.pop(chunk)) {
        std::shared_ptr<SessionState> session;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = sessions_.find(chunk.session);
            if (it != sessions_.end())
                session = it->second;
        }
        if (!session) {
            // Session already dispatched (late chunk); just return the
            // credit so the producer is not charged for a lost chunk.
            if (!chunk.bytes.empty())
                queue_.credit(chunk.tenant, chunk.bytes.size());
            continue;
        }
        if (!chunk.close) {
            session->reader.feed(chunk.bytes);
            session->reader.poll();
            queue_.credit(chunk.tenant, chunk.bytes.size());
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            sessions_.erase(chunk.session);
        }
        executor_->submit(
            [this, session] { analyzeSession(session); });
    }
}

std::string
AnalysisService::checkpointPath(const std::string &tenant,
                                const std::string &program_id,
                                uint64_t stream_bytes,
                                uint32_t stream_crc) const
{
    if (options_.state_dir.empty())
        return {};
    // FNV-1a over the full stream identity; the stream CRC+length make
    // accidental collisions across different byte streams irrelevant.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *data, size_t size) {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    mix(tenant.data(), tenant.size());
    mix("\0", 1);
    mix(program_id.data(), program_id.size());
    mix(&stream_bytes, sizeof(stream_bytes));
    mix(&stream_crc, sizeof(stream_crc));
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.ckpt",
                  static_cast<unsigned long long>(h));
    return options_.state_dir + "/checkpoints/" + name;
}

void
AnalysisService::analyzeSession(std::shared_ptr<SessionState> session)
{
    SessionOutcome outcome;
    outcome.session_id = session->id;
    outcome.tenant = session->tenant;
    outcome.program_id = session->program_id;

    // Stream identity for checkpoint matching; finish() below does not
    // change what feed() already accumulated.
    const uint64_t stream_bytes = session->reader.streamBytes();
    const uint32_t stream_crc = session->reader.streamCrc();

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
    // Sessions run serially: the service already parallelises across
    // sessions on its own pool, and executors must not nest there.
    opts.num_threads = 0;
    // GC soundness gate: a lossy sync stream may hide fork edges,
    // so this session runs batched but unswept (still identical).
    if (loaded.loss.sync_dropped > 0)
        opts.incremental.enable_gc = false;

    const std::string ckpt_path = checkpointPath(
        session->tenant, session->program_id, stream_bytes, stream_crc);
    const SupervisionPolicy &sup = options_.supervision;
    double backoff = sup.backoff_initial_seconds;
    std::string last_error;

    for (unsigned attempt = 0;; ++attempt) {
        outcome.attempts = attempt + 1;
        try {
            if (options_.analysis_fault_injector)
                options_.analysis_fault_injector(session->tenant,
                                                 session->id, attempt);

            // Fresh hooks per attempt: the previous attempt's lambdas
            // captured locals that are gone.
            opts.checkpoint = core::CheckpointHooks{};
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

            CheckpointImage image;
            bool resumed = false;
            uint64_t checkpoints_written = 0;
            if (!ckpt_path.empty()) {
                if (loadCheckpointFile(ckpt_path, session->tenant,
                                       session->program_id, stream_bytes,
                                       stream_crc, image)) {
                    opts.checkpoint.restore = &image.detector;
                    opts.checkpoint.resume_events = image.feed_cursor;
                    opts.checkpoint.resume_feed_total = image.feed_total;
                    opts.checkpoint.resumed = &resumed;
                }
                opts.checkpoint.on_boundary =
                    [&](uint64_t cursor, uint64_t total,
                        detect::FastTrack &detector) {
                        support::ByteWriter w;
                        detector.serializeState(w);
                        if (writeCheckpointFile(
                                ckpt_path, session->tenant,
                                session->program_id, stream_bytes,
                                stream_crc, cursor, total, w.bytes()))
                            ++checkpoints_written;
                    };
            }

            core::OfflineAnalyzer analyzer(*session->program, opts);
            core::OfflineResult result = analyzer.analyze(loaded.trace);
            outcome.ok = true;
            outcome.warm_started = resumed;
            outcome.checkpoints_written = checkpoints_written;
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
        backoff *= sup.backoff_multiplier;
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
    if (outcome.warm_started)
        ++ts.warm_starts;
    ts.checkpoints_written += outcome.checkpoints_written;
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
    // Drop the tenant's still-streaming sessions. Sessions whose close
    // is already in flight keep their closed_pending_ accounting and
    // run to completion; in-flight chunks of the dropped ones hit the
    // pump's late-chunk path, which refunds their credits. Slots free
    // here so a quarantine can never wedge openSession waiters.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        const SessionState &s = *it->second;
        if (s.tenant != tenant || s.close_submitted) {
            ++it;
            continue;
        }
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
    queue_.close();
    if (pump_.joinable())
        pump_.join();
    // Sessions never closed by their producer can't complete; wait only
    // for the analyses the pump actually dispatched.
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
    stats.ingest = queue_.stats();
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
