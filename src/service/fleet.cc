#include "service/fleet.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/pipeline.hh"
#include "core/session.hh"
#include "support/log.hh"
#include "trace/trace_file.hh"
#include "workload/registry.hh"

namespace prorace::service {

namespace {

/** One subject, recorded once, streamed many times. */
struct RecordedSubject {
    std::string name;
    std::shared_ptr<const asmkit::Program> program;
    std::vector<uint8_t> bytes; ///< serialized trace, filter included
};

RecordedSubject
recordSubject(const std::string &name, const FleetConfig &config,
              uint64_t seed)
{
    auto workload = workload::findWorkload(name, config.scale);
    if (!workload)
        PRORACE_FATAL("fleet: unknown workload '", name, "'");
    core::PipelineConfig pipeline =
        core::proRaceConfig(config.period, seed, workload->pt_filter);
    pipeline.session.run_baseline = false; // overhead is not the point
    core::RunArtifacts artifacts = core::Session::run(
        *workload->program, workload->setup, pipeline.session);

    RecordedSubject subject;
    subject.name = name;
    subject.program = workload->program;
    subject.bytes = trace::serializeTrace(artifacts.trace);
    return subject;
}

} // namespace

FleetResult
runFleet(const FleetConfig &config)
{
    if (config.subjects.empty())
        PRORACE_FATAL("fleet: no subjects configured");

    // Phase 1 (untimed): record every subject once.
    std::vector<RecordedSubject> subjects;
    subjects.reserve(config.subjects.size());
    for (size_t i = 0; i < config.subjects.size(); ++i)
        subjects.push_back(recordSubject(config.subjects[i], config,
                                         config.seed + i));

    FleetResult result;
    for (const RecordedSubject &subject : subjects)
        result.largest_trace_bytes = std::max<uint64_t>(
            result.largest_trace_bytes, subject.bytes.size());

    // Phase 2 (timed): producers flood the service.
    AnalysisService service(config.service);
    for (const RecordedSubject &subject : subjects)
        service.registerProgram(subject.name, subject.program);

    std::atomic<uint64_t> opened{0}, rejected{0}, bytes{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    producers.reserve(config.producers);
    for (unsigned p = 0; p < config.producers; ++p) {
        producers.emplace_back([&, p] {
            const RecordedSubject &subject =
                subjects[p % subjects.size()];
            const std::string tenant =
                "tenant-" + std::to_string(p);
            for (unsigned s = 0; s < config.sessions_per_producer;
                 ++s) {
                const uint64_t id =
                    service.openSession(tenant, subject.name);
                if (id == 0) {
                    ++rejected;
                    continue;
                }
                ++opened;
                const std::vector<uint8_t> &stream = subject.bytes;
                for (size_t off = 0; off < stream.size();
                     off += config.chunk_bytes) {
                    const size_t len = std::min(config.chunk_bytes,
                                                stream.size() - off);
                    if (service.submit(id, stream.data() + off, len))
                        bytes += len;
                }
                service.closeSession(id);
            }
        });
    }
    // Poison tenants stream deterministic garbage alongside the real
    // fleet. They reuse a registered program id so the failure happens
    // at ingest/analysis, not at open.
    std::atomic<uint64_t> poison_opened{0};
    std::vector<std::thread> poison;
    poison.reserve(config.poison_producers);
    for (unsigned p = 0; p < config.poison_producers; ++p) {
        poison.emplace_back([&, p] {
            uint64_t rng = config.seed * 0x9e3779b97f4a7c15ull + p + 1;
            const std::string tenant = "poison-" + std::to_string(p);
            std::vector<uint8_t> garbage(config.poison_bytes);
            for (unsigned s = 0; s < config.sessions_per_producer; ++s) {
                const uint64_t id =
                    service.openSession(tenant, subjects[0].name);
                // Rejected poison opens (tenant quarantined) are the
                // system working, not fleet-level shedding: not
                // counted into sessions_rejected.
                if (id == 0)
                    continue;
                ++poison_opened;
                for (uint8_t &b : garbage) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    b = static_cast<uint8_t>(rng);
                }
                for (size_t off = 0; off < garbage.size();
                     off += config.chunk_bytes) {
                    const size_t len = std::min(config.chunk_bytes,
                                                garbage.size() - off);
                    service.submit(id, garbage.data() + off, len);
                }
                service.closeSession(id);
            }
        });
    }

    for (std::thread &producer : producers)
        producer.join();
    for (std::thread &producer : poison)
        producer.join();
    service.drain();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    result.sessions_opened = opened;
    result.sessions_rejected = rejected;
    result.poison_sessions = poison_opened;
    result.bytes_submitted = bytes;
    result.latencies = service.latencies();
    for (const SessionOutcome &outcome : service.outcomes())
        result.session_peak_granules =
            std::max(result.session_peak_granules,
                     outcome.incremental.peak_live_granules);
    result.tenants = service.tenantStats();
    result.report_jsonl = service.store().toJsonl();
    // Snapshot after shutdown, so the journal's close-time sync is
    // counted. Shutdown retires the worker pool; its counters come from
    // the drained service.
    const exec::ExecutorStats executor = service.stats().executor;
    service.shutdown();
    result.stats = service.stats();
    result.stats.executor = executor;
    return result;
}

} // namespace prorace::service
