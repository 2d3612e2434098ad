/**
 * @file
 * Simulated fleet: N producer threads feeding one AnalysisService.
 *
 * Stands in for a production fleet in tests and benchmarks. Each
 * producer is a tenant that records its subject once up front
 * (core::Session), then streams the serialized trace into the service
 * in fixed-size chunks for a number of sessions, closing each so the
 * backend analyzes it. Each producer thread parses its own chunks
 * inside AnalysisService::submit. Recording happens before the clock
 * starts; the measured region is pure service work (parse, replay,
 * detect, fold), which is what fig16 wants to characterize.
 */

#ifndef PRORACE_SERVICE_FLEET_HH
#define PRORACE_SERVICE_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/service.hh"

namespace prorace::service {

/** Fleet shape and per-subject recording knobs. */
struct FleetConfig {
    FleetConfig()
    {
        // Service-tier defaults: smaller batches than the library's so
        // GC boundaries land inside typical sessions, keeping detector
        // residency flat instead of sawtoothing per session.
        service.offline.incremental.batch_events = 2048;
        service.offline.incremental.gc_min_events = 512;
    }

    unsigned producers = 4;            ///< tenants, one thread each
    unsigned sessions_per_producer = 2;
    /** Workload names; producer p streams subjects[p % size]. */
    std::vector<std::string> subjects = {"apache-21287", "pbzip2-0.9.4",
                                         "aget-bug2"};
    double scale = 0.25;   ///< workload scale for the recorded runs
    uint64_t period = 16;  ///< PEBS sampling period
    uint64_t seed = 7;
    size_t chunk_bytes = 4096; ///< producer submission granularity
    /**
     * Extra "poison-N" tenants streaming seeded pseudorandom garbage
     * instead of traces — the chaos ingredient for supervision and
     * quarantine testing. Their sessions fail (hard trace error, or a
     * configured analysis_fault_injector keyed on the tenant prefix);
     * the assertion is that the healthy tenants' sessions all still
     * complete and the service never goes down.
     */
    unsigned poison_producers = 0;
    size_t poison_bytes = 1 << 16; ///< garbage stream length per session
    ServiceOptions service;
};

/** What the fleet run produced, for asserting and reporting. */
struct FleetResult {
    uint64_t sessions_opened = 0;
    uint64_t sessions_rejected = 0; ///< openSession returned 0 (shed)
    uint64_t poison_sessions = 0;   ///< garbage sessions opened
    uint64_t bytes_submitted = 0;
    uint64_t largest_trace_bytes = 0; ///< largest serialized subject
    double wall_seconds = 0; ///< streaming + drain (recording excluded)
    /**
     * Largest shadow table any single session analysis held. Total
     * service residency is bounded by num_workers times this, since
     * only that many analyses coexist.
     */
    uint64_t session_peak_granules = 0;
    ServiceStats stats;
    std::map<std::string, TenantServiceStats> tenants;
    std::vector<double> latencies; ///< per-session ingest-to-report
    std::string report_jsonl;      ///< deduplicated cross-tenant races
};

/**
 * Record each subject once, then run the fleet against a fresh
 * service built from config.service and drain it. Fatal on unknown
 * subject names.
 */
FleetResult runFleet(const FleetConfig &config);

} // namespace prorace::service

#endif // PRORACE_SERVICE_FLEET_HH
