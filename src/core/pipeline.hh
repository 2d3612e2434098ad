/**
 * @file
 * One-call end-to-end pipeline: online tracing followed by offline
 * analysis. This is the API a deployment would script against.
 */

#ifndef PRORACE_CORE_PIPELINE_HH
#define PRORACE_CORE_PIPELINE_HH

#include "core/offline.hh"
#include "core/session.hh"

namespace prorace::core {

/** Full-pipeline configuration. */
struct PipelineConfig {
    SessionOptions session;
    OfflineOptions offline;
};

/** Full-pipeline result. */
struct PipelineResult {
    RunArtifacts online;
    OfflineResult offline;
};

/**
 * Default ProRace configuration: the paper's driver, PT enabled, full
 * forward+backward replay.
 *
 * @param period       PEBS sampling period
 * @param seed         machine + tracing randomness seed
 * @param pt_filter    code regions to trace (defaults to everything);
 *                     the trace records it and analysis decodes with it
 */
PipelineConfig proRaceConfig(uint64_t period, uint64_t seed,
                             const pmu::PtFilter &pt_filter =
                                 pmu::PtFilter::all());

/** Trace and analyze in one call. */
PipelineResult runPipeline(const asmkit::Program &program,
                           const Session::Setup &setup,
                           const PipelineConfig &config);

} // namespace prorace::core

#endif // PRORACE_CORE_PIPELINE_HH
