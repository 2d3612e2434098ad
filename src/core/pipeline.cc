#include "core/pipeline.hh"

namespace prorace::core {

PipelineConfig
proRaceConfig(uint64_t period, uint64_t seed, const pmu::PtFilter &filter)
{
    PipelineConfig cfg;
    cfg.session.machine.seed = seed;
    cfg.session.run_baseline = false;
    cfg.session.tracing.pebs_period = period;
    cfg.session.tracing.driver = driver::DriverKind::kProRace;
    cfg.session.tracing.seed = seed ^ 0x517cc1b727220a95ull;
    cfg.session.tracing.pt.filter = filter;
    cfg.offline.pt_filter = filter;
    cfg.offline.replay.mode = replay::ReplayMode::kForwardBackward;
    return cfg;
}

PipelineResult
runPipeline(const asmkit::Program &program, const Session::Setup &setup,
            const PipelineConfig &config)
{
    PipelineResult result;
    result.online = Session::run(program, setup, config.session);
    OfflineAnalyzer analyzer(program, config.offline);
    result.offline = analyzer.analyze(result.online.trace);
    return result;
}

} // namespace prorace::core
