/**
 * @file
 * Ablation study of the pipeline's design choices (not a paper figure;
 * DESIGN.md §5-6 call these out):
 *
 *  1. PT timing-packet density vs sample-alignment quality: sparser TSC
 *     packets shrink the trace but widen the timing brackets the
 *     aligner must disambiguate.
 *  2. Backward-replay rounds: forward-only vs one vs three
 *     forward/backward fixed-point rounds (recovery ratio).
 *  3. The ProRace driver's randomized first sampling window: with a
 *     fixed first window every trace of a deterministic program samples
 *     the same instructions, collapsing detection diversity.
 */

#include <cstdio>
#include <set>

#include "bench_util.hh"
#include "core/pipeline.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "workload/racybugs.hh"

using namespace prorace;

int
main(int argc, char **argv)
{
    bench::JsonReporter json(argc, argv);
    bench::banner("Ablation (not in the paper)",
                  "Design-choice ablations: PT timing density, backward "
                  "rounds, randomized first window.");
    workload::Workload w =
        workload::makeRacyBug("cherokee-0.9.2", bench::envScale());

    // --- 1. TSC packet density vs alignment ---
    std::printf("1. PT TSC-packet period vs alignment (PEBS period "
                "2000):\n%12s %12s %12s %14s\n", "tsc-period",
                "pt-bytes", "matched", "unmatched");
    for (uint32_t tsc_period : {8u, 32u, 128u, 512u}) {
        core::PipelineConfig cfg =
            core::proRaceConfig(2000, 7, w.pt_filter);
        cfg.session.tracing.pt.tsc_packet_period = tsc_period;
        auto online =
            core::Session::run(*w.program, w.setup, cfg.session);
        auto paths =
            pmu::decodePt(*w.program, online.trace.meta.pt_filter,
                          online.trace);
        replay::AlignStats stats;
        replay::alignTrace(*w.program, paths, online.trace, &stats);
        std::printf("%12u %12llu %12llu %14llu\n", tsc_period,
                    static_cast<unsigned long long>(
                        online.trace.meta.pt_bytes),
                    static_cast<unsigned long long>(
                        stats.samples_matched),
                    static_cast<unsigned long long>(
                        stats.samples_unmatched));
        json.record("ablation_tsc_density",
                    {{"tsc_period", std::to_string(tsc_period)}},
                    {{"pt_bytes", static_cast<double>(
                          online.trace.meta.pt_bytes)},
                     {"matched", static_cast<double>(
                          stats.samples_matched)},
                     {"unmatched", static_cast<double>(
                          stats.samples_unmatched)}});
    }

    // --- 2. Backward-replay rounds ---
    std::printf("\n2. Fixed-point rounds vs recovery (PEBS period "
                "2000):\n%12s %14s %14s\n", "rounds", "recovered",
                "ratio");
    {
        core::PipelineConfig cfg =
            core::proRaceConfig(2000, 7, w.pt_filter);
        auto online =
            core::Session::run(*w.program, w.setup, cfg.session);
        auto paths =
            pmu::decodePt(*w.program, online.trace.meta.pt_filter,
                          online.trace);
        auto aligns =
            replay::alignTrace(*w.program, paths, online.trace);
        for (int rounds : {0, 1, 3}) {
            replay::ReplayConfig rcfg;
            rcfg.mode = rounds == 0
                ? replay::ReplayMode::kForwardOnly
                : replay::ReplayMode::kForwardBackward;
            rcfg.max_backward_rounds = rounds;
            replay::Replayer rep(*w.program, rcfg);
            rep.replayAll(paths, aligns, online.trace);
            std::printf("%12d %14llu %13.1fx\n", rounds,
                        static_cast<unsigned long long>(
                            rep.stats().totalAccesses()),
                        rep.stats().recoveryRatio());
            json.record("ablation_backward_rounds",
                        {{"rounds", std::to_string(rounds)}},
                        {{"recovered", static_cast<double>(
                              rep.stats().totalAccesses())},
                         {"ratio", rep.stats().recoveryRatio()}});
        }
    }

    // --- 3. Randomized first window ---
    std::printf("\n3. First-window randomization vs sampling diversity "
                "(6 traces, PEBS period 997):\n");
    for (bool randomize : {false, true}) {
        std::set<uint32_t> first_insns;
        for (uint64_t t = 1; t <= 6; ++t) {
            // Same program input and schedule seed for every trace:
            // only the driver's arming policy differs.
            core::PipelineConfig cfg =
                core::proRaceConfig(997, 55, w.pt_filter);
            cfg.session.tracing.seed = 100 + t;
            if (!randomize) {
                // The vanilla driver arms the full period every time.
                cfg.session.tracing.driver = driver::DriverKind::kVanilla;
            }
            auto online =
                core::Session::run(*w.program, w.setup, cfg.session);
            if (!online.trace.pebs.empty())
                first_insns.insert(online.trace.pebs.front().insn_index);
        }
        std::printf("  %-28s distinct first-sample sites: %zu/6\n",
                    randomize ? "randomized (ProRace driver)"
                              : "fixed (vanilla driver)",
                    first_insns.size());
        json.record("ablation_first_window",
                    {{"randomized", randomize ? "yes" : "no"}},
                    {{"distinct_sites",
                      static_cast<double>(first_insns.size())}});
    }
    std::printf("\nThe randomized window is the paper's §4.1.2 third "
                "driver change; diversity across traces is what makes "
                "repeated production runs accumulate coverage.\n");
    return 0;
}
