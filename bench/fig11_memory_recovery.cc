/**
 * @file
 * Regenerates Figure 11: memory-instruction recovery ratio (recovered +
 * sampled accesses per PEBS sample) for the six buggy applications at
 * sampling period 10000, comparing three reconstruction scopes:
 *
 *   basic-block          RaceZ's single-basic-block replay
 *   forward              PT-guided forward replay
 *   forward+backward     full ProRace
 *
 * Paper reference: basic-block averages 5.4x (apache 9.53x, mysql
 * 1.6x); forward 34x; forward+backward 64x.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/pipeline.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "support/stats.hh"
#include "workload/racybugs.hh"

int
main(int argc, char **argv)
{
    using namespace prorace;
    bench::JsonReporter json(argc, argv);
    bench::banner("Figure 11",
                  "Memory recovery ratio at period 10000 (recovered + "
                  "sampled per sampled).");
    std::printf("%-16s %14s %14s %18s\n", "app", "basic-block",
                "forward", "forward+backward");

    // One representative buggy application per paper subject.
    const char *subjects[] = {"apache-25520", "mysql-3596",
                              "cherokee-0.9.2", "pbzip2-0.9.5", "pfscan",
                              "aget-bug2"};
    std::vector<double> bb_r, f_r, fb_r;
    for (const char *name : subjects) {
        auto bug = workload::makeRacyBug(name, bench::envScale());
        auto cfg = core::proRaceConfig(10000, 42, bug.pt_filter);
        auto online =
            core::Session::run(*bug.program, bug.setup, cfg.session);

        auto paths = pmu::decodePt(
            *bug.program, online.trace.meta.pt_filter, online.trace);
        auto aligns =
            replay::alignTrace(*bug.program, paths, online.trace);

        double ratios[3] = {0, 0, 0};
        const replay::ReplayMode modes[3] = {
            replay::ReplayMode::kBasicBlock,
            replay::ReplayMode::kForwardOnly,
            replay::ReplayMode::kForwardBackward};
        for (int m = 0; m < 3; ++m) {
            replay::ReplayConfig rcfg;
            rcfg.mode = modes[m];
            replay::Replayer rep(*bug.program, rcfg);
            rep.replayAll(paths, aligns, online.trace);
            ratios[m] = rep.stats().recoveryRatio();
        }
        bb_r.push_back(ratios[0]);
        f_r.push_back(ratios[1]);
        fb_r.push_back(ratios[2]);
        std::printf("%-16s %13.1fx %13.1fx %17.1fx\n", name, ratios[0],
                    ratios[1], ratios[2]);
        json.record("fig11_memory_recovery", {{"app", name}},
                    {{"basic_block", ratios[0]},
                     {"forward", ratios[1]},
                     {"forward_backward", ratios[2]}});
        std::fflush(stdout);
    }
    std::printf("%-16s %13.1fx %13.1fx %17.1fx\n", "(average)",
                mean(bb_r), mean(f_r), mean(fb_r));
    std::printf("\npaper averages: basic-block 5.4x, forward 34x, "
                "forward+backward 64x\n");
    return 0;
}
