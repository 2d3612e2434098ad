/**
 * @file
 * A look inside the reconstruction engine: traces one workload, then
 * shows — per replay mode — how much of the memory trace each
 * mechanism recovers, including the paper's Fig. 5 distinction between
 * forward replay, backward propagation / reverse execution, and
 * PC-relative recovery.
 *
 *   $ ./examples/replay_anatomy [period]
 */

#include <cstdio>
#include <cstdlib>

#include "core/session.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "workload/apps.hh"

using namespace prorace;

int
main(int argc, char **argv)
{
    const uint64_t period = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                     : 2000;
    workload::AppProfile profile;
    profile.name = "anatomy-subject";
    profile.items = 150;
    profile.compute_iters = 60;
    profile.sweep_elems = 40;
    profile.chase_steps = 20;
    workload::Workload w = workload::makeAppWorkload(profile);

    core::SessionOptions opt;
    opt.machine.seed = 5;
    opt.run_baseline = false;
    opt.tracing.pebs_period = period;
    opt.tracing.pt.filter = w.pt_filter;
    core::RunArtifacts run =
        core::Session::run(*w.program, w.setup, opt);
    std::printf("run: %llu insns, %llu mem ops, %llu samples\n",
                static_cast<unsigned long long>(run.total_insns),
                static_cast<unsigned long long>(run.total_mem_ops),
                static_cast<unsigned long long>(
                    run.stats.samples_taken));

    auto paths = pmu::decodePt(*w.program, run.trace.meta.pt_filter,
                               run.trace);
    replay::AlignStats align_stats;
    auto aligns = replay::alignTrace(*w.program, paths, run.trace,
                                     &align_stats);
    std::printf("alignment: %llu samples located on paths, %llu "
                "unlocatable (library code)\n",
                static_cast<unsigned long long>(
                    align_stats.samples_matched),
                static_cast<unsigned long long>(
                    align_stats.samples_unmatched));

    std::printf("\n%-18s %10s %10s %10s %10s %9s\n", "mode", "sampled",
                "forward", "backward", "pc-rel", "ratio");
    for (replay::ReplayMode mode :
         {replay::ReplayMode::kBasicBlock,
          replay::ReplayMode::kForwardOnly,
          replay::ReplayMode::kForwardBackward}) {
        replay::ReplayConfig cfg;
        cfg.mode = mode;
        replay::Replayer rep(*w.program, cfg);
        rep.replayAll(paths, aligns, run.trace);
        const replay::ReplayStats &s = rep.stats();
        std::printf("%-18s %10llu %10llu %10llu %10llu %8.1fx\n",
                    replay::replayModeName(mode),
                    static_cast<unsigned long long>(s.sampled),
                    static_cast<unsigned long long>(s.recovered_forward),
                    static_cast<unsigned long long>(
                        s.recovered_backward),
                    static_cast<unsigned long long>(s.recovered_pcrel),
                    s.recoveryRatio());
    }
    std::printf("\nPC-relative accesses need only the PT path; forward "
                "replay propagates sampled register files; backward "
                "replay adds what the *next* sample's registers restore "
                "(paper §5).\n");
    return 0;
}
