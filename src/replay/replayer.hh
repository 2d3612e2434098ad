/**
 * @file
 * The memory-trace reconstruction engine (paper §5).
 *
 * For every pair of adjacent PEBS samples of a thread, the replayer
 * re-executes the program binary along the PT-observed path:
 *
 *  - *Forward replay* restores the first sample's register file and
 *    emulates forward, tracking operand availability in a ProgramMap
 *    and recovering the addresses of unsampled loads and stores.
 *  - *Backward replay* runs a reverse sweep from the next sample's
 *    register file: a register's sampled value is valid backwards until
 *    its most recent update (backward propagation), and invertible
 *    instructions (add/sub/xor, reg-reg moves, lea, push/pop rsp
 *    arithmetic) extend validity across updates (reverse execution).
 *    Facts recovered backward are injected into another forward pass;
 *    the two alternate to a fixed point.
 *
 * Three modes reproduce the paper's comparison: kBasicBlock limits
 * reconstruction to the sampled basic block (RaceZ), kForwardOnly runs
 * forward replay alone, and kForwardBackward is full ProRace.
 */

#ifndef PRORACE_REPLAY_REPLAYER_HH
#define PRORACE_REPLAY_REPLAYER_HH

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "asmkit/program.hh"
#include "detect/report.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/program_map.hh"
#include "trace/records.hh"

namespace prorace::analysis {
class ProgramAnalysis;
} // namespace prorace::analysis

namespace prorace::replay {

/** Reconstruction scope. */
enum class ReplayMode : uint8_t {
    kBasicBlock,      ///< RaceZ: within the sampled basic block only
    kForwardOnly,     ///< PT-guided forward replay
    kForwardBackward, ///< full ProRace: forward + backward replay
};

/** Printable mode name. */
const char *replayModeName(ReplayMode mode);

/** One entry of the extended memory trace. */
struct ReconstructedAccess {
    uint32_t tid = 0;
    uint64_t position = 0; ///< path position (BB mode: synthetic order)
    uint32_t insn_index = 0;
    uint64_t addr = 0;
    uint8_t width = 8;
    bool is_write = false;
    bool is_atomic = false;
    uint64_t tsc = 0;      ///< interpolated retirement time
    detect::AccessOrigin origin = detect::AccessOrigin::kSampled;
};

/** Reconstruction statistics (drives Fig 11). */
struct ReplayStats {
    uint64_t sampled = 0;            ///< accesses straight from PEBS
    uint64_t recovered_forward = 0;  ///< new in forward replay
    uint64_t recovered_backward = 0; ///< new only with backward replay
    uint64_t recovered_pcrel = 0;    ///< PC-relative subset (of the above)
    uint64_t recovered_constant = 0; ///< via points-to constant values
    uint64_t windows = 0;
    uint64_t inconsistent_windows = 0;
    uint64_t backward_rounds = 0;
    uint64_t violations_branch = 0;   ///< branch-direction contradictions
    uint64_t violations_fact = 0;     ///< forward/backward disagreements
    uint64_t violations_sample = 0;   ///< sampled-address EA mismatches
    uint64_t violations_end = 0;      ///< closing-sample register mismatches
    uint64_t violations_backward = 0; ///< backward immediate contradictions

    /** Paged-ProgramMap shadow counters, summed over all replay passes. */
    ProgramMapStats program_map;

    uint64_t
    totalAccesses() const
    {
        return sampled + recovered_forward + recovered_backward +
            recovered_constant;
    }

    /**
     * Fold another accumulator in. Window replays are independent, so
     * summing per-task stats reproduces the serial accumulation
     * exactly (every counter is a plain sum of window-local deltas).
     */
    void
    merge(const ReplayStats &o)
    {
        sampled += o.sampled;
        recovered_forward += o.recovered_forward;
        recovered_backward += o.recovered_backward;
        recovered_pcrel += o.recovered_pcrel;
        recovered_constant += o.recovered_constant;
        windows += o.windows;
        inconsistent_windows += o.inconsistent_windows;
        backward_rounds += o.backward_rounds;
        violations_branch += o.violations_branch;
        violations_fact += o.violations_fact;
        violations_sample += o.violations_sample;
        violations_end += o.violations_end;
        violations_backward += o.violations_backward;
        program_map.merge(o.program_map);
    }

    /** Recovered+sampled accesses per sampled access (paper Fig 11). */
    double
    recoveryRatio() const
    {
        if (sampled == 0)
            return 0;
        return static_cast<double>(totalAccesses()) /
            static_cast<double>(sampled);
    }
};

/** One backward-recovered register fact: reg = val before @p pos. */
struct ReplayFact {
    uint64_t pos = 0;
    isa::Reg reg = isa::Reg::none;
    uint64_t val = 0;
};

/** A position-sorted flat list of facts. */
using FactList = std::vector<ReplayFact>;

/** Replayer configuration. */
struct ReplayConfig {
    ReplayMode mode = ReplayMode::kForwardBackward;
    int max_backward_rounds = 3;
    /** Address ranges never emulated (racy-location regeneration). */
    std::vector<std::pair<uint64_t, uint64_t>> mem_blacklist;
    /**
     * Precomputed static analysis of the program being replayed, or
     * nullptr to fall back to per-instruction fact derivation. When
     * set, the backward scan skips whole basic-block runs via the
     * block kill masks and the aligner indexes the flat fact table;
     * results are bit-identical either way. The analysis (owned by the
     * offline analyzer) must outlive every replayer holding this
     * config.
     */
    const analysis::ProgramAnalysis *analysis = nullptr;
};

/**
 * Reconstructs the extended memory trace for one run.
 */
class Replayer
{
  public:
    /** Deduplicating per-window emission buffer keyed by (position, slot). */
    struct EmitMap {
        std::map<uint64_t, ReconstructedAccess> entries;

        bool
        add(uint64_t position, unsigned slot,
            const ReconstructedAccess &acc)
        {
            return entries.try_emplace(position * 4 + slot, acc).second;
        }
    };

    /**
     * A replay window between two adjacent samples of one thread.
     *
     * The boundary samples are the only state adjacent windows share:
     * window i's closing sample (s2, the source of backward
     * propagation) is window i+1's opening sample (s1, the restored
     * register file). Both are immutable PEBS records in the run
     * trace, which is what makes windows replayable in parallel — the
     * handoff between adjacent window tasks is these two pointers, not
     * mutable replay state.
     */
    struct Window {
        uint32_t tid = 0;
        uint64_t start = 0; ///< path position (inclusive)
        uint64_t end = 0;   ///< path position (exclusive)
        const trace::PebsRecord *s1 = nullptr; ///< sample at start, if any
        const trace::PebsRecord *s2 = nullptr; ///< sample at end, if any
        const std::map<uint64_t, const trace::SyncRecord *> *sync_at =
            nullptr;
    };

    Replayer(const asmkit::Program &program, const ReplayConfig &config);

    /**
     * Replay one thread. Appends reconstructed accesses (including the
     * sampled ones) to @p out in program order.
     */
    void replayThread(const pmu::ThreadPath &path,
                      const ThreadAlignment &alignment,
                      const trace::RunTrace &run,
                      std::vector<ReconstructedAccess> &out);

    /**
     * Replay every aligned thread; returns the extended memory trace
     * sorted by estimated TSC.
     */
    std::vector<ReconstructedAccess>
    replayAll(const std::map<uint32_t, pmu::ThreadPath> &paths,
              const std::map<uint32_t, ThreadAlignment> &alignments,
              const trace::RunTrace &run);

    /** Accumulated statistics. */
    const ReplayStats &stats() const { return stats_; }

    // --- window planning (shared by the serial and parallel paths) ---

    /** malloc/spawn sync records mapped to their path positions. */
    static std::map<uint64_t, const trace::SyncRecord *>
    syncAtMap(const ThreadAlignment &alignment,
              const trace::RunTrace &run);

    /**
     * Build one thread's inter-sample window list. Windows cover
     * disjoint [start, end) path ranges; @p sync_at must outlive the
     * returned windows.
     */
    static std::vector<Window>
    buildWindows(const pmu::ThreadPath &path,
                 const ThreadAlignment &alignment,
                 const trace::RunTrace &run,
                 const std::map<uint64_t,
                                const trace::SyncRecord *> &sync_at);

    /**
     * Post-window per-thread work: timestamp the emitted accesses and
     * append them in position order, then append this thread's
     * path-unlocatable samples in record order. Appending per-thread
     * results in ascending-tid order reproduces the serial replayAll
     * sequence exactly.
     */
    void finalizeThread(const pmu::ThreadPath &path,
                        const ThreadAlignment &alignment,
                        const trace::RunTrace &run, EmitMap &emit,
                        std::vector<ReconstructedAccess> &out);

    /** Append the accesses of samples whose thread has no path. */
    void appendPathlessSamples(
        const std::map<uint32_t, pmu::ThreadPath> &paths,
        const trace::RunTrace &run, std::vector<ReconstructedAccess> &out);

    /**
     * The final deterministic ordering of the extended trace. Both
     * analyzer paths build the pre-sort sequence identically, so this
     * shared sort yields bit-identical extended traces.
     */
    static void sortByTsc(std::vector<ReconstructedAccess> &out);

    void replayWindow(const Window &win, const pmu::ThreadPath &path,
                      const ThreadAlignment &alignment,
                      const trace::RunTrace &run, EmitMap &emit);

    void forwardPass(const Window &win, const pmu::ThreadPath &path,
                     const trace::RunTrace &run, const FactList &facts,
                     detect::AccessOrigin tag, EmitMap &emit,
                     FactList *hints_out, bool *consistent_out,
                     uint64_t *bad_pos_out);

    void backwardScan(const Window &win, const pmu::ThreadPath &path,
                      const FactList &hints, FactList &facts_out,
                      bool *consistent_out);

    void replayBasicBlock(const trace::PebsRecord &rec, EmitMap &emit);

    /** Emulated-memory byte addresses whose values were consumed. */
    const std::unordered_set<uint64_t> &consumedAddresses() const
    {
        return consumed_;
    }

  private:
    const asmkit::Program &program_;
    ReplayConfig config_;
    ReplayStats stats_;
    std::unordered_set<uint64_t> consumed_;
};

} // namespace prorace::replay

#endif // PRORACE_REPLAY_REPLAYER_HH
