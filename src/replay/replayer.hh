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
 * Three modes reproduce the paper's comparison: kForwardOnly runs
 * forward replay alone, kForwardBackward is full ProRace, and
 * kBasicBlock (RaceZ) uses no PT path at all, so every sample is
 * reconstructed within its own static basic block.
 */

#ifndef PRORACE_REPLAY_REPLAYER_HH
#define PRORACE_REPLAY_REPLAYER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "analysis/insn_facts.hh"
#include "asmkit/program.hh"
#include "detect/report.hh"
#include "isa/flags.hh"
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
    // Field order packs the struct into 40 bytes: the two 32-bit
    // fields share a word and the four one-byte fields share the tail.
    uint32_t tid = 0;
    uint32_t insn_index = 0;
    /** Path position. A bare sample with no path position has 0; the
     *  accesses of a sample's basic block (kBasicBlock) have their
     *  index within that block. */
    uint64_t position = 0;
    uint64_t addr = 0;
    uint64_t tsc = 0;      ///< interpolated retirement time
    uint8_t width = 8;
    bool is_write = false;
    bool is_atomic = false;
    detect::AccessOrigin origin = detect::AccessOrigin::kSampled;
};
static_assert(sizeof(ReconstructedAccess) == 40,
              "ReconstructedAccess is copied per replayed access");

/** Reconstruction statistics (drives Fig 11). */
struct ReplayStats {
    uint64_t sampled = 0;            ///< accesses straight from PEBS
    uint64_t recovered_forward = 0;  ///< new in forward replay
    uint64_t recovered_backward = 0; ///< new only with backward replay
    uint64_t recovered_pcrel = 0;    ///< PC-relative subset (of the above)
    uint64_t windows = 0;
    uint64_t inconsistent_windows = 0;
    uint64_t backward_rounds = 0;
    uint64_t violations_branch = 0;   ///< branch-direction contradictions
    uint64_t violations_fact = 0;     ///< forward/backward disagreements
    uint64_t violations_sample = 0;   ///< sampled-address EA mismatches
    uint64_t violations_end = 0;      ///< closing-sample register mismatches
    uint64_t violations_backward = 0; ///< backward immediate contradictions
    /**
     * PEBS samples dropped: insn_index outside the program, or naming
     * an instruction that retires no memory event (InsnFacts::mem_ops
     * == 0), which no genuine trace samples.
     */
    uint64_t samples_out_of_program = 0;
    /** Path positions visited by forward passes (gaps included). */
    uint64_t forward_steps = 0;
    /** Forward steps settled by the unresolved rule (an unknown use). */
    uint64_t forward_unresolved_steps = 0;
    /**
     * Path positions a mixed forward pass took over from the previous
     * pass's resume point instead of emulating them (DESIGN §12.4).
     * forward_steps + forward_resumed_steps is the work of replaying
     * every pass in full.
     */
    uint64_t forward_resumed_steps = 0;
    /** Path positions visited by backward scans (gaps included). */
    uint64_t backward_steps = 0;

    /** Paged-ProgramMap shadow counters, summed over all replay passes. */
    ProgramMapStats program_map;

    uint64_t
    totalAccesses() const
    {
        return sampled + recovered_forward + recovered_backward;
    }

    /**
     * Fold another accumulator in. Window replays are independent, so
     * summing per-task stats reproduces one replayer's accumulation
     * exactly (every counter is a plain sum of window-local deltas).
     */
    void
    merge(const ReplayStats &o)
    {
        sampled += o.sampled;
        recovered_forward += o.recovered_forward;
        recovered_backward += o.recovered_backward;
        recovered_pcrel += o.recovered_pcrel;
        windows += o.windows;
        inconsistent_windows += o.inconsistent_windows;
        backward_rounds += o.backward_rounds;
        violations_branch += o.violations_branch;
        violations_fact += o.violations_fact;
        violations_sample += o.violations_sample;
        violations_end += o.violations_end;
        violations_backward += o.violations_backward;
        samples_out_of_program += o.samples_out_of_program;
        forward_steps += o.forward_steps;
        forward_unresolved_steps += o.forward_unresolved_steps;
        forward_resumed_steps += o.forward_resumed_steps;
        backward_steps += o.backward_steps;
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

    bool operator==(const ReplayFact &) const = default;
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
     * set, the replayer reads InsnFacts from the flat fact table and
     * the aligner indexes it too; results are bit-identical either
     * way. The analysis (owned by the offline analyzer) must outlive
     * every replayer holding this config.
     */
    const analysis::ProgramAnalysis *analysis = nullptr;
};

/**
 * Reconstructs the extended memory trace for one run.
 *
 * A replayer owns its scratch state: one ProgramMap reset per pass, a
 * window-dense emission buffer, and the hint/fact lists of the
 * forward/backward fixed point. All of it is reused from window to
 * window, so once warm a replayer allocates only for its output.
 */
class Replayer
{
  public:
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

    /**
     * One task of the replay plan. A window task holds consecutive
     * windows of one thread in path order; a sample task holds samples
     * with no path position in record order. Its units are its windows,
     * then its samples.
     */
    struct Task {
        std::vector<Window> windows;
        const pmu::ThreadPath *path = nullptr;      ///< of the windows
        const ThreadAlignment *alignment = nullptr; ///< of the windows
        std::vector<const trace::PebsRecord *> samples;

        size_t units() const { return windows.size() + samples.size(); }
    };

    /**
     * A run's replay tasks in commit order. Windows point into
     * sync_maps, so a plan moves but never copies; its tasks also point
     * into the paths, alignments and trace it was built from.
     */
    struct Plan {
        std::vector<Task> tasks;
        std::map<uint32_t, std::map<uint64_t, const trace::SyncRecord *>>
            sync_maps; ///< malloc/spawn records by path position, per tid

        Plan() = default;
        Plan(Plan &&) = default;
        Plan(const Plan &) = delete;
    };

    Replayer(const asmkit::Program &program, const ReplayConfig &config);

    /**
     * Replay the run's plan inline and return the extended memory trace
     * sorted by estimated TSC (sortByTsc). This is the public layer
     * call; the offline analyzer runs the same plan's tasks on its
     * lanes and commits them in the same order, but leaves them in plan
     * order: its detector feed's stable sort yields the same event
     * order either way (DESIGN.md §8.2).
     */
    std::vector<ReconstructedAccess>
    replayAll(const std::map<uint32_t, pmu::ThreadPath> &paths,
              const std::map<uint32_t, ThreadAlignment> &alignments,
              const trace::RunTrace &run);

    /** Accumulated statistics. */
    const ReplayStats &stats() const { return stats_; }

    /**
     * The replay plan of one run, the one routine both replayAll and
     * the offline analyzer use. Threads with a path and an alignment
     * come in ascending tid order, each with its windows (tasks closed
     * at 16 Ki path positions) and then its unmatched samples (samples
     * the aligner could not place, e.g. taken in untraced code). The
     * samples of threads with no path come last. RaceZ uses no PT, so
     * in basic-block mode the plan has no windows and every sample is
     * pathless. Sample tasks close at 1 Ki samples.
     */
    static Plan plan(ReplayMode mode,
                     const std::map<uint32_t, pmu::ThreadPath> &paths,
                     const std::map<uint32_t, ThreadAlignment> &alignments,
                     const trace::RunTrace &run);

    /**
     * Replay units [first, last) of @p task and append their accesses
     * to @p out: each window as replayWindow does, then each sample.
     * A sample whose insn_index lies outside the program, or names an
     * instruction that retires no memory event, is dropped
     * (ReplayStats::samples_out_of_program).
     * Otherwise, in basic-block mode it is reconstructed within its
     * basic block, timed at its TSC plus the intra-block distance (the
     * RaceZ rule); in the PT modes it stays the exact sampled access at
     * position 0, timed by its own TSC.
     */
    void replayTask(const Task &task, size_t first, size_t last,
                    std::vector<ReconstructedAccess> &out);

    /**
     * Replay one window and append its surviving accesses to @p out in
     * (position, slot) order, timestamped from @p alignment. Windows are
     * disjoint, so appending a thread's windows in path order yields
     * that thread's accesses in position order.
     */
    void replayWindow(const Window &win, const pmu::ThreadPath &path,
                      const ThreadAlignment &alignment,
                      std::vector<ReconstructedAccess> &out);

    /**
     * The ordering replayAll gives the extended trace: by (tsc, tid,
     * position), stable, so any caller that builds the same pre-sort
     * sequence gets a bit-identical extended trace.
     */
    static void sortByTsc(std::vector<ReconstructedAccess> &out);

    /** Emulated-memory byte addresses whose values were consumed. */
    std::unordered_set<uint64_t> consumedAddresses() const
    {
        return pm_.consumedAddresses();
    }

  private:
    /**
     * Window-dense emission buffer, deduplicating by (position, slot).
     * The slot pair of path position p lives at 2 * (p - base) of a
     * table spanning the open window, so insertion and the
     * violation-scope erase are array operations. The table only grows
     * (to the longest window seen) and is never re-zeroed: open()
     * clears just the slots the previous window used. Entries live in
     * a side store and forEach() visits them in key order.
     */
    class EmitBuffer
    {
      public:
        /** Forget all entries and cover positions [base, base + len). */
        void open(uint64_t base, uint64_t len);

        /** Insert @p acc at (acc.position, @p slot) unless that is taken. */
        void add(unsigned slot, const ReconstructedAccess &acc);

        /** Number of live entries. */
        size_t size() const { return live_; }

        /** Erase the entries at positions [lo, hi] that @p drop selects. */
        template <typename Pred>
        void
        eraseIf(uint64_t lo, uint64_t hi, Pred drop)
        {
            if (len_ == 0 || hi < base_)
                return;
            lo = std::max(lo, base_);
            hi = std::min(hi, base_ + len_ - 1);
            for (uint64_t k = 2 * (lo - base_); k <= 2 * (hi - base_) + 1;
                 ++k) {
                if (slot_[k] && drop(accs_[slot_[k] - 1])) {
                    slot_[k] = 0;
                    --live_;
                }
            }
        }

        /** Visit the live entries in (position, slot) order. */
        template <typename Visit>
        void
        forEach(Visit visit)
        {
            order_.clear();
            for (uint32_t i = 0; i < accs_.size(); ++i) {
                if (slot_[keys_[i]] == i + 1)
                    order_.push_back(i);
            }
            // Each pass emits in position order, so the store is a few
            // sorted runs; keys are unique among live entries.
            auto by_key = [this](uint32_t a, uint32_t b) {
                return keys_[a] < keys_[b];
            };
            if (!std::is_sorted(order_.begin(), order_.end(), by_key))
                std::sort(order_.begin(), order_.end(), by_key);
            for (const uint32_t i : order_)
                visit(accs_[i]);
        }

      private:
        uint64_t base_ = 0;
        uint64_t len_ = 0;
        std::vector<uint32_t> slot_; ///< 0 = empty, else 1 + accs_ index
        std::vector<ReconstructedAccess> accs_;
        std::vector<uint64_t> keys_;  ///< slot_ index of each accs_ entry
        std::vector<uint32_t> order_; ///< forEach scratch
        size_t live_ = 0;
    };

    /**
     * The whole state of a forward pass right after a step that
     * emptied emulated memory, so a later pass whose input agrees with
     * this one's before pos can restart there (DESIGN §12.4). Counts
     * are the pass's own, from its first position to pos.
     */
    struct ResumePoint {
        uint64_t pos = 0; ///< the first position not yet stepped
        std::array<uint64_t, isa::kNumGprs> regs{};
        uint16_t avail = 0;
        uint16_t flag_src_mask = 0;
        isa::Flags flags_value;
        bool flags_known = false;
        unsigned violations = 0;
        uint64_t violations_branch = 0;
        uint64_t violations_fact = 0;
        uint64_t violations_sample = 0;
        uint64_t bad_pos = ~0ull; ///< first position past the budget
        size_t hints = 0;
    };

    /**
     * One forward pass over @p win. A pass that collects hints (and
     * then also takes @p bad_pos_out) records resume points into
     * points_; with @p from it restarts at that point of the previous
     * pass instead of at win.start.
     */
    void forwardPass(const Window &win, const pmu::ThreadPath &path,
                     const FactList &facts, detect::AccessOrigin tag,
                     FactList *hints_out, bool *consistent_out,
                     uint64_t *bad_pos_out,
                     const ResumePoint *from = nullptr);

    /** Append a resume point at @p pos (cold: after memory drops). */
    [[gnu::cold, gnu::noinline]] void
    recordResumePoint(uint64_t pos, isa::Flags flags_value,
                      bool flags_known, uint16_t flag_src_mask,
                      unsigned violations, size_t hints,
                      uint64_t bad_pos);

    /**
     * The last resume point at or before @p pos, or nullptr; the later
     * points are dropped, since the pass about to resume replaces them.
     */
    const ResumePoint *resumeAtOrBefore(uint64_t pos);

    /**
     * Backward sweep from the closing sample; leaves the recovered
     * facts in @p facts_out in ascending position order. Returns the
     * lowest position of a fact derived from the closing sample's
     * registers (win.end if none): facts derived from forward hints
     * alone repeat what the forward pass that made the hints knew.
     */
    uint64_t backwardScan(const Window &win, const pmu::ThreadPath &path,
                          const FactList &hints, FactList &facts_out,
                          bool *consistent_out);

    /**
     * Append @p acc to @p out, timed at @p tsc, and count it by origin.
     * This is the one place the origin counters of ReplayStats grow:
     * an access counts when it reaches the extended trace, never while
     * it waits in the emission buffer, where a violation may erase it
     * or the window's verdict may drop it.
     */
    void publish(const ReconstructedAccess &acc, uint64_t tsc,
                 std::vector<ReconstructedAccess> &out);

    /** RaceZ reconstruction of one sample's basic block into @p out. */
    void replayBasicBlock(const trace::PebsRecord &rec,
                          std::vector<ReconstructedAccess> &out);

    /**
     * Static facts of instruction @p idx: from the analysis's table when
     * one is attached, else derived on the spot (identical either way).
     */
    analysis::InsnFacts insnFacts(uint32_t idx) const;

    const asmkit::Program &program_;
    ReplayConfig config_;
    ReplayStats stats_;
    ProgramMap pm_;
    EmitBuffer emit_;
    FactList hints_;
    FactList facts_;
    FactList prev_hints_; ///< hints the last backward scan consumed
    FactList prev_facts_; ///< facts the last mixed pass consumed
    /** The last forward pass's resume points, in position order. */
    std::vector<ResumePoint> points_;
    /** Lowest position the next resume point may take. */
    uint64_t point_next_ = ~0ull;
    /** stats_ violation counters at the start of the current pass. */
    uint64_t pass_branch_ = 0;
    uint64_t pass_fact_ = 0;
    uint64_t pass_sample_ = 0;
    pmu::ThreadPath bb_path_; ///< basic-block mode's synthetic path
};

} // namespace prorace::replay

#endif // PRORACE_REPLAY_REPLAYER_HH
