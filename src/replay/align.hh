/**
 * @file
 * Trace alignment: time-synchronize the PEBS sample trace and the sync
 * trace with the PT-decoded instruction paths (the paper's "Decode &
 * Synthesis" step).
 *
 * Both traces carry per-core TSC values (invariant TSC), so samples can
 * be located on the path by time. Within a timing bracket a sampled
 * instruction may occur several times (loops); candidates are
 * disambiguated by register consistency: registers not written between
 * two samples must hold identical values in both samples' register
 * files.
 */

#ifndef PRORACE_REPLAY_ALIGN_HH
#define PRORACE_REPLAY_ALIGN_HH

#include <cstdint>
#include <map>
#include <vector>

#include "asmkit/program.hh"
#include "pmu/pt_decode.hh"
#include "trace/records.hh"

namespace prorace::analysis {
class ProgramAnalysis;
} // namespace prorace::analysis

namespace prorace::replay {

/** A PEBS record located on its thread's path. */
struct AlignedSample {
    size_t record_index = 0; ///< index into RunTrace::pebs
    uint64_t position = 0;   ///< path index of the sampled instruction
};

/** A sync record located on its thread's path. */
struct AlignedSync {
    size_t record_index = 0; ///< index into RunTrace::sync
    uint64_t position = 0;
};

/** Alignment of one thread. */
struct ThreadAlignment {
    uint32_t tid = 0;
    std::vector<AlignedSample> samples; ///< ascending by position
    std::vector<AlignedSync> syncs;     ///< ascending by position
    std::vector<pmu::PathAnchor> anchors; ///< merged, ascending by position

    /**
     * Estimated TSC of a path position (anchor interpolation). Over
     * anchors ascending in TSC, the result never leaves the TSCs of the
     * two anchors that bracket @p position.
     */
    uint64_t tscAt(uint64_t position) const;

    /**
     * tscAt(@p position) for a run of calls at non-decreasing positions:
     * @p cursor starts above anchors.size() (e.g. SIZE_MAX), and each
     * call moves it forward from where the previous one left it instead
     * of searching all anchors again.
     */
    uint64_t tscAt(uint64_t position, size_t &cursor) const;
};

/**
 * Alignment statistics. The two candidate counters measure the work of
 * the candidate scans (lookahead probes included), which stop as soon
 * as no later position can win; they are deterministic for a trace.
 */
struct AlignStats {
    uint64_t samples_matched = 0;
    uint64_t samples_unmatched = 0;
    /** Scanned positions whose instruction is the sample's. */
    uint64_t candidates_examined = 0;
    /** Examined candidates refused by the memory-event distance or
     *  by register consistency. */
    uint64_t candidates_rejected = 0;

    /** Accumulate @p other (per-thread alignments fold as sums). */
    void
    merge(const AlignStats &other)
    {
        samples_matched += other.samples_matched;
        samples_unmatched += other.samples_unmatched;
        candidates_examined += other.candidates_examined;
        candidates_rejected += other.candidates_rejected;
    }
};

/**
 * Per-run lookup tables of the alignment, built once in O(R log R) for
 * R records and shared read-only by every thread's alignThread() call.
 *
 * Besides each tid's sync and PEBS records, it holds every core's PEBS
 * records as a TSC-sorted list of (tsc, tid), each entry linked to the
 * next entry of a different tid. That answers "did another thread take
 * a sample on this core in a TSC range?" with one binary search.
 */
class AlignIndex
{
  public:
    explicit AlignIndex(const trace::RunTrace &run);

    /** Indices into run.sync of @p tid's records, in trace order. */
    const std::vector<size_t> &syncRecords(uint32_t tid) const;

    /** Indices into run.pebs of @p tid's records, stable-sorted by TSC. */
    const std::vector<size_t> &pebsRecords(uint32_t tid) const;

    /**
     * True when a PEBS record of a tid other than @p tid was taken on
     * @p core with @p after < tsc < @p before.
     */
    bool foreignBetween(uint32_t core, uint32_t tid, uint64_t after,
                        uint64_t before) const;

    /**
     * True when a PEBS record of a tid other than @p tid was taken on
     * @p core with tsc < @p before.
     */
    bool foreignBefore(uint32_t core, uint32_t tid, uint64_t before) const;

  private:
    struct Entry {
        uint64_t tsc = 0;
        uint32_t tid = 0;
        uint32_t core = 0;
        size_t next_other = 0; ///< next index on the core with another tid
    };
    struct CoreSpan {
        uint32_t core = 0;
        size_t begin = 0, end = 0; ///< into entries_
    };

    const CoreSpan *span(uint32_t core) const;
    /** Does [first, s.end) hold another tid's entry with tsc < before? */
    bool foreignFrom(const CoreSpan &s, size_t first, uint32_t tid,
                     uint64_t before) const;

    std::vector<Entry> entries_;  ///< sorted by (core, tsc)
    std::vector<CoreSpan> cores_; ///< ascending by core
    std::map<uint32_t, std::vector<size_t>> sync_by_tid_;
    std::map<uint32_t, std::vector<size_t>> pebs_by_tid_;
};

/**
 * Align thread @p tid's samples and sync records against its decoded
 * @p path. Threads align independently, so callers may run one call
 * per thread concurrently over one @p index; each call adds to its own
 * @p stats. When @p analysis is set, per-instruction fact lookups come
 * from its precomputed flat table instead of being re-derived per
 * call; the alignment is bit-identical either way.
 */
ThreadAlignment
alignThread(const asmkit::Program &program, uint32_t tid,
            const pmu::ThreadPath &path, const trace::RunTrace &run,
            const AlignIndex &index, AlignStats *stats = nullptr,
            const analysis::ProgramAnalysis *analysis = nullptr);

/** alignThread() for every thread of @p paths, in tid order. */
std::map<uint32_t, ThreadAlignment>
alignTrace(const asmkit::Program &program,
           const std::map<uint32_t, pmu::ThreadPath> &paths,
           const trace::RunTrace &run, AlignStats *stats = nullptr,
           const analysis::ProgramAnalysis *analysis = nullptr);

} // namespace prorace::replay

#endif // PRORACE_REPLAY_ALIGN_HH
