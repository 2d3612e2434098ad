/**
 * @file
 * Offline PT decoder: turns per-core packet streams back into exact
 * per-thread instruction paths.
 *
 * This is the "Decode & Synthesis" stage of the paper's offline pipeline.
 * The decoder statically walks the program between packets, consuming a
 * TNT bit at each conditional branch and a TIP target at each indirect
 * transfer; context packets demultiplex the per-core stream into
 * per-thread paths; TSC and context packets yield (path position, TSC)
 * anchors used later to time-align PEBS samples with path positions.
 *
 * Malformed input does not abort the decode: like a hardware PT
 * decoder, on an inconsistent packet (walker-state mismatch,
 * out-of-range target, truncation) the decoder marks a kPathGap in
 * every path fed by the stream, scans forward to the next PSB sync
 * packet, and re-anchors each thread at its next context packet's
 * resume ip. Replay already treats kPathGap like a syscall boundary
 * (registers and emulated memory invalidated), so damage degrades
 * coverage instead of poisoning reconstruction.
 */

#ifndef PRORACE_PMU_PT_DECODE_HH
#define PRORACE_PMU_PT_DECODE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "asmkit/program.hh"
#include "pmu/pt.hh"
#include "trace/records.hh"

namespace prorace::pmu {

/** Marker in a decoded path standing for untraced (filtered-out) code. */
inline constexpr uint32_t kPathGap = 0xffffffffu;

/** A (path position, TSC) timing anchor. */
struct PathAnchor {
    uint64_t position = 0; ///< path index such that insns before it retired
                           ///< no later than tsc (approximately)
    uint64_t tsc = 0;
};

/** The reconstructed execution path of one thread. */
struct ThreadPath {
    uint32_t tid = 0;
    std::vector<uint32_t> insns;     ///< instruction indices / kPathGap
    std::vector<PathAnchor> anchors; ///< sorted by position
    bool complete = false;           ///< the walk reached a halt
};

/** Decoder statistics (offline-cost and loss reporting). */
struct PtDecodeStats {
    uint64_t packets = 0;
    uint64_t path_entries = 0;
    uint64_t psb_packets = 0;    ///< sync points seen
    uint64_t resyncs = 0;        ///< recoveries from malformed input
    uint64_t bits_skipped = 0;   ///< bits scanned over while resyncing
    uint64_t dropped_packets = 0;///< packets with no walker to apply to
    uint64_t truncated_streams = 0; ///< streams ending mid-packet
    /** Tids found in more than one stream, whose paths were dropped. */
    uint64_t split_threads = 0;

    /** Accumulate @p other (sharded decode merges per-core stats). */
    void
    merge(const PtDecodeStats &other)
    {
        packets += other.packets;
        path_entries += other.path_entries;
        psb_packets += other.psb_packets;
        resyncs += other.resyncs;
        bits_skipped += other.bits_skipped;
        dropped_packets += other.dropped_packets;
        truncated_streams += other.truncated_streams;
        split_threads += other.split_threads;
    }
};

/**
 * Decode every core stream of @p run against @p program: one
 * decodePtStream() shard per stream, merged by mergePtShards().
 *
 * @param program   the traced binary
 * @param filter    the PT filter the encoder ran with
 * @param run       trace with PT streams and thread entry metadata
 * @param stats     optional output statistics
 * @return per-tid reconstructed paths
 */
std::map<uint32_t, ThreadPath>
decodePt(const asmkit::Program &program, const PtFilter &filter,
         const trace::RunTrace &run, PtDecodeStats *stats = nullptr);

/**
 * Decode one core's packet stream on its own: the one PT decoder.
 *
 * Traces follow a pinned-thread contract: the machine runs each thread
 * on one core, so each thread's packets live in exactly one stream and
 * the per-stream decodes are independent. Every walker this decode
 * starts belongs to this stream alone. The offline analyzer runs one
 * such shard per stream (on its executor or inline) and merges them
 * with mergePtShards(), as decodePt() does.
 *
 * @param core index into run.pt
 */
std::map<uint32_t, ThreadPath>
decodePtStream(const asmkit::Program &program, const PtFilter &filter,
               const trace::RunTrace &run, size_t core,
               PtDecodeStats *stats = nullptr);

/**
 * Merge per-stream decodes into one per-tid map. A tid found in more
 * than one shard breaks the pinned-thread contract, and no single
 * stream holds its path: it counts as damage. Its path is dropped from
 * every shard (so its samples replay as pathless samples) and counted
 * in @p stats' split_threads.
 */
std::map<uint32_t, ThreadPath>
mergePtShards(std::vector<std::map<uint32_t, ThreadPath>> shards,
              PtDecodeStats *stats = nullptr);

} // namespace prorace::pmu

#endif // PRORACE_PMU_PT_DECODE_HH
