/**
 * @file
 * Binary serialization of run traces.
 *
 * In the paper's deployment model the production machine appends traces
 * to files that dedicated analysis machines consume later; this module is
 * that file format. Since version 4 the payload is split into
 * CRC-checksummed segments behind a sync magic, so a reader facing a
 * damaged file skips the broken segments and reports what was lost
 * (trace/trace_error.hh) instead of aborting the analysis:
 *
 *   file   := u32 magic, u32 version, segment...
 *   segment:= u32 seg_magic, u8 kind, u32 seq, u64 payload_size,
 *             u32 header_crc, u32 payload_crc, payload
 *
 * Segment kinds: one meta segment (run counters + expected record
 * counts + compression accounting + the PT filter the run was traced
 * with), PEBS records in chunks, sync
 * records in chunks, one PT segment per core, and an end marker whose
 * absence flags truncation. PEBS/sync segments failing their CRC are
 * dropped (a garbage sample would poison replay); PT segments failing
 * their CRC are salvaged with clamped bounds, because the PT decoder
 * has its own packet-level resynchronization (pmu/pt_decode) and can
 * mine intact packets out of a damaged stream.
 *
 * Version 5 keeps the v4 framing byte-for-byte (same header layout,
 * CRC spans, and salvage rules) but replaces the fixed-width PEBS/sync
 * payloads with per-field *columns*: each record field is delta-encoded
 * against a predictor (global previous record for tid/core/tsc,
 * previous same-tid record for insn_index/addr/regs) and written as a
 * LEB128 varint of the zigzagged delta; register files are
 * dictionary-coded as a 16-bit changed-register mask plus one delta per
 * set bit. On top of the columns, the encoder detects *run blocks* —
 * consecutive record blocks that repeat modulo a per-position stride on
 * addr/tsc/regs (a sampled loop) — and stores the block once with an
 * iteration count and strides. All predictor state resets at segment
 * boundaries so every segment still decodes standalone, which is what
 * keeps the v4 salvage semantics: a damaged segment is dropped without
 * poisoning its neighbours.
 *
 * Version 6 keeps the v5 segments and appends the PT filter to the meta
 * payload (u8 all-flag, u8 range count, then u32 begin / u32 end per
 * range, at most four), so a trace names the filter it must be decoded
 * with and analysis takes no filter of its own. A filter table the
 * hardware cannot produce makes the meta segment corrupt. Traces of any
 * other version are rejected with a version error naming both versions.
 */

#ifndef PRORACE_TRACE_TRACE_FILE_HH
#define PRORACE_TRACE_TRACE_FILE_HH

#include <optional>
#include <string>

#include "support/expected.hh"
#include "trace/records.hh"
#include "trace/trace_error.hh"

namespace prorace::trace {

/** Magic bytes at the head of every trace file. */
inline constexpr uint32_t kTraceMagic = 0x50524354; // "PRCT"

/**
 * Current format version. Bumped to 5 for the columnar compressed
 * payloads and to 6 for the PT filter in the meta segment; older
 * traces are rejected with a clear error (re-trace the workload — the
 * production side always writes the current version).
 */
inline constexpr uint32_t kTraceVersion = 6;

/** Magic introducing every segment; the resync scan target. */
inline constexpr uint32_t kSegmentMagic = 0x35474553; // "SEG5"

/** PEBS records per segment; the unit of loss under corruption. */
inline constexpr uint32_t kPebsChunkRecords = 256;

/** Sync records per segment. */
inline constexpr uint32_t kSyncChunkRecords = 1024;

/**
 * Longest repeated block the run detector considers. Short on purpose:
 * the PEBS stream samples loops at a period much larger than the loop
 * body, so observed repeats are short tuples; quadratic detection cost
 * stays bounded per chunk.
 */
inline constexpr uint32_t kMaxRunBlockLen = 4;

/** A successfully ingested trace plus whatever the reader discarded. */
struct LoadedTrace {
    RunTrace trace;
    SegmentLoss loss;
};

/**
 * Incremental, resumable reader over a segmented trace stream.
 *
 * A long-running analysis service tails traces that are still being
 * written: bytes arrive in arbitrary chunks, and segments must be
 * parsed as soon as they are complete without re-scanning the stream
 * from byte 0. TraceReader keeps a cursor: feed() appends bytes,
 * poll() consumes every complete segment currently buffered (the
 * consumed prefix is compacted away, so resident memory is bounded by
 * the largest in-flight segment), and finish() applies the end-of-
 * stream rules — truncation accounting, clipped-PT salvage,
 * record-count reconciliation — and yields the LoadedTrace.
 *
 * The incremental path is semantics-identical to the one-shot
 * readTrace(): feeding a buffer in any chunking (including one byte at
 * a time) produces the same trace, the same SegmentLoss, and the same
 * hard errors as handing the whole buffer over at once. readTrace()
 * itself is implemented on top of this class.
 */
class TraceReader
{
  public:
    explicit TraceReader(std::string context = "<stream>");

    /** Append @p size bytes of the stream; parses nothing by itself. */
    void feed(const uint8_t *data, size_t size);

    void
    feed(const std::vector<uint8_t> &bytes)
    {
        feed(bytes.data(), bytes.size());
    }

    /**
     * Parse every segment that is now complete. Returns the number of
     * segments consumed by this call (damaged segments that were
     * skipped count too). Cheap when nothing new is parseable.
     */
    size_t poll();

    /**
     * The latched hard error, if any: the stream is uninterpretable
     * (bad magic, bad version, destroyed meta). Once set, further bytes
     * are ignored and finish() returns this error.
     */
    const TraceError *error() const
    {
        return error_ ? &*error_ : nullptr;
    }

    /** Segments consumed so far (parsed or skipped as damaged). */
    uint64_t segmentsParsed() const { return loaded_.loss.segments_seen; }

    /** Bytes buffered but not yet consumed (in-flight segment tail). */
    size_t bytesBuffered() const { return buf_.size() - pos_; }

    /** Loss accounting so far (finish() adds the reconciliation). */
    const SegmentLoss &loss() const { return loaded_.loss; }

    /**
     * Declare end-of-stream: handle any truncated tail, reconcile
     * salvaged record counts against the meta expectations, and return
     * the trace. The reader must not be fed or polled afterwards.
     */
    Result<LoadedTrace, TraceError> finish();

  private:
    /** Parse one complete segment at the cursor; false = need bytes. */
    bool consumeOne();

    /** Enter/continue resync: scan forward for the next segment magic. */
    void resync();

    /** Drop the consumed prefix once it dominates the buffer. */
    void compact();

    TraceError makeError(TraceErrorKind kind, std::string msg,
                         uint64_t offset) const;

    std::string context_;
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;       ///< cursor into buf_
    uint64_t origin_ = 0;  ///< stream offset of buf_[0] (compaction)
    bool header_done_ = false;
    bool resyncing_ = false;
    bool have_meta_ = false;
    bool saw_end_ = false;
    bool finished_ = false;
    std::optional<TraceError> error_;
    LoadedTrace loaded_;
    uint64_t expected_pebs_ = 0;
    uint64_t expected_sync_ = 0;
    uint32_t expected_pt_ = 0;
    std::vector<bool> pt_assigned_;
};

/**
 * Ingest a serialized trace, skipping damaged segments. Returns the
 * trace with loss accounting, or a TraceError when the buffer is not
 * interpretable at all. @p context names the source in errors
 * (defaults to "<memory>" for in-memory buffers).
 */
Result<LoadedTrace, TraceError>
readTrace(const std::vector<uint8_t> &bytes,
          const std::string &context = "<memory>");

/** readTrace() over a file; I/O failures become TraceError{kIo}. */
Result<LoadedTrace, TraceError> readTraceFile(const std::string &path);

/** Write @p trace to @p path; fatal on I/O errors. */
void saveTrace(const RunTrace &trace, const std::string &path);

/**
 * Read a trace from @p path; fatal on I/O or format errors, warns on
 * segment loss. Prefer readTraceFile() in code that can handle a
 * Result.
 */
RunTrace loadTrace(const std::string &path);

/** Serialize to an in-memory buffer (used by tests and size metering). */
std::vector<uint8_t> serializeTrace(const RunTrace &trace);

/**
 * Deserialize from an in-memory buffer; fatal on format errors, warns
 * on segment loss. Prefer readTrace() in code that can handle a
 * Result.
 */
RunTrace deserializeTrace(const std::vector<uint8_t> &bytes);

} // namespace prorace::trace

#endif // PRORACE_TRACE_TRACE_FILE_HH
