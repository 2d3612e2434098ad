/**
 * @file
 * On-"disk" trace record types produced by the online phase.
 *
 * These mirror what the paper's online stack emits: PEBS records with the
 * full architectural register file, per-core PT packet streams, and the
 * per-thread synchronization log collected by libc interposition.
 */

#ifndef PRORACE_TRACE_RECORDS_HH
#define PRORACE_TRACE_RECORDS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "vm/cpu.hh"
#include "vm/hooks.hh"

namespace prorace::trace {

/**
 * Thread ids a trace may name. The detector packs a tid into 10 epoch
 * bits (detect::Epoch::kMaxThreads); the decoder treats records and
 * thread tables naming a larger tid as corrupt, so no trace can reach
 * the detector with one.
 */
constexpr uint32_t kMaxThreads = 1024;

/**
 * One PEBS sample: the sampled instruction, its data address, the TSC,
 * and the complete register file captured *before* the instruction
 * executes (the state the replayer restores).
 */
struct PebsRecord {
    uint32_t tid = 0;
    uint32_t core = 0;
    uint32_t insn_index = 0;
    uint64_t addr = 0;
    uint8_t width = 8;
    bool is_write = false;
    bool is_atomic = false;
    uint64_t tsc = 0;
    vm::RegFile regs;
};

/** One synchronization record (same payload as the VM event). */
using SyncRecord = vm::SyncEvent;

/** The raw PT packet stream of one core. */
struct PtCoreStream {
    std::vector<uint8_t> bytes;
    uint64_t bit_count = 0;
};

/**
 * Compression accounting computed by the v5 columnar encoder and
 * embedded in the meta segment. "Raw" bytes are the v4 fixed-width
 * equivalents (what a decompress-then-scan pipeline would have stored);
 * "encoded" bytes are the columnar payload sizes actually written. Run
 * blocks are repeated record blocks stored once with an iteration
 * count; folded iterations are the records they elide.
 */
struct CompressionStats {
    uint64_t pebs_raw_bytes = 0;
    uint64_t pebs_encoded_bytes = 0;
    uint64_t sync_raw_bytes = 0;
    uint64_t sync_encoded_bytes = 0;
    uint64_t run_blocks = 0;            ///< repeated blocks stored once
    uint64_t run_iterations_folded = 0; ///< records elided by run blocks

    /** Raw/encoded ratio of the PEBS columns (0 when nothing encoded). */
    double
    pebsRatio() const
    {
        return pebs_encoded_bytes
                   ? static_cast<double>(pebs_raw_bytes) /
                         static_cast<double>(pebs_encoded_bytes)
                   : 0.0;
    }

    void
    merge(const CompressionStats &o)
    {
        pebs_raw_bytes += o.pebs_raw_bytes;
        pebs_encoded_bytes += o.pebs_encoded_bytes;
        sync_raw_bytes += o.sync_raw_bytes;
        sync_encoded_bytes += o.sync_encoded_bytes;
        run_blocks += o.run_blocks;
        run_iterations_folded += o.run_iterations_folded;
    }
};

/** Per-thread metadata the offline phase needs. */
struct ThreadMeta {
    uint32_t tid = 0;
    uint32_t entry_index = 0; ///< first instruction of the thread
};

/** Run-level metadata. */
struct TraceMeta {
    uint32_t num_cores = 0;
    uint64_t wall_cycles = 0;      ///< traced run wall time
    uint64_t baseline_cycles = 0;  ///< untraced run wall time (if known)
    uint64_t total_insns = 0;
    uint64_t total_mem_ops = 0;
    uint64_t pebs_period = 0;
    uint64_t samples_taken = 0;
    uint64_t samples_dropped = 0;
    uint64_t pebs_bytes = 0;
    uint64_t pt_bytes = 0;
    uint64_t sync_bytes = 0;
    /** Initial PEBS counter value per core (the driver logs the
     *  randomized first window so offline alignment can anchor the
     *  first sample). */
    std::vector<uint64_t> first_periods;
    std::vector<ThreadMeta> threads;
    /** Filled by the v5 encoder at serialization time; on a decoded
     *  trace it reflects what the file's encoder measured. */
    CompressionStats compression;
};

/** Everything the online phase hands to the offline phase. */
struct RunTrace {
    TraceMeta meta;
    std::vector<PebsRecord> pebs;      ///< in file-commit order
    std::vector<SyncRecord> sync;      ///< in TSC order per thread
    std::vector<PtCoreStream> pt;      ///< indexed by core

    /** Total committed trace bytes (PEBS + PT + sync). */
    uint64_t
    totalBytes() const
    {
        return meta.pebs_bytes + meta.pt_bytes + meta.sync_bytes;
    }
};

} // namespace prorace::trace

#endif // PRORACE_TRACE_RECORDS_HH
