/**
 * @file
 * PT hardware model: per-core control-flow trace encoder with code-region
 * filters.
 */

#ifndef PRORACE_PMU_PT_HH
#define PRORACE_PMU_PT_HH

#include <cstdint>

#include "pmu/pt_packet.hh"
#include "trace/records.hh"

namespace prorace::pmu {

/** The code-region filter type lives with the trace that records it. */
using trace::PtFilter;

/** PT configuration. */
struct PtConfig {
    PtFilter filter = PtFilter::all();
    /** Emit a standalone TSC packet every this many packets. */
    uint32_t tsc_packet_period = 32;
    /**
     * Emit a PSB sync packet before a context switch once this many
     * stream bytes have accumulated since the last one. PSBs are what
     * the offline decoder scans for to re-acquire a damaged stream;
     * the first context switch of a stream always gets one.
     */
    uint32_t psb_byte_period = 4096;
};

/**
 * The PT encoder of one core. The machine reports every retired branch;
 * the encoder applies the code-region filter and emits the compressed
 * packet stream.
 */
class PtEncoder
{
  public:
    explicit PtEncoder(const PtConfig &config);

    /** A conditional branch retired at @p src. */
    void onCondBranch(uint32_t src, bool taken, uint64_t tsc);

    /** An indirect transfer retired at @p src jumping to @p target. */
    void onIndirect(uint32_t src, uint32_t target, uint64_t tsc);

    /**
     * The core switched to thread @p tid, resuming at instruction
     * index @p ip. The resume ip rides in the context packet so the
     * decoder can re-anchor a thread after a resynchronization gap.
     */
    void onContextSwitch(uint32_t tid, uint64_t tsc, uint32_t ip);

    /** Close the stream with an end packet and return it. */
    trace::PtCoreStream finish();

    /**
     * Billable bytes emitted so far, for the bandwidth cost model.
     * Excludes the robustness framing (PSB packets, context resume
     * ips, the end-marker discriminator bit): hardware PT emits PSBs
     * from a dedicated generator off the critical path, and keeping
     * them out of the per-branch cost keeps traced-run timing — and
     * therefore every downstream TSC — independent of the sync-point
     * cadence.
     */
    uint64_t bytesEmitted() const
    {
        return (writer_.bitCount() - overhead_bits_ + 7) / 8;
    }

  private:
    void maybeEmitTsc(uint64_t tsc);

    PtConfig config_;
    BitWriter writer_;
    uint32_t packets_since_tsc_ = 0;
    uint64_t last_tsc_ = 0;
    uint64_t overhead_bits_ = 0;
    uint64_t last_psb_byte_ = 0;
    bool psb_emitted_ = false;
    bool finished_ = false;
};

} // namespace prorace::pmu

#endif // PRORACE_PMU_PT_HH
