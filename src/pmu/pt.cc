#include "pmu/pt.hh"

#include "support/log.hh"

namespace prorace::pmu {

PtEncoder::PtEncoder(const PtConfig &config) : config_(config)
{
}

void
PtEncoder::maybeEmitTsc(uint64_t tsc)
{
    ++packets_since_tsc_;
    if (packets_since_tsc_ >= config_.tsc_packet_period) {
        packets_since_tsc_ = 0;
        PtPacket p;
        p.kind = PtPacketKind::kTsc;
        const uint64_t delta = tsc - last_tsc_;
        if (delta <= 0xffffffffull) {
            p.tsc_is_delta = true;
            p.tsc = delta;
        } else {
            p.tsc = tsc;
        }
        writePtPacket(writer_, p);
        last_tsc_ = tsc;
    }
}

void
PtEncoder::onCondBranch(uint32_t src, bool taken, uint64_t tsc)
{
    if (!config_.filter.contains(src))
        return;
    PtPacket p;
    p.kind = PtPacketKind::kTnt;
    p.taken = taken;
    writePtPacket(writer_, p);
    maybeEmitTsc(tsc);
}

void
PtEncoder::onIndirect(uint32_t src, uint32_t target, uint64_t tsc)
{
    const bool src_in = config_.filter.contains(src);
    const bool dst_in = config_.filter.contains(target);
    if (src_in) {
        PtPacket p;
        p.kind = PtPacketKind::kTip;
        p.short_target = target <= 0xffffu;
        p.target = target;
        writePtPacket(writer_, p);
        maybeEmitTsc(tsc);
    } else if (dst_in) {
        // Trace generation re-enables on entry into a filtered region.
        PtPacket p;
        p.kind = PtPacketKind::kPge;
        p.short_target = target <= 0xffffu;
        p.target = target;
        writePtPacket(writer_, p);
        maybeEmitTsc(tsc);
    }
}

void
PtEncoder::onContextSwitch(uint32_t tid, uint64_t tsc, uint32_t ip)
{
    // A PSB ahead of the context packet gives the offline decoder a
    // scannable sync point followed immediately by a full re-anchor
    // (tid + tsc + resume ip). Emitted on the first switch and then
    // every psb_byte_period stream bytes.
    if (!psb_emitted_ ||
        writer_.byteCount() - last_psb_byte_ >= config_.psb_byte_period) {
        PtPacket psb;
        psb.kind = PtPacketKind::kPsb;
        writePtPacket(writer_, psb);
        overhead_bits_ += 38; // 6 header bits + 32 magic bits
        psb_emitted_ = true;
        last_psb_byte_ = writer_.byteCount();
    }
    PtPacket p;
    p.kind = PtPacketKind::kContext;
    p.tid = tid;
    p.tsc = tsc;
    p.ip = ip;
    writePtPacket(writer_, p);
    overhead_bits_ += 32; // the resume-ip field is robustness framing
    packets_since_tsc_ = 0;
    last_tsc_ = tsc;
}

trace::PtCoreStream
PtEncoder::finish()
{
    PRORACE_ASSERT(!finished_, "PT stream finished twice");
    finished_ = true;
    PtPacket end;
    end.kind = PtPacketKind::kEnd;
    writePtPacket(writer_, end);
    overhead_bits_ += 1; // the end marker's discriminator bit
    trace::PtCoreStream s;
    s.bytes = writer_.bytes();
    s.bit_count = writer_.bitCount();
    return s;
}

} // namespace prorace::pmu
