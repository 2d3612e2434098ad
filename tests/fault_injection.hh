/**
 * @file
 * Deterministic trace-corruption utilities for the fault-tolerance
 * tests and the fig13 degradation harness.
 *
 * Every corruption is a pure function of the input bytes and a seeded
 * support/rng stream, so a (seed, rate) pair names one exact damage
 * pattern — CI reruns the same patterns every time. The segment-aware
 * helpers parse the segment framing (unchanged from v4 through the v5
 * columnar payloads) of an *intact* trace first and
 * then damage whole segments, which is the unit production loss
 * actually comes in (a dropped aux-buffer chunk, a clipped file); the
 * raw helpers damage arbitrary bytes to exercise the resync scan.
 */

#ifndef PRORACE_TESTS_FAULT_INJECTION_HH
#define PRORACE_TESTS_FAULT_INJECTION_HH

#include <cstdint>
#include <vector>

#include "support/crc32.hh"
#include "support/log.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"

namespace prorace::fault {

/** Location of one segment (header included) in a serialized trace. */
struct SegmentSpan {
    size_t begin = 0; ///< offset of the segment magic
    size_t end = 0;   ///< one past the payload
    uint8_t kind = 0; ///< trace_file segment kind byte
};

/**
 * Walk the segment table of an *intact* v4 trace. Asserts on framing
 * that does not parse — corruption goes in after mapping, not before.
 */
inline std::vector<SegmentSpan>
mapSegments(const std::vector<uint8_t> &bytes)
{
    auto u32At = [&](size_t pos) {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(bytes[pos + i]) << (8 * i);
        return v;
    };
    auto u64At = [&](size_t pos) {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(bytes[pos + i]) << (8 * i);
        return v;
    };
    constexpr size_t kHeaderSize = 25; // magic+kind+seq+size+2 CRCs
    std::vector<SegmentSpan> spans;
    PRORACE_ASSERT(bytes.size() >= 8, "trace too small to map");
    size_t pos = 8;
    while (pos < bytes.size()) {
        PRORACE_ASSERT(bytes.size() - pos >= kHeaderSize &&
                           u32At(pos) == trace::kSegmentMagic,
                       "mapSegments over a damaged trace");
        SegmentSpan s;
        s.begin = pos;
        s.kind = bytes[pos + 4];
        const uint64_t payload_size = u64At(pos + 9);
        s.end = pos + kHeaderSize + static_cast<size_t>(payload_size);
        PRORACE_ASSERT(s.end <= bytes.size(),
                       "mapSegments segment overruns the buffer");
        spans.push_back(s);
        pos = s.end;
    }
    return spans;
}

/** The payload bytes of segment @p span. */
inline std::vector<uint8_t>
segmentPayload(const std::vector<uint8_t> &bytes, const SegmentSpan &span)
{
    return std::vector<uint8_t>(bytes.begin() + span.begin + 25,
                                bytes.begin() + span.end);
}

/**
 * Replace the payload of segment @p span with @p payload and re-frame
 * it (payload size, header CRC, payload CRC): a CRC-valid segment
 * holding content the writer never produces, for tests of the
 * reader's semantic checks. @p span is stale afterwards.
 */
inline void
rewriteSegmentPayload(std::vector<uint8_t> &bytes, const SegmentSpan &span,
                      const std::vector<uint8_t> &payload)
{
    auto putLe = [&](size_t pos, uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            bytes[pos + i] = static_cast<uint8_t>(v >> (8 * i));
    };
    std::vector<uint8_t> out(bytes.begin(), bytes.begin() + span.begin + 25);
    out.insert(out.end(), payload.begin(), payload.end());
    out.insert(out.end(), bytes.begin() + span.end, bytes.end());
    bytes = std::move(out);
    putLe(span.begin + 9, payload.size(), 8);
    putLe(span.begin + 17, crc32(bytes.data() + span.begin + 4, 13), 4);
    putLe(span.begin + 21, crc32(payload), 4);
}

/**
 * Corrupt each segment independently with probability @p rate by
 * flipping one random bit anywhere in it (header or payload). Returns
 * the number of segments damaged.
 */
inline size_t
corruptSegments(std::vector<uint8_t> &bytes, double rate, Rng &rng)
{
    size_t damaged = 0;
    for (const SegmentSpan &s : mapSegments(bytes)) {
        if (!rng.chance(rate))
            continue;
        const size_t byte =
            s.begin + static_cast<size_t>(rng.below(s.end - s.begin));
        bytes[byte] ^= static_cast<uint8_t>(1u << rng.below(8));
        ++damaged;
    }
    return damaged;
}

/**
 * Remove each segment entirely with probability @p rate (the
 * dropped-aux-buffer failure mode). Returns the number removed.
 */
inline size_t
dropSegments(std::vector<uint8_t> &bytes, double rate, Rng &rng)
{
    const std::vector<SegmentSpan> spans = mapSegments(bytes);
    std::vector<uint8_t> out(bytes.begin(), bytes.begin() + 8);
    size_t removed = 0;
    for (const SegmentSpan &s : spans) {
        if (rng.chance(rate)) {
            ++removed;
            continue;
        }
        out.insert(out.end(), bytes.begin() + s.begin,
                   bytes.begin() + s.end);
    }
    bytes = std::move(out);
    return removed;
}

/** Clip the trace to its first @p keep_bytes bytes. */
inline void
truncateAt(std::vector<uint8_t> &bytes, size_t keep_bytes)
{
    if (keep_bytes < bytes.size())
        bytes.resize(keep_bytes);
}

/**
 * Flip @p flips random bits anywhere past the 8-byte file header —
 * the undirected damage model that exercises the reader's magic scan
 * and the PT decoder's PSB scan together.
 */
inline void
flipRandomBits(std::vector<uint8_t> &bytes, size_t flips, Rng &rng)
{
    if (bytes.size() <= 8)
        return;
    for (size_t i = 0; i < flips; ++i) {
        const size_t byte =
            8 + static_cast<size_t>(rng.below(bytes.size() - 8));
        bytes[byte] ^= static_cast<uint8_t>(1u << rng.below(8));
    }
}

/** Flip one specific bit — directed damage for prefix-validity sweeps. */
inline void
flipBitAt(std::vector<uint8_t> &bytes, size_t offset, unsigned bit)
{
    PRORACE_ASSERT(offset < bytes.size() && bit < 8,
                   "flipBitAt out of range");
    bytes[offset] ^= static_cast<uint8_t>(1u << bit);
}

/**
 * A deterministic garbage stream (xorshift64) — what a poisoned
 * producer submits instead of a recorded trace. Same generator the
 * fleet simulator's poison tenants use, so a (size, seed) pair names
 * one exact stream.
 */
inline std::vector<uint8_t>
poisonStream(size_t size, uint64_t seed)
{
    std::vector<uint8_t> bytes(size);
    uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
    for (uint8_t &b : bytes) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        b = static_cast<uint8_t>(rng);
    }
    return bytes;
}

} // namespace prorace::fault

#endif // PRORACE_TESTS_FAULT_INJECTION_HH
