#include "trace/trace_file.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "support/crc32.hh"
#include "support/log.hh"

namespace prorace::trace {

namespace {

/// kind..payload_size bytes covered by the header CRC.
constexpr size_t kSegmentHeaderCrcSpan = 1 + 4 + 8;

/// magic, kind, seq, payload_size, header_crc, payload_crc.
constexpr size_t kSegmentHeaderSize = 4 + kSegmentHeaderCrcSpan + 4 + 4;

/// v4 fixed-width bytes per PEBS record: tid, core, insn_index, addr,
/// width, is_write, is_atomic, tsc, 16 GPRs. The raw-bytes baseline the
/// compression counters are measured against.
constexpr uint64_t kPebsRawRecordBytes = 4 + 4 + 4 + 8 + 1 + 1 + 1 + 8 +
                                         8ull * isa::kNumGprs;

/// v4 fixed-width bytes per sync record: tid, kind, object, aux, tsc,
/// insn_index.
constexpr uint64_t kSyncRawRecordBytes = 4 + 1 + 8 + 8 + 8 + 4;

static_assert(isa::kNumGprs <= 16,
              "v5 regfile dictionary uses a 16-bit changed-register mask");

/** Segment payload kinds. New kinds are skipped by older readers. */
enum SegmentKind : uint8_t {
    kSegMeta = 1,
    kSegPebs = 2,
    kSegSync = 3,
    kSegPt = 4,
    kSegEnd = 5,
};

/** Zigzag a signed delta so small magnitudes get short varints. */
inline uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

inline int64_t
unzigzag(uint64_t z)
{
    return static_cast<int64_t>((z >> 1) ^ (0ull - (z & 1)));
}

/** Zigzagged wraparound delta @p now - @p prev (exact for any u64). */
inline uint64_t
deltaOf(uint64_t now, uint64_t prev)
{
    return zigzag(static_cast<int64_t>(now - prev));
}

inline uint64_t
applyDelta(uint64_t prev, uint64_t z)
{
    return prev + static_cast<uint64_t>(unzigzag(z));
}

/** Little-endian append-only byte sink. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** LEB128 varint, 7 bits per byte, low group first. */
    void
    varint(uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(static_cast<uint8_t>(v) | 0x80u);
            v >>= 7;
        }
        buf_.push_back(static_cast<uint8_t>(v));
    }

    void
    bytes(const std::vector<uint8_t> &b)
    {
        buf_.insert(buf_.end(), b.begin(), b.end());
    }

    size_t size() const { return buf_.size(); }

    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Sequential reader over untrusted bytes. Reads past the end do not
 * abort: they return zero and latch the fail flag, so segment parsers
 * can run over damaged payloads and report failure as a value.
 */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    explicit Reader(const std::vector<uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {
    }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v = static_cast<uint16_t>(
                v | static_cast<uint16_t>(data_[pos_++]) << (8 * i));
        return v;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    /** LEB128 varint; >10 bytes (or a truncated tail) latches failure. */
    uint64_t
    varint()
    {
        uint64_t v = 0;
        for (int shift = 0; shift < 70; shift += 7) {
            if (!need(1))
                return 0;
            const uint8_t b = data_[pos_++];
            v |= static_cast<uint64_t>(b & 0x7Fu) << shift;
            if (!(b & 0x80u))
                return v;
        }
        failed_ = true;
        return 0;
    }

    std::vector<uint8_t>
    bytes(size_t n)
    {
        if (!need(n))
            return {};
        std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
        return out;
    }

    /** Borrow @p n bytes as a sub-reader without copying. */
    Reader
    sub(size_t n)
    {
        if (!need(n))
            return Reader(data_, 0);
        Reader r(data_ + pos_, n);
        pos_ += n;
        return r;
    }

    size_t remaining() const { return failed_ ? 0 : size_ - pos_; }

    /** True once any read has run past the end. */
    bool failed() const { return failed_; }

    /** True iff every byte was consumed and nothing overran. */
    bool exhausted() const { return !failed_ && pos_ == size_; }

  private:
    bool
    need(size_t n)
    {
        if (failed_ || n > size_ - pos_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool failed_ = false;
};

// ---------------------------------------------------------------------
// v5 columnar PEBS codec.
//
// A chunk of records is first *deflated* by the run detector (repeated
// blocks stored once with an iteration count and per-position strides),
// then the surviving records are split into per-field columns, each
// delta-encoded against a predictor. Predictors reset per segment so
// segments decode standalone — the property the salvage path relies on.
// ---------------------------------------------------------------------

/** Per-position stride of a run block (wraparound u64 differences). */
struct RunStride {
    uint64_t addr = 0;
    uint64_t tsc = 0;
    uint16_t reg_mask = 0; ///< GPRs that step between iterations
    std::array<uint64_t, isa::kNumGprs> reg{};
};

/**
 * Derive the stride taking record @p a to record @p b, or return false
 * when the invariant fields (tid/core/insn/width/flags) differ — such a
 * pair can never be consecutive iterations of one run.
 */
bool
deriveStride(const PebsRecord &a, const PebsRecord &b, RunStride &s)
{
    if (a.tid != b.tid || a.core != b.core ||
        a.insn_index != b.insn_index || a.width != b.width ||
        a.is_write != b.is_write || a.is_atomic != b.is_atomic)
        return false;
    s.addr = b.addr - a.addr;
    s.tsc = b.tsc - a.tsc;
    s.reg_mask = 0;
    for (unsigned g = 0; g < isa::kNumGprs; ++g) {
        s.reg[g] = b.regs.gpr[g] - a.regs.gpr[g];
        if (s.reg[g] != 0)
            s.reg_mask = static_cast<uint16_t>(s.reg_mask | (1u << g));
    }
    return true;
}

/** True when @p b is exactly @p a advanced by stride @p s. */
bool
matchesStride(const PebsRecord &a, const PebsRecord &b, const RunStride &s)
{
    if (a.tid != b.tid || a.core != b.core ||
        a.insn_index != b.insn_index || a.width != b.width ||
        a.is_write != b.is_write || a.is_atomic != b.is_atomic)
        return false;
    if (b.addr - a.addr != s.addr || b.tsc - a.tsc != s.tsc)
        return false;
    for (unsigned g = 0; g < isa::kNumGprs; ++g) {
        const uint64_t want = (s.reg_mask >> g) & 1u ? s.reg[g] : 0;
        if (b.regs.gpr[g] - a.regs.gpr[g] != want)
            return false;
    }
    return true;
}

/** One encoded item: a literal record or a run block. */
struct RunItem {
    uint32_t len = 1;   ///< records per iteration (1 for literals)
    uint32_t iters = 1; ///< 1 = literal, >= 2 = run block
    std::vector<RunStride> strides;
};

/**
 * Greedy run detection over one chunk. Deterministic: at each position
 * the block length with the largest elision wins, ties to the shortest
 * block. Runs must elide at least two records to pay for their
 * descriptor.
 */
std::vector<RunItem>
detectRuns(const PebsRecord *recs, size_t n)
{
    std::vector<RunItem> items;
    size_t i = 0;
    while (i < n) {
        size_t best_len = 0, best_iters = 0, best_elided = 0;
        std::vector<RunStride> best_strides;
        for (size_t len = 1; len <= kMaxRunBlockLen && i + 2 * len <= n;
             ++len) {
            std::vector<RunStride> strides(len);
            bool ok = true;
            for (size_t j = 0; j < len && ok; ++j)
                ok = deriveStride(recs[i + j], recs[i + len + j],
                                  strides[j]);
            if (!ok)
                continue;
            size_t iters = 2;
            while (i + (iters + 1) * len <= n) {
                bool cong = true;
                for (size_t j = 0; j < len && cong; ++j)
                    cong = matchesStride(recs[i + (iters - 1) * len + j],
                                         recs[i + iters * len + j],
                                         strides[j]);
                if (!cong)
                    break;
                ++iters;
            }
            const size_t elided = len * (iters - 1);
            if (elided > best_elided) {
                best_len = len;
                best_iters = iters;
                best_elided = elided;
                best_strides = std::move(strides);
            }
        }
        if (best_elided >= 2) {
            RunItem item;
            item.len = static_cast<uint32_t>(best_len);
            item.iters = static_cast<uint32_t>(best_iters);
            item.strides = std::move(best_strides);
            items.push_back(std::move(item));
            i += best_len * best_iters;
        } else {
            items.emplace_back(); // literal
            i += 1;
        }
    }
    return items;
}

/** Encoder/decoder predictor state; reset at every segment boundary. */
struct PebsPredictor {
    struct PerTid {
        uint32_t insn_index = 0;
        uint64_t addr = 0;
        vm::RegFile regs;
    };
    std::unordered_map<uint32_t, PerTid> per_tid;
    uint32_t prev_tid = 0;
    uint32_t prev_core = 0;
    uint64_t prev_tsc = 0;
};

/// Column order of a PEBS segment payload.
enum PebsColumn {
    kColTid = 0,
    kColCore,
    kColInsn,
    kColAddr,
    kColWidth,
    kColFlags,
    kColTsc,
    kColRegs,
    kNumPebsColumns,
};

std::vector<uint8_t>
encodePebsChunk(const PebsRecord *recs, size_t base, size_t count,
                CompressionStats &cs)
{
    const std::vector<RunItem> items = detectRuns(recs, count);

    Writer w;
    w.u64(base);
    w.varint(count);
    w.varint(items.size());
    for (const RunItem &item : items) {
        if (item.iters == 1) {
            w.varint(0);
            continue;
        }
        ++cs.run_blocks;
        cs.run_iterations_folded += uint64_t{item.len} * (item.iters - 1);
        w.varint(item.len);
        w.varint(item.iters);
        for (const RunStride &s : item.strides) {
            w.varint(zigzag(static_cast<int64_t>(s.addr)));
            w.varint(zigzag(static_cast<int64_t>(s.tsc)));
            w.u16(s.reg_mask);
            for (unsigned g = 0; g < isa::kNumGprs; ++g)
                if ((s.reg_mask >> g) & 1u)
                    w.varint(zigzag(static_cast<int64_t>(s.reg[g])));
        }
    }

    // Columnize the deflated record stream (literals plus the first
    // iteration of each run).
    std::array<Writer, kNumPebsColumns> col;
    PebsPredictor p;
    size_t pos = 0;
    for (const RunItem &item : items) {
        for (uint32_t j = 0; j < item.len; ++j) {
            const PebsRecord &r = recs[pos + j];
            PebsPredictor::PerTid &pt = p.per_tid[r.tid];
            col[kColTid].varint(deltaOf(r.tid, p.prev_tid));
            col[kColCore].varint(deltaOf(r.core, p.prev_core));
            col[kColInsn].varint(deltaOf(r.insn_index, pt.insn_index));
            col[kColAddr].varint(deltaOf(r.addr, pt.addr));
            col[kColWidth].u8(r.width);
            col[kColFlags].u8(static_cast<uint8_t>((r.is_write ? 1 : 0) |
                                                   (r.is_atomic ? 2 : 0)));
            col[kColTsc].varint(deltaOf(r.tsc, p.prev_tsc));
            uint16_t mask = 0;
            for (unsigned g = 0; g < isa::kNumGprs; ++g)
                if (r.regs.gpr[g] != pt.regs.gpr[g])
                    mask = static_cast<uint16_t>(mask | (1u << g));
            col[kColRegs].u16(mask);
            for (unsigned g = 0; g < isa::kNumGprs; ++g)
                if ((mask >> g) & 1u)
                    col[kColRegs].varint(
                        deltaOf(r.regs.gpr[g], pt.regs.gpr[g]));
            p.prev_tid = r.tid;
            p.prev_core = r.core;
            p.prev_tsc = r.tsc;
            pt.insn_index = r.insn_index;
            pt.addr = r.addr;
            pt.regs = r.regs;
        }
        pos += size_t{item.len} * item.iters;
    }

    for (Writer &c : col) {
        std::vector<uint8_t> bytes = c.take();
        w.varint(bytes.size());
        w.bytes(bytes);
    }
    std::vector<uint8_t> payload = w.take();
    cs.pebs_raw_bytes += kPebsRawRecordBytes * count;
    cs.pebs_encoded_bytes += payload.size();
    return payload;
}

/**
 * Decode one PEBS segment payload; false = damaged (caller drops the
 * segment). Every count is bounds-checked against the chunk limits
 * before allocation so a CRC-colliding garbage payload cannot blow up
 * memory or crash.
 */
bool
decodePebsChunk(const uint8_t *data, size_t size,
                std::vector<PebsRecord> &out)
{
    Reader r(data, size);
    r.u64(); // first record index (diagnostic only)
    const uint64_t expanded = r.varint();
    if (r.failed() || expanded > kPebsChunkRecords)
        return false;
    const uint64_t n_items = r.varint();
    if (r.failed() || n_items > expanded)
        return false;

    std::vector<RunItem> items;
    items.reserve(n_items);
    uint64_t deflated = 0, total = 0;
    for (uint64_t i = 0; i < n_items; ++i) {
        RunItem item;
        const uint64_t code = r.varint();
        if (r.failed() || code > kMaxRunBlockLen)
            return false;
        if (code != 0) {
            item.len = static_cast<uint32_t>(code);
            const uint64_t iters = r.varint();
            if (r.failed() || iters < 2 || iters > kPebsChunkRecords)
                return false;
            item.iters = static_cast<uint32_t>(iters);
            item.strides.resize(item.len);
            for (RunStride &s : item.strides) {
                s.addr = static_cast<uint64_t>(unzigzag(r.varint()));
                s.tsc = static_cast<uint64_t>(unzigzag(r.varint()));
                s.reg_mask = r.u16();
                for (unsigned g = 0; g < isa::kNumGprs; ++g)
                    if ((s.reg_mask >> g) & 1u)
                        s.reg[g] =
                            static_cast<uint64_t>(unzigzag(r.varint()));
            }
        }
        deflated += item.len;
        total += uint64_t{item.len} * item.iters;
        if (r.failed() || total > expanded)
            return false;
        items.push_back(std::move(item));
    }
    if (total != expanded)
        return false;

    std::array<Reader, kNumPebsColumns> col = {
        Reader(nullptr, 0), Reader(nullptr, 0), Reader(nullptr, 0),
        Reader(nullptr, 0), Reader(nullptr, 0), Reader(nullptr, 0),
        Reader(nullptr, 0), Reader(nullptr, 0)};
    for (Reader &c : col) {
        const uint64_t len = r.varint();
        if (r.failed() || len > r.remaining())
            return false;
        c = r.sub(static_cast<size_t>(len));
    }
    if (!r.exhausted())
        return false;

    std::vector<PebsRecord> deflated_recs;
    deflated_recs.reserve(deflated);
    PebsPredictor p;
    for (uint64_t i = 0; i < deflated; ++i) {
        PebsRecord rec;
        rec.tid = static_cast<uint32_t>(
            applyDelta(p.prev_tid, col[kColTid].varint()));
        if (rec.tid >= kMaxThreads)
            return false; // salvage drops the segment
        PebsPredictor::PerTid &pt = p.per_tid[rec.tid];
        rec.core = static_cast<uint32_t>(
            applyDelta(p.prev_core, col[kColCore].varint()));
        rec.insn_index = static_cast<uint32_t>(
            applyDelta(pt.insn_index, col[kColInsn].varint()));
        rec.addr = applyDelta(pt.addr, col[kColAddr].varint());
        rec.width = col[kColWidth].u8();
        const uint8_t flags = col[kColFlags].u8();
        rec.is_write = (flags & 1u) != 0;
        rec.is_atomic = (flags & 2u) != 0;
        rec.tsc = applyDelta(p.prev_tsc, col[kColTsc].varint());
        rec.regs = pt.regs;
        const uint16_t mask = col[kColRegs].u16();
        for (unsigned g = 0; g < isa::kNumGprs; ++g)
            if ((mask >> g) & 1u)
                rec.regs.gpr[g] =
                    applyDelta(pt.regs.gpr[g], col[kColRegs].varint());
        for (const Reader &c : col)
            if (c.failed())
                return false;
        p.prev_tid = rec.tid;
        p.prev_core = rec.core;
        p.prev_tsc = rec.tsc;
        pt.insn_index = rec.insn_index;
        pt.addr = rec.addr;
        pt.regs = rec.regs;
        deflated_recs.push_back(rec);
    }
    for (const Reader &c : col)
        if (!c.exhausted())
            return false;

    // Expand run blocks: iteration k is iteration 0 advanced k strides.
    out.reserve(out.size() + expanded);
    size_t di = 0;
    for (const RunItem &item : items) {
        for (uint32_t k = 0; k < item.iters; ++k) {
            for (uint32_t j = 0; j < item.len; ++j) {
                PebsRecord rec = deflated_recs[di + j];
                if (k != 0) {
                    const RunStride &s = item.strides[j];
                    rec.addr += s.addr * k;
                    rec.tsc += s.tsc * k;
                    for (unsigned g = 0; g < isa::kNumGprs; ++g)
                        if ((s.reg_mask >> g) & 1u)
                            rec.regs.gpr[g] += s.reg[g] * k;
                }
                out.push_back(rec);
            }
        }
        di += item.len;
    }
    return true;
}

// ---------------------------------------------------------------------
// v5 columnar sync codec. Same column treatment, no run table: sync
// records are orders of magnitude rarer than PEBS samples and rarely
// stride-repeat.
// ---------------------------------------------------------------------

/// Column order of a sync segment payload.
enum SyncColumn {
    kColSyncTid = 0,
    kColSyncKind,
    kColSyncObject,
    kColSyncAux,
    kColSyncTsc,
    kColSyncInsn,
    kNumSyncColumns,
};

struct SyncPredictor {
    struct PerTid {
        uint64_t object = 0;
        uint64_t aux = 0;
        uint32_t insn_index = 0;
    };
    std::unordered_map<uint32_t, PerTid> per_tid;
    uint32_t prev_tid = 0;
    uint64_t prev_tsc = 0;
};

std::vector<uint8_t>
encodeSyncChunk(const SyncRecord *recs, size_t base, size_t count,
                CompressionStats &cs)
{
    Writer w;
    w.u64(base);
    w.varint(count);
    std::array<Writer, kNumSyncColumns> col;
    SyncPredictor p;
    for (size_t i = 0; i < count; ++i) {
        const SyncRecord &s = recs[i];
        SyncPredictor::PerTid &pt = p.per_tid[s.tid];
        col[kColSyncTid].varint(deltaOf(s.tid, p.prev_tid));
        col[kColSyncKind].u8(static_cast<uint8_t>(s.kind));
        col[kColSyncObject].varint(deltaOf(s.object, pt.object));
        col[kColSyncAux].varint(deltaOf(s.aux, pt.aux));
        col[kColSyncTsc].varint(deltaOf(s.tsc, p.prev_tsc));
        col[kColSyncInsn].varint(deltaOf(s.insn_index, pt.insn_index));
        p.prev_tid = s.tid;
        p.prev_tsc = s.tsc;
        pt.object = s.object;
        pt.aux = s.aux;
        pt.insn_index = s.insn_index;
    }
    for (Writer &c : col) {
        std::vector<uint8_t> bytes = c.take();
        w.varint(bytes.size());
        w.bytes(bytes);
    }
    std::vector<uint8_t> payload = w.take();
    cs.sync_raw_bytes += kSyncRawRecordBytes * count;
    cs.sync_encoded_bytes += payload.size();
    return payload;
}

bool
decodeSyncChunk(const uint8_t *data, size_t size,
                std::vector<SyncRecord> &out)
{
    Reader r(data, size);
    r.u64(); // first record index (diagnostic only)
    const uint64_t count = r.varint();
    if (r.failed() || count > kSyncChunkRecords)
        return false;
    std::array<Reader, kNumSyncColumns> col = {
        Reader(nullptr, 0), Reader(nullptr, 0), Reader(nullptr, 0),
        Reader(nullptr, 0), Reader(nullptr, 0), Reader(nullptr, 0)};
    for (Reader &c : col) {
        const uint64_t len = r.varint();
        if (r.failed() || len > r.remaining())
            return false;
        c = r.sub(static_cast<size_t>(len));
    }
    if (!r.exhausted())
        return false;

    std::vector<SyncRecord> records;
    records.reserve(count);
    SyncPredictor p;
    for (uint64_t i = 0; i < count; ++i) {
        SyncRecord s;
        s.tid = static_cast<uint32_t>(
            applyDelta(p.prev_tid, col[kColSyncTid].varint()));
        SyncPredictor::PerTid &pt = p.per_tid[s.tid];
        const uint8_t kind_raw = col[kColSyncKind].u8();
        // A corrupt kind byte would otherwise dispatch as garbage, and a
        // tid past the limit would reach the detector; dropping the
        // segment routes the loss through salvage, which disables epoch
        // GC for the affected window.
        if (kind_raw > vm::kMaxSyncKind || s.tid >= kMaxThreads)
            return false;
        s.kind = static_cast<vm::SyncKind>(kind_raw);
        s.object = applyDelta(pt.object, col[kColSyncObject].varint());
        s.aux = applyDelta(pt.aux, col[kColSyncAux].varint());
        // Spawn and join name the child thread in aux.
        if ((s.kind == vm::SyncKind::kSpawn ||
             s.kind == vm::SyncKind::kJoin) &&
            s.aux >= kMaxThreads)
            return false;
        s.tsc = applyDelta(p.prev_tsc, col[kColSyncTsc].varint());
        s.insn_index = static_cast<uint32_t>(
            applyDelta(pt.insn_index, col[kColSyncInsn].varint()));
        for (const Reader &c : col)
            if (c.failed())
                return false;
        p.prev_tid = s.tid;
        p.prev_tsc = s.tsc;
        pt.object = s.object;
        pt.aux = s.aux;
        pt.insn_index = s.insn_index;
        records.push_back(s);
    }
    for (const Reader &c : col)
        if (!c.exhausted())
            return false;
    out.insert(out.end(), records.begin(), records.end());
    return true;
}

/** Frame @p payload as segment number @p seq of @p kind onto @p out. */
void
appendSegment(Writer &out, SegmentKind kind, uint32_t seq,
              const std::vector<uint8_t> &payload)
{
    Writer header;
    header.u8(kind);
    header.u32(seq);
    header.u64(payload.size());
    const std::vector<uint8_t> header_bytes = header.take();

    out.u32(kSegmentMagic);
    out.bytes(header_bytes);
    out.u32(crc32(header_bytes));
    out.u32(crc32(payload));
    out.bytes(payload);
}

std::vector<uint8_t>
serializeMeta(const RunTrace &trace, const CompressionStats &cs)
{
    Writer w;
    const TraceMeta &m = trace.meta;
    w.u32(m.num_cores);
    w.u64(m.wall_cycles);
    w.u64(m.baseline_cycles);
    w.u64(m.total_insns);
    w.u64(m.total_mem_ops);
    w.u64(m.pebs_period);
    w.u64(m.samples_taken);
    w.u64(m.samples_dropped);
    w.u64(m.pebs_bytes);
    w.u64(m.pt_bytes);
    w.u64(m.sync_bytes);
    w.u32(static_cast<uint32_t>(m.first_periods.size()));
    for (uint64_t fp : m.first_periods)
        w.u64(fp);
    w.u32(static_cast<uint32_t>(m.threads.size()));
    for (const ThreadMeta &t : m.threads) {
        w.u32(t.tid);
        w.u32(t.entry_index);
    }
    // Expected record counts: the reader reconciles what it salvaged
    // against these to quantify loss.
    w.u64(trace.pebs.size());
    w.u64(trace.sync.size());
    w.u32(static_cast<uint32_t>(trace.pt.size()));
    // Compression accounting, freshly measured by this serialization
    // (never copied from the input meta, so decode->encode round trips
    // stay byte-identical).
    w.u64(cs.pebs_raw_bytes);
    w.u64(cs.pebs_encoded_bytes);
    w.u64(cs.sync_raw_bytes);
    w.u64(cs.sync_encoded_bytes);
    w.u64(cs.run_blocks);
    w.u64(cs.run_iterations_folded);
    return w.take();
}

/**
 * Parse a meta payload. Returns false (leaving the outputs partially
 * filled) when the payload is short, its counts point past its end, or
 * its thread table names a tid of kMaxThreads or more.
 */
bool
parseMeta(const std::vector<uint8_t> &payload, TraceMeta &m,
          uint64_t &expected_pebs, uint64_t &expected_sync,
          uint32_t &expected_pt)
{
    Reader r(payload);
    m.num_cores = r.u32();
    m.wall_cycles = r.u64();
    m.baseline_cycles = r.u64();
    m.total_insns = r.u64();
    m.total_mem_ops = r.u64();
    m.pebs_period = r.u64();
    m.samples_taken = r.u64();
    m.samples_dropped = r.u64();
    m.pebs_bytes = r.u64();
    m.pt_bytes = r.u64();
    m.sync_bytes = r.u64();
    const uint32_t nfp = r.u32();
    if (r.failed() || nfp * 8ull > r.remaining())
        return false;
    for (uint32_t i = 0; i < nfp; ++i)
        m.first_periods.push_back(r.u64());
    const uint32_t nthreads = r.u32();
    if (r.failed() || nthreads * 8ull > r.remaining())
        return false;
    for (uint32_t i = 0; i < nthreads; ++i) {
        ThreadMeta t;
        t.tid = r.u32();
        t.entry_index = r.u32();
        if (t.tid >= kMaxThreads)
            return false;
        m.threads.push_back(t);
    }
    expected_pebs = r.u64();
    expected_sync = r.u64();
    expected_pt = r.u32();
    m.compression.pebs_raw_bytes = r.u64();
    m.compression.pebs_encoded_bytes = r.u64();
    m.compression.sync_raw_bytes = r.u64();
    m.compression.sync_encoded_bytes = r.u64();
    m.compression.run_blocks = r.u64();
    m.compression.run_iterations_folded = r.u64();
    return !r.failed();
}

/** Next offset >= @p from where kSegmentMagic occurs, or buffer size. */
size_t
scanForSegmentMagic(const std::vector<uint8_t> &buf, size_t from)
{
    if (buf.size() < 4)
        return buf.size();
    for (size_t pos = from; pos + 4 <= buf.size(); ++pos) {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(buf[pos + i]) << (8 * i);
        if (v == kSegmentMagic)
            return pos;
    }
    return buf.size();
}

uint64_t
saturatingLoss(uint64_t expected, uint64_t got)
{
    return expected > got ? expected - got : 0;
}

} // namespace

std::vector<uint8_t>
serializeTrace(const RunTrace &trace)
{
    // Encode the record payloads first: the compression counters they
    // produce ride in the meta segment, which is written at the head of
    // the file.
    CompressionStats cs;
    std::vector<std::vector<uint8_t>> pebs_payloads;
    for (size_t base = 0; base < trace.pebs.size();
         base += kPebsChunkRecords) {
        const size_t count = std::min<size_t>(kPebsChunkRecords,
                                              trace.pebs.size() - base);
        pebs_payloads.push_back(
            encodePebsChunk(trace.pebs.data() + base, base, count, cs));
    }
    std::vector<std::vector<uint8_t>> sync_payloads;
    for (size_t base = 0; base < trace.sync.size();
         base += kSyncChunkRecords) {
        const size_t count = std::min<size_t>(kSyncChunkRecords,
                                              trace.sync.size() - base);
        sync_payloads.push_back(
            encodeSyncChunk(trace.sync.data() + base, base, count, cs));
    }

    Writer out;
    out.u32(kTraceMagic);
    out.u32(kTraceVersion);

    uint32_t seq = 0;
    appendSegment(out, kSegMeta, seq++, serializeMeta(trace, cs));
    for (const std::vector<uint8_t> &payload : pebs_payloads)
        appendSegment(out, kSegPebs, seq++, payload);
    for (const std::vector<uint8_t> &payload : sync_payloads)
        appendSegment(out, kSegSync, seq++, payload);

    for (size_t core = 0; core < trace.pt.size(); ++core) {
        const PtCoreStream &s = trace.pt[core];
        Writer w;
        w.u32(static_cast<uint32_t>(core));
        w.u64(s.bit_count);
        w.u64(s.bytes.size());
        w.bytes(s.bytes);
        appendSegment(out, kSegPt, seq++, w.take());
    }

    {
        Writer w;
        w.u32(seq); // segments preceding the end marker
        appendSegment(out, kSegEnd, seq, w.take());
    }
    return out.take();
}

TraceReader::TraceReader(std::string context)
    : context_(std::move(context))
{
}

TraceError
TraceReader::makeError(TraceErrorKind kind, std::string msg,
                       uint64_t offset) const
{
    return TraceError{kind, std::move(msg), offset, context_};
}

void
TraceReader::feed(const uint8_t *data, size_t size)
{
    // A hard-failed stream is uninterpretable; buffering more of it
    // would only grow memory without ever parsing anything.
    if (error_ || finished_)
        return;
    // Stream identity for checkpoint validation: a reconnecting tenant
    // re-streaming the same bytes must hash to the same (length, CRC)
    // pair regardless of chunking.
    stream_crc_ = crc32(data, size, stream_crc_);
    stream_bytes_ += size;
    buf_.insert(buf_.end(), data, data + size);
}

void
TraceReader::compact()
{
    // Drop the consumed prefix once it dominates the buffer, so a
    // tailing reader's resident memory is bounded by the largest
    // in-flight segment, not the stream length.
    if (pos_ >= (64u << 10) && pos_ * 2 >= buf_.size()) {
        origin_ += pos_;
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
    }
}

void
TraceReader::resync()
{
    // Damaged header or a payload byte pattern that happened to look
    // like the magic: scan forward for the next segment magic. The
    // last 3 bytes can hold a partial magic that the next feed()
    // completes, so they stay pending rather than being skipped.
    const size_t found = scanForSegmentMagic(buf_, pos_);
    if (found < buf_.size()) {
        loaded_.loss.bytes_skipped += found - pos_;
        pos_ = found;
        resyncing_ = false;
        return;
    }
    const size_t keep = buf_.size() >= 3 ? buf_.size() - 3 : 0;
    if (keep > pos_) {
        loaded_.loss.bytes_skipped += keep - pos_;
        pos_ = keep;
    }
}

bool
TraceReader::consumeOne()
{
    RunTrace &trace = loaded_.trace;
    SegmentLoss &loss = loaded_.loss;

    const size_t avail = buf_.size() - pos_;
    if (avail < kSegmentHeaderSize)
        return false;
    {
        uint32_t seg_magic = 0;
        for (int i = 0; i < 4; ++i)
            seg_magic |= static_cast<uint32_t>(buf_[pos_ + i]) << (8 * i);
        if (seg_magic != kSegmentMagic) {
            ++loss.bytes_skipped;
            ++pos_;
            resyncing_ = true;
            return true;
        }
    }
    Reader r(buf_.data() + pos_ + 4, kSegmentHeaderSize - 4);
    const uint8_t kind = r.u8();
    r.u32(); // seq (diagnostic only)
    const uint64_t payload_size = r.u64();
    const uint32_t header_crc = r.u32();
    const uint32_t payload_crc = r.u32();
    if (crc32(buf_.data() + pos_ + 4, kSegmentHeaderCrcSpan) !=
        header_crc) {
        ++loss.bytes_skipped;
        ++pos_;
        resyncing_ = true;
        return true;
    }
    if (payload_size > avail - kSegmentHeaderSize) {
        // Authentic header whose payload has not fully arrived yet:
        // wait. finish() turns a still-pending segment into the
        // truncation/salvage outcome.
        return false;
    }

    const size_t payload_pos = pos_ + kSegmentHeaderSize;
    ++loss.segments_seen;
    const uint8_t *payload_data = buf_.data() + payload_pos;
    const bool crc_ok = crc32(payload_data, payload_size) == payload_crc;
    pos_ = payload_pos + static_cast<size_t>(payload_size);

    switch (kind) {
    case kSegMeta: {
        if (have_meta_) {
            ++loss.segments_dropped;
            break;
        }
        std::vector<uint8_t> payload(payload_data,
                                     payload_data + payload_size);
        if (!crc_ok ||
            !parseMeta(payload, trace.meta, expected_pebs_,
                       expected_sync_, expected_pt_)) {
            error_ = makeError(TraceErrorKind::kCorruptMeta,
                               "trace meta segment is corrupt",
                               origin_ + payload_pos);
            return false;
        }
        trace.pt.resize(expected_pt_);
        pt_assigned_.assign(expected_pt_, false);
        have_meta_ = true;
        break;
    }
    case kSegPebs: {
        if (!crc_ok || !have_meta_ ||
            !decodePebsChunk(payload_data, payload_size, trace.pebs)) {
            ++loss.segments_dropped;
            break;
        }
        break;
    }
    case kSegSync: {
        if (!crc_ok || !have_meta_ ||
            !decodeSyncChunk(payload_data, payload_size, trace.sync)) {
            ++loss.segments_dropped;
            break;
        }
        break;
    }
    case kSegPt: {
        if (!have_meta_) {
            ++loss.segments_dropped;
            break;
        }
        Reader tr(payload_data, payload_size);
        const uint32_t core = tr.u32();
        uint64_t bit_count = tr.u64();
        uint64_t nbytes = tr.u64();
        if (tr.failed() || core >= trace.pt.size() ||
            pt_assigned_[core]) {
            ++loss.segments_dropped;
            break;
        }
        if (!crc_ok) {
            // Salvage: clamp the length fields to what is actually
            // present and hand the damaged stream to the PT decoder,
            // whose PSB resynchronization recovers the intact packet
            // runs.
            ++loss.pt_streams_damaged;
            nbytes = std::min<uint64_t>(nbytes, tr.remaining());
        } else if (nbytes > tr.remaining()) {
            ++loss.segments_dropped;
            break;
        }
        PtCoreStream &stream = trace.pt[core];
        stream.bytes = tr.bytes(static_cast<size_t>(nbytes));
        stream.bit_count =
            std::min<uint64_t>(bit_count, stream.bytes.size() * 8);
        pt_assigned_[core] = true;
        break;
    }
    case kSegEnd:
        saw_end_ = crc_ok;
        if (!crc_ok)
            ++loss.segments_dropped;
        break;
    default:
        // Unknown kind: written by a newer minor revision; skip.
        ++loss.segments_dropped;
        break;
    }
    return true;
}

size_t
TraceReader::poll()
{
    if (error_ || finished_)
        return 0;
    if (!header_done_) {
        if (buf_.size() < 8)
            return 0;
        Reader header(buf_.data(), 8);
        const uint32_t magic = header.u32();
        const uint32_t version = header.u32();
        if (magic != kTraceMagic) {
            error_ = makeError(TraceErrorKind::kBadMagic,
                               "not a ProRace trace file (bad magic)", 0);
            return 0;
        }
        if (version != kTraceVersion) {
            error_ = makeError(
                TraceErrorKind::kBadVersion,
                detail::concat("found trace format version ", version,
                               " but this reader expects version ",
                               kTraceVersion, "; re-trace the workload"),
                4);
            return 0;
        }
        header_done_ = true;
        pos_ = 8;
    }

    const uint64_t seen_before = loaded_.loss.segments_seen;
    while (!error_) {
        if (resyncing_) {
            resync();
            if (resyncing_)
                break;
            continue;
        }
        if (!consumeOne())
            break;
    }
    compact();
    return static_cast<size_t>(loaded_.loss.segments_seen - seen_before);
}

Result<LoadedTrace, TraceError>
TraceReader::finish()
{
    poll();
    finished_ = true;
    if (error_)
        return *error_;
    if (!header_done_)
        return makeError(TraceErrorKind::kBadMagic,
                         "not a ProRace trace file (bad magic)", 0);

    RunTrace &trace = loaded_.trace;
    SegmentLoss &loss = loaded_.loss;
    const size_t avail = buf_.size() - pos_;
    if (avail > 0) {
        loss.truncated = true;
        if (resyncing_ || avail < kSegmentHeaderSize) {
            loss.bytes_skipped += avail;
        } else {
            // poll() leaves a full, CRC-valid header behind only when
            // its payload ran past the end of the stream: collection
            // was clipped mid-segment. A clipped PT stream is still
            // worth salvaging — the decoder handles mid-packet
            // truncation — so hand over whatever bytes remain;
            // anything else is dropped.
            Reader r(buf_.data() + pos_ + 4, kSegmentHeaderSize - 4);
            const uint8_t kind = r.u8();
            ++loss.segments_seen;
            bool salvaged = false;
            if (kind == kSegPt && have_meta_) {
                const size_t payload_pos = pos_ + kSegmentHeaderSize;
                Reader tr(buf_.data() + payload_pos,
                          buf_.size() - payload_pos);
                const uint32_t core = tr.u32();
                const uint64_t bit_count = tr.u64();
                uint64_t nbytes = tr.u64();
                if (!tr.failed() && core < trace.pt.size() &&
                    !pt_assigned_[core]) {
                    ++loss.pt_streams_damaged;
                    nbytes = std::min<uint64_t>(nbytes, tr.remaining());
                    PtCoreStream &stream = trace.pt[core];
                    stream.bytes = tr.bytes(static_cast<size_t>(nbytes));
                    stream.bit_count = std::min<uint64_t>(
                        bit_count, stream.bytes.size() * 8);
                    pt_assigned_[core] = true;
                    salvaged = true;
                }
            }
            if (!salvaged)
                ++loss.segments_dropped;
        }
    }

    if (!have_meta_)
        return makeError(TraceErrorKind::kCorruptMeta,
                         "no readable meta segment",
                         origin_ + buf_.size());
    if (!saw_end_)
        loss.truncated = true;
    loss.pebs_dropped = saturatingLoss(expected_pebs_, trace.pebs.size());
    loss.sync_dropped = saturatingLoss(expected_sync_, trace.sync.size());
    for (uint32_t core = 0; core < expected_pt_; ++core) {
        if (!pt_assigned_[core])
            ++loss.pt_streams_dropped;
    }
    buf_.clear();
    return std::move(loaded_);
}

Result<LoadedTrace, TraceError>
readTrace(const std::vector<uint8_t> &bytes, const std::string &context)
{
    TraceReader reader(context);
    reader.feed(bytes);
    return reader.finish();
}

Result<LoadedTrace, TraceError>
readTraceFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return TraceError{TraceErrorKind::kIo,
                          "cannot open trace file", 0, path};
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size > 0 ? size : 0));
    const size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size())
        return TraceError{TraceErrorKind::kIo,
                          detail::concat("short read (got ", got, " of ",
                                         bytes.size(), " bytes)"),
                          got, path};
    return readTrace(bytes, path);
}

RunTrace
deserializeTrace(const std::vector<uint8_t> &bytes)
{
    auto result = readTrace(bytes);
    if (!result.ok())
        PRORACE_FATAL(result.error().format());
    if (result.value().loss.hasLoss())
        warn("trace loaded with loss: ", result.value().loss.summary());
    return std::move(result.value().trace);
}

void
saveTrace(const RunTrace &trace, const std::string &path)
{
    const std::vector<uint8_t> bytes = serializeTrace(trace);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        PRORACE_FATAL("cannot open trace file for writing: ", path);
    const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (written != bytes.size())
        PRORACE_FATAL("short write to trace file ", path, ": wrote ",
                      written, " of ", bytes.size(),
                      " bytes (failed at byte offset ", written, ")");
}

RunTrace
loadTrace(const std::string &path)
{
    auto result = readTraceFile(path);
    if (!result.ok())
        PRORACE_FATAL(result.error().format());
    if (result.value().loss.hasLoss())
        warn("trace ", path, " loaded with loss: ",
             result.value().loss.summary());
    return std::move(result.value().trace);
}

} // namespace prorace::trace
