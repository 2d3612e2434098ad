/**
 * @file
 * The columnar trace format (v5 payloads; v6 adds the recorded PT
 * filter to the meta segment): field-exact round trips over random
 * traces and recorded filters, run-block detection and its compression
 * floor, resumable cursor parity at every chunking, corruption
 * behavior of the columnar payloads, the version gate, and — the
 * correctness contract of the whole layer — byte-identical race
 * reports between the compressed path and the in-memory path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/offline.hh"
#include "core/pipeline.hh"
#include "detect/fasttrack.hh"
#include "fault_injection.hh"
#include "oracle/generator.hh"
#include "support/crc32.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"
#include "workload/racybugs.hh"

namespace prorace {
namespace {

using trace::RunTrace;
using vm::SyncKind;

/**
 * A pseudo-random trace that exercises every encoder path: records
 * with locality (sequential same-thread addresses and insns, sparse
 * register churn), records with none (fully random fields), planted
 * strided loop blocks (run-block candidates), plus a random sync
 * stream and PT streams.
 */
RunTrace
randomTrace(uint64_t seed, size_t pebs_records = 900,
            size_t sync_records = 300)
{
    Rng rng(seed);
    RunTrace t;
    t.meta.num_cores = 2;
    t.meta.wall_cycles = rng.next();
    t.meta.total_insns = rng.next();
    t.meta.pebs_period = 1000;
    t.meta.samples_taken = pebs_records;
    t.meta.first_periods = {rng.below(1000), rng.below(1000)};
    for (uint32_t tid = 1; tid <= 3; ++tid)
        t.meta.threads.push_back({tid, static_cast<uint32_t>(
                                           rng.below(5000))});

    uint64_t tsc = 1000;
    std::map<uint32_t, trace::PebsRecord> last_of_tid;
    while (t.pebs.size() < pebs_records) {
        tsc += rng.range(1, 300);
        const uint32_t tid = 1 + static_cast<uint32_t>(rng.below(3));
        trace::PebsRecord rec = last_of_tid.count(tid)
            ? last_of_tid[tid]
            : trace::PebsRecord{};
        rec.tid = tid;
        rec.core = static_cast<uint32_t>(rng.below(2));
        rec.tsc = tsc;
        if (rng.chance(0.3)) {
            // No locality: every field fresh and random.
            rec.insn_index = static_cast<uint32_t>(rng.next());
            rec.addr = rng.next();
            rec.width = static_cast<uint8_t>(1u << rng.below(4));
            rec.is_write = rng.chance(0.5);
            rec.is_atomic = rng.chance(0.1);
            for (uint64_t &g : rec.regs.gpr)
                g = rng.next();
        } else {
            // Locality: the common case the columns are shaped for.
            rec.insn_index += static_cast<uint32_t>(rng.below(12));
            rec.addr += rng.below(64);
            for (size_t i = 0; i < rng.below(3); ++i)
                rec.regs.gpr[rng.below(isa::kNumGprs)] += rng.below(256);
        }
        last_of_tid[rec.tid] = rec;
        t.pebs.push_back(rec);

        if (rng.chance(0.08) && t.pebs.size() + 16 < pebs_records) {
            // Plant a strided loop: a block of 1..3 records repeated
            // with constant addr/tsc strides — what a sampled hot loop
            // looks like, and what the run detector is for.
            const size_t block = 1 + rng.below(3);
            const size_t iters = 2 + rng.below(5);
            std::vector<trace::PebsRecord> body;
            for (size_t b = 0; b < block; ++b) {
                trace::PebsRecord r = rec;
                r.insn_index = static_cast<uint32_t>(100 + b);
                r.addr = 0x7000 + 8 * b;
                r.tsc = tsc + b + 1;
                body.push_back(r);
            }
            for (size_t it = 0; it < iters; ++it) {
                for (size_t b = 0; b < block; ++b) {
                    trace::PebsRecord r = body[b];
                    r.addr += 32 * it;
                    r.tsc += (block + 3) * it;
                    r.regs.gpr[3] += it;
                    t.pebs.push_back(r);
                }
            }
            tsc += (block + 3) * iters + 16;
            last_of_tid[rec.tid] = t.pebs.back();
        }
    }
    t.pebs.resize(pebs_records);

    uint64_t stsc = 500;
    for (size_t i = 0; i < sync_records; ++i) {
        trace::SyncRecord s;
        stsc += rng.range(1, 500);
        s.tid = 1 + static_cast<uint32_t>(rng.below(3));
        s.kind = static_cast<SyncKind>(rng.below(vm::kMaxSyncKind + 1ull));
        s.object = rng.chance(0.7) ? 0x9000 + 16 * rng.below(8)
                                   : rng.next();
        // Spawn and join name a thread in aux, which the decoder checks
        // against the thread limit like any tid.
        const bool names_thread =
            s.kind == SyncKind::kSpawn || s.kind == SyncKind::kJoin;
        s.aux = rng.below(names_thread ? trace::kMaxThreads : 1u << 20);
        s.tsc = stsc;
        s.insn_index = static_cast<uint32_t>(rng.below(5000));
        t.sync.push_back(s);
    }

    for (uint32_t core = 0; core < 2; ++core) {
        trace::PtCoreStream pt;
        pt.bytes.resize(64 + rng.below(256));
        for (uint8_t &b : pt.bytes)
            b = static_cast<uint8_t>(rng.next());
        pt.bit_count = pt.bytes.size() * 8;
        t.pt.push_back(pt);
    }
    return t;
}

/**
 * PT filters a trace can record: everything, one range, and the
 * hardware's four (one reaching the top of the index space).
 */
std::vector<trace::PtFilter>
recordedFilters()
{
    trace::PtFilter one;
    one.addRange(16, 4096);
    trace::PtFilter four;
    four.addRange(0, 0);
    four.addRange(100, 2000);
    four.addRange(0x10000, 0x10040);
    four.addRange(0x7FFFFFF0u, 0xFFFFFFFFu);
    return {trace::PtFilter::all(), one, four};
}

void
expectTracesEqual(const RunTrace &a, const RunTrace &b)
{
    ASSERT_EQ(a.meta.pt_filter.isAll(), b.meta.pt_filter.isAll());
    ASSERT_EQ(a.meta.pt_filter.ranges(), b.meta.pt_filter.ranges());
    ASSERT_EQ(a.pebs.size(), b.pebs.size());
    for (size_t i = 0; i < a.pebs.size(); ++i) {
        const trace::PebsRecord &x = a.pebs[i];
        const trace::PebsRecord &y = b.pebs[i];
        ASSERT_EQ(x.tid, y.tid) << "pebs " << i;
        ASSERT_EQ(x.core, y.core) << "pebs " << i;
        ASSERT_EQ(x.insn_index, y.insn_index) << "pebs " << i;
        ASSERT_EQ(x.addr, y.addr) << "pebs " << i;
        ASSERT_EQ(x.width, y.width) << "pebs " << i;
        ASSERT_EQ(x.is_write, y.is_write) << "pebs " << i;
        ASSERT_EQ(x.is_atomic, y.is_atomic) << "pebs " << i;
        ASSERT_EQ(x.tsc, y.tsc) << "pebs " << i;
        ASSERT_EQ(x.regs.gpr, y.regs.gpr) << "pebs " << i;
    }
    ASSERT_EQ(a.sync.size(), b.sync.size());
    for (size_t i = 0; i < a.sync.size(); ++i) {
        const trace::SyncRecord &x = a.sync[i];
        const trace::SyncRecord &y = b.sync[i];
        ASSERT_EQ(x.tid, y.tid) << "sync " << i;
        ASSERT_EQ(x.kind, y.kind) << "sync " << i;
        ASSERT_EQ(x.object, y.object) << "sync " << i;
        ASSERT_EQ(x.aux, y.aux) << "sync " << i;
        ASSERT_EQ(x.tsc, y.tsc) << "sync " << i;
        ASSERT_EQ(x.insn_index, y.insn_index) << "sync " << i;
    }
    ASSERT_EQ(a.pt.size(), b.pt.size());
    for (size_t i = 0; i < a.pt.size(); ++i) {
        ASSERT_EQ(a.pt[i].bytes, b.pt[i].bytes) << "pt " << i;
        ASSERT_EQ(a.pt[i].bit_count, b.pt[i].bit_count) << "pt " << i;
    }
}

TEST(TraceFormatV5, RoundTripRandomTracesFieldExact)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        for (const trace::PtFilter &filter : recordedFilters()) {
            RunTrace t = randomTrace(seed);
            t.meta.pt_filter = filter;
            const std::vector<uint8_t> bytes = trace::serializeTrace(t);
            auto loaded = trace::readTrace(bytes);
            ASSERT_TRUE(loaded.ok()) << "seed " << seed;
            EXPECT_FALSE(loaded.value().loss.hasLoss())
                << "seed " << seed;
            expectTracesEqual(t, loaded.value().trace);
            // Deterministic encoder: re-serializing the decoded trace
            // reproduces the file byte for byte (the service relies on
            // this to dedup/re-export ingested traces).
            EXPECT_EQ(trace::serializeTrace(loaded.value().trace), bytes)
                << "seed " << seed;
        }
    }
}

TEST(TraceFormatV5, SampledLoopHitsCompressionFloor)
{
    // A pure sampled loop: one thread hammering a strided buffer at a
    // fixed period — the best case the columns and run blocks are
    // designed around, and the ISSUE floor for it is >= 3x on the PEBS
    // stream.
    RunTrace t;
    t.meta.num_cores = 1;
    t.meta.threads.push_back({1, 0});
    trace::PebsRecord rec;
    rec.tid = 1;
    rec.core = 0;
    rec.insn_index = 4242;
    rec.width = 8;
    rec.is_write = true;
    for (size_t i = 0; i < 2000; ++i) {
        rec.addr = 0x100000 + 8 * i;
        rec.tsc = 1000 + 1000 * i;
        rec.regs.gpr[0] = i;
        rec.regs.gpr[5] = 0x100000 + 8 * i;
        t.pebs.push_back(rec);
    }
    const std::vector<uint8_t> bytes = trace::serializeTrace(t);
    auto loaded = trace::readTrace(bytes);
    ASSERT_TRUE(loaded.ok());
    expectTracesEqual(t, loaded.value().trace);

    const trace::CompressionStats &cs =
        loaded.value().trace.meta.compression;
    EXPECT_EQ(cs.pebs_raw_bytes, 2000u * 159u);
    EXPECT_GE(cs.pebsRatio(), 3.0)
        << cs.pebs_raw_bytes << " -> " << cs.pebs_encoded_bytes;
    // The whole stream is one arithmetic sequence: nearly every record
    // must be elided into run blocks.
    EXPECT_GT(cs.run_blocks, 0u);
    EXPECT_GE(cs.run_iterations_folded, t.pebs.size() / 2);
}

TEST(TraceFormatV5, StrideCarriedPastTheTopDropsItsSegment)
{
    // One arithmetic sequence of PEBS addresses that climbs over the
    // top of the address space inside the second segment. The writer
    // folds it into run blocks, so the record whose span wraps is an
    // expanded iteration, not a stored one. The reader checks every
    // expanded record: that segment is dropped whole and its
    // neighbours survive field-exact.
    RunTrace t;
    t.meta.num_cores = 1;
    t.meta.threads.push_back({1, 0});
    trace::PebsRecord rec;
    rec.tid = 1;
    rec.core = 0;
    rec.insn_index = 4242;
    rec.width = 8;
    const size_t n = 2 * trace::kPebsChunkRecords + 100;
    const size_t wrapping = trace::kPebsChunkRecords + 143;
    for (size_t i = 0; i < n; ++i) {
        // Record `wrapping` spans the last 8 bytes; the next starts at 0.
        rec.addr = ~uint64_t{0} - 7 - 8 * wrapping + 8 * i;
        rec.tsc = 1000 + 1000 * i;
        t.pebs.push_back(rec);
    }
    ASSERT_EQ(t.pebs[wrapping].addr, ~uint64_t{0} - 7);
    const std::vector<uint8_t> bytes = trace::serializeTrace(t);
    auto loaded = trace::readTrace(bytes);
    ASSERT_TRUE(loaded.ok());
    const trace::SegmentLoss &loss = loaded.value().loss;
    EXPECT_EQ(loss.segments_dropped, 1u);
    EXPECT_EQ(loss.pebs_dropped, trace::kPebsChunkRecords);
    EXPECT_GT(loaded.value().trace.meta.compression.run_iterations_folded,
              n / 2);

    RunTrace kept = t;
    kept.pebs.erase(kept.pebs.begin() + trace::kPebsChunkRecords,
                    kept.pebs.begin() + 2 * trace::kPebsChunkRecords);
    expectTracesEqual(kept, loaded.value().trace);
}

TEST(TraceFormatV5, CursorParityAtEveryChunkSize)
{
    for (const trace::PtFilter &filter : recordedFilters()) {
        RunTrace t = randomTrace(77);
        t.meta.pt_filter = filter;
        const std::vector<uint8_t> bytes = trace::serializeTrace(t);
        auto oneshot = trace::readTrace(bytes);
        ASSERT_TRUE(oneshot.ok());
        expectTracesEqual(t, oneshot.value().trace);

        for (size_t chunk : {size_t(1), size_t(7), size_t(64),
                             size_t(4096), bytes.size()}) {
            trace::TraceReader reader("<chunked>");
            for (size_t off = 0; off < bytes.size(); off += chunk) {
                const size_t len = std::min(chunk, bytes.size() - off);
                reader.feed(bytes.data() + off, len);
                reader.poll();
            }
            auto streamed = reader.finish();
            ASSERT_TRUE(streamed.ok()) << "chunk " << chunk;
            EXPECT_FALSE(streamed.value().loss.hasLoss())
                << "chunk " << chunk;
            expectTracesEqual(oneshot.value().trace,
                              streamed.value().trace);
            EXPECT_EQ(trace::serializeTrace(streamed.value().trace),
                      bytes)
                << "chunk " << chunk;
        }
    }
}

TEST(TraceFormatV5, VersionErrorNamesBothVersions)
{
    std::vector<uint8_t> bytes =
        trace::serializeTrace(randomTrace(5, 50, 20));
    // The previous version's file: v5, which has no PT filter in its
    // meta segment.
    bytes[4] = static_cast<uint8_t>(trace::kTraceVersion - 1);
    auto loaded = trace::readTrace(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, trace::TraceErrorKind::kBadVersion);
    const std::string msg = loaded.error().format();
    EXPECT_NE(msg.find("version 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("version 6"), std::string::npos) << msg;
}

TEST(TraceFormatV5, ColumnarPayloadCorruptionDropsWholeSegments)
{
    const RunTrace t = randomTrace(9, 1200, 600);
    const std::vector<uint8_t> bytes = trace::serializeTrace(t);
    const auto spans = fault::mapSegments(bytes);

    // Flip one payload byte in every pebs/sync segment in turn: each
    // must surface as that segment's records dropped, never a crash or
    // a misdecoded record sneaking through (the CRC gates the columns).
    for (const fault::SegmentSpan &s : spans) {
        if (s.kind != 2 && s.kind != 3)
            continue;
        std::vector<uint8_t> damaged = bytes;
        const size_t mid = s.begin + 25 + (s.end - s.begin - 25) / 2;
        damaged[mid] ^= 0x40;
        auto loaded = trace::readTrace(damaged);
        ASSERT_TRUE(loaded.ok());
        const trace::SegmentLoss &loss = loaded.value().loss;
        EXPECT_EQ(loss.segments_dropped, 1u);
        if (s.kind == 2) {
            EXPECT_GT(loss.pebs_dropped, 0u);
            EXPECT_LE(loss.pebs_dropped, trace::kPebsChunkRecords);
        } else {
            EXPECT_GT(loss.sync_dropped, 0u);
            EXPECT_LE(loss.sync_dropped, trace::kSyncChunkRecords);
        }
    }
}

TEST(TraceFormatV5, SalvageRecallFloorUnderSparseCorruption)
{
    // ISSUE floor: at <= 1% corruption the reader must still salvage
    // >= 90% of the records. Damage ~1% of the segments (at least one)
    // across several seeds and check the recall of what survives.
    const RunTrace t = randomTrace(11, 4000, 2000);
    const std::vector<uint8_t> bytes = trace::serializeTrace(t);
    const auto spans = fault::mapSegments(bytes);
    const size_t hit = std::max<size_t>(1, spans.size() / 100);

    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        std::vector<uint8_t> damaged = bytes;
        for (size_t k = 0; k < hit; ++k) {
            const fault::SegmentSpan &s =
                spans[rng.below(spans.size())];
            damaged[s.begin + 25 +
                    rng.below(std::max<size_t>(1,
                                               s.end - s.begin - 25))] ^=
                static_cast<uint8_t>(1u << rng.below(8));
        }
        auto loaded = trace::readTrace(damaged);
        if (!loaded.ok())
            continue; // hit the meta segment: clean reject is fine
        const RunTrace &got = loaded.value().trace;
        EXPECT_GE(got.pebs.size(), t.pebs.size() * 9 / 10)
            << "seed " << seed;
        EXPECT_GE(got.sync.size(), t.sync.size() * 9 / 10)
            << "seed " << seed;
    }
}

TEST(TraceFormatV5, RandomBitFlipSweepNeverCrashes)
{
    const RunTrace t = randomTrace(13, 600, 300);
    const std::vector<uint8_t> bytes = trace::serializeTrace(t);
    for (uint64_t seed = 1; seed <= 30; ++seed) {
        for (size_t flips : {1u, 8u, 64u}) {
            std::vector<uint8_t> damaged = bytes;
            Rng rng(seed * 100 + flips);
            fault::flipRandomBits(damaged, flips, rng);
            auto loaded = trace::readTrace(damaged);
            if (loaded.ok()) {
                // Whatever survived must re-serialize cleanly.
                trace::serializeTrace(loaded.value().trace);
            }
        }
    }
}

// --- sync vocabulary: kind-exhaustive coverage --------------------

TEST(TraceFormatV5, SyncKindVocabularyRoundTripsExhaustively)
{
    // Every SyncKind — including the rwlock/semaphore/spinlock/atomic
    // additions — must survive the sync columns byte for byte. The
    // guard below fails when a kind is added without extending this
    // coverage.
    ASSERT_EQ(vm::kMaxSyncKind,
              static_cast<uint8_t>(SyncKind::kAtomicAcqRel))
        << "new SyncKind added: extend the vocabulary tests";

    std::set<std::string> names;
    for (unsigned k = 0; k <= vm::kMaxSyncKind; ++k) {
        const char *name = vm::syncKindName(static_cast<SyncKind>(k));
        ASSERT_NE(name, nullptr) << "kind " << k;
        ASSERT_TRUE(names.insert(name).second)
            << "duplicate name for kind " << k << ": " << name;
    }

    RunTrace t;
    t.meta.num_cores = 1;
    for (uint32_t tid = 1; tid <= 3; ++tid)
        t.meta.threads.push_back({tid, 0});
    uint64_t tsc = 100;
    for (unsigned round = 0; round < 4; ++round) {
        for (unsigned k = 0; k <= vm::kMaxSyncKind; ++k) {
            trace::SyncRecord s;
            s.tid = 1 + (round + k) % 3;
            s.kind = static_cast<SyncKind>(k);
            s.object = 0x9000 + 16 * k;
            s.aux = k * 7 + round;
            s.tsc = tsc += 3 + k;
            s.insn_index = 40 + k;
            t.sync.push_back(s);
        }
    }

    const std::vector<uint8_t> bytes = trace::serializeTrace(t);
    auto loaded = trace::readTrace(bytes);
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded.value().loss.hasLoss());
    expectTracesEqual(t, loaded.value().trace);
    EXPECT_EQ(trace::serializeTrace(loaded.value().trace), bytes);
}

/** LEB128 decode starting at @p pos; advances @p pos. */
uint64_t
varintAt(const std::vector<uint8_t> &bytes, size_t &pos)
{
    uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
        const uint8_t b = bytes.at(pos++);
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
    }
}

/**
 * Offset of the first byte of the kind column inside the sync segment
 * at @p span, and the record count, parsed from the payload framing
 * (first-index u64, count varint, then per-column length-prefixed
 * blocks; the kind column is column 1).
 */
std::pair<size_t, uint64_t>
syncKindColumn(const std::vector<uint8_t> &bytes,
               const fault::SegmentSpan &span)
{
    size_t pos = span.begin + 25 + 8; // header + first-record index
    const uint64_t count = varintAt(bytes, pos);
    const uint64_t tid_len = varintAt(bytes, pos);
    pos += static_cast<size_t>(tid_len);
    const uint64_t kind_len = varintAt(bytes, pos);
    PRORACE_ASSERT(kind_len == count, "kind column is one u8 per record");
    return {pos, count};
}

/** Recompute the payload CRC of the segment at @p span in place. */
void
fixPayloadCrc(std::vector<uint8_t> &bytes, const fault::SegmentSpan &span)
{
    const uint32_t crc = crc32(bytes.data() + span.begin + 25,
                               span.end - span.begin - 25);
    for (int i = 0; i < 4; ++i)
        bytes[span.begin + 21 + i] =
            static_cast<uint8_t>(crc >> (8 * i));
}

TEST(TraceFormatV5, OutOfRangeKindByteDropsTheSegmentCleanly)
{
    // A kind byte above kMaxSyncKind with a *valid* CRC (a producer
    // from the future, or memory corruption before checksumming) must
    // drop the segment through salvage — never dispatch as garbage.
    const RunTrace t = randomTrace(21, 60, 200);
    const std::vector<uint8_t> bytes = trace::serializeTrace(t);
    const auto spans = fault::mapSegments(bytes);
    const fault::SegmentSpan *sync_span = nullptr;
    for (const fault::SegmentSpan &s : spans)
        if (s.kind == 3) {
            sync_span = &s;
            break;
        }
    ASSERT_NE(sync_span, nullptr);
    const auto [kind_pos, count] = syncKindColumn(bytes, *sync_span);

    // Control: rewriting the first kind byte to a different *valid*
    // kind with the CRC fixed up decodes cleanly — proving the CRC
    // patch works and the later drop is the range check's doing.
    std::vector<uint8_t> retagged = bytes;
    retagged[kind_pos] =
        retagged[kind_pos] == 0 ? 1 : 0;
    fixPayloadCrc(retagged, *sync_span);
    auto control = trace::readTrace(retagged);
    ASSERT_TRUE(control.ok());
    EXPECT_FALSE(control.value().loss.hasLoss());
    EXPECT_EQ(static_cast<uint8_t>(control.value().trace.sync[0].kind),
              retagged[kind_pos]);

    for (const uint8_t bad : {
             static_cast<uint8_t>(vm::kMaxSyncKind + 1),
             static_cast<uint8_t>(0xE7),
             static_cast<uint8_t>(0xFF),
         }) {
        std::vector<uint8_t> damaged = bytes;
        damaged[kind_pos + count / 2] = bad;
        fixPayloadCrc(damaged, *sync_span);
        auto loaded = trace::readTrace(damaged);
        ASSERT_TRUE(loaded.ok()) << unsigned(bad);
        const trace::SegmentLoss &loss = loaded.value().loss;
        EXPECT_EQ(loss.segments_dropped, 1u) << unsigned(bad);
        EXPECT_EQ(loss.sync_dropped, count) << unsigned(bad);
        for (const trace::SyncRecord &s : loaded.value().trace.sync)
            ASSERT_LE(static_cast<uint8_t>(s.kind), vm::kMaxSyncKind);
    }
}

TEST(TraceFormatV5, SyncLossDisablesEpochGcForEveryKind)
{
    // The GC soundness argument needs the full sync stream; once any
    // sync segment is lost — whatever kinds it held — the streaming
    // analyzer must fall back to an unswept table.
    oracle::GeneratorConfig cfg;
    cfg.seed = 23;
    cfg.threads = 4;
    cfg.items = 60;
    cfg.racy_sites = 1;
    cfg.rw_locked_sites = 1;
    cfg.sem_signal_sites = 1;
    cfg.spin_locked_sites = 1;
    cfg.relacq_sites = 1;
    const oracle::GeneratedWorkload gw = oracle::generate(cfg);
    core::PipelineConfig pc =
        core::proRaceConfig(400, 8, gw.workload.pt_filter);
    pc.offline.incremental.enabled = true;
    pc.offline.incremental.batch_events = 256;
    pc.offline.incremental.gc_min_events = 64;
    core::RunArtifacts run = core::Session::run(
        *gw.workload.program, gw.workload.setup, pc.session);
    const std::vector<uint8_t> bytes = trace::serializeTrace(run.trace);

    const std::string path = "/tmp/prorace_sync_loss_gc.trace";
    const auto write_file = [&](const std::vector<uint8_t> &data) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f),
                  data.size());
        std::fclose(f);
    };

    core::OfflineAnalyzer analyzer(*gw.workload.program, pc.offline);
    write_file(bytes);
    auto clean = analyzer.analyzeFile(path);
    ASSERT_TRUE(clean.ok());
    ASSERT_FALSE(clean.value().ingest_loss.hasLoss());
    // The clean run must actually sweep, or disabling GC proves nothing.
    ASSERT_GT(clean.value().incremental.gc_sweeps, 0u);

    std::vector<uint8_t> damaged = bytes;
    bool hit = false;
    for (const fault::SegmentSpan &s : fault::mapSegments(bytes)) {
        if (s.kind != 3)
            continue;
        damaged[s.begin + 25 + (s.end - s.begin - 25) / 2] ^= 0x10;
        hit = true;
        break;
    }
    ASSERT_TRUE(hit);
    write_file(damaged);
    auto lossy = analyzer.analyzeFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(lossy.ok());
    EXPECT_GT(lossy.value().ingest_loss.sync_dropped, 0u);
    EXPECT_EQ(lossy.value().incremental.gc_sweeps, 0u);
    EXPECT_GT(lossy.value().incremental.batches, 0u)
        << "batching must stay on; only the sweeps stop";
}

// --- streaming detection over repeated-access runs ----------------

/**
 * A deterministic hand-built detection input: two threads, a hot
 * repeated-write run, a shared-read run, and one real race. Returns the
 * sync-only RunTrace and the access list.
 */
void
buildFoldScenario(RunTrace &run,
                  std::vector<replay::ReconstructedAccess> &accesses)
{
    run.meta.threads.push_back({1, 0});
    run.meta.threads.push_back({2, 0});

    auto sync = [&](uint32_t tid, SyncKind kind, uint64_t object,
                    uint64_t aux, uint64_t tsc) {
        trace::SyncRecord s;
        s.tid = tid;
        s.kind = kind;
        s.object = object;
        s.aux = aux;
        s.tsc = tsc;
        run.sync.push_back(s);
    };
    auto access = [&](uint32_t tid, uint64_t addr, bool is_write,
                      uint64_t tsc, uint32_t insn) {
        replay::ReconstructedAccess a;
        a.tid = tid;
        a.insn_index = insn;
        a.addr = addr;
        a.width = 8;
        a.is_write = is_write;
        a.tsc = tsc;
        a.position = tsc;
        a.origin = detect::AccessOrigin::kSampled;
        accesses.push_back(a);
    };

    sync(1, SyncKind::kSpawn, 0, 2, 10);
    // Repeated-write run: thread 1 writes the same granule 12 times
    // with no intervening event (same-epoch fast path after the first).
    for (uint64_t i = 0; i < 12; ++i)
        access(1, 0x1000, true, 100 + i, 7);
    // Shared-read run: both threads read the granule (read-share
    // inflation), then thread 2 re-reads it 6 times; the shared-read
    // sample tracks the latest reader's timestamp.
    access(1, 0x2000, false, 200, 8);
    access(2, 0x2000, false, 210, 9);
    for (uint64_t i = 0; i < 6; ++i)
        access(2, 0x2000, false, 220 + i, 9);
    // One real race so the identity check compares nonempty reports.
    access(1, 0x3000, true, 300, 10);
    access(2, 0x3000, true, 310, 11);
}

TEST(DetectFeed, StreamingMatchesOneShotOnRepeatedRuns)
{
    RunTrace run;
    std::vector<replay::ReconstructedAccess> accesses;
    buildFoldScenario(run, accesses);
    const std::map<uint32_t, replay::ThreadAlignment> alignments;

    detect::RaceReport oneshot;
    detect::FastTrackStats os;
    core::detail::detectRaces(run, alignments, accesses, oneshot, os);
    EXPECT_FALSE(oneshot.empty());

    detect::IncrementalOptions opts;
    opts.enabled = true;
    opts.batch_events = 4; // batch boundaries fall inside both runs
    detect::FastTrack inc(opts);
    for (const trace::ThreadMeta &tm : run.meta.threads)
        inc.requireThread(tm.tid);
    core::detail::detectRacesIncremental(run, alignments, accesses, inc);
    EXPECT_EQ(inc.report().format(), oneshot.format());

    // Every feed event is dispatched exactly once, in either mode (each
    // access touches one granule, so it is one read or write check).
    const uint64_t feed = accesses.size() + run.sync.size();
    EXPECT_EQ(os.reads + os.writes + os.sync_ops, feed);
    const detect::FastTrackStats is = inc.stats();
    EXPECT_EQ(is.reads, os.reads);
    EXPECT_EQ(is.writes, os.writes);
    EXPECT_EQ(is.epoch_fast_path, os.epoch_fast_path);
    EXPECT_EQ(is.read_shares, os.read_shares);
    EXPECT_EQ(is.sync_ops, os.sync_ops);
    EXPECT_EQ(inc.incrementalStats().events, feed);
    // One boundary per full batch, wherever it falls in a run, plus
    // the closing one from finish().
    EXPECT_EQ(inc.incrementalStats().batches,
              feed / opts.batch_events + 1);
}

// --- end-to-end report identity over the compressed format --------

/** Analyze a RunTrace directly. */
std::string
reportOf(const workload::Workload &w, const core::OfflineOptions &opt,
         const RunTrace &run)
{
    core::OfflineAnalyzer analyzer(*w.program, opt);
    return analyzer.analyze(run).report.format(w.program.get());
}

TEST(TraceFormatV5, ReportIdentityOnRegistrySubjects)
{
    // The tentpole gate: for real traced subjects, analysis of the
    // decoded v5 stream equals analysis of the in-memory trace, byte
    // for byte.
    for (const char *id : {"pfscan", "apache-25520"}) {
        const workload::Workload w = workload::makeRacyBug(id, 0.5);
        core::PipelineConfig cfg =
            core::proRaceConfig(800, 3, w.pt_filter);
        core::RunArtifacts run =
            core::Session::run(*w.program, w.setup, cfg.session);

        auto loaded =
            trace::readTrace(trace::serializeTrace(run.trace));
        ASSERT_TRUE(loaded.ok()) << id;
        ASSERT_FALSE(loaded.value().loss.hasLoss()) << id;

        EXPECT_EQ(reportOf(w, cfg.offline, loaded.value().trace),
                  reportOf(w, cfg.offline, run.trace))
            << id;
    }
}

TEST(TraceFormatV5, ReportIdentityOnOracleBattery)
{
    // Same gate over planted-race workloads with exact ground truth:
    // the compressed path must not add or lose a single race.
    for (const oracle::GeneratorConfig &cfg :
         oracle::standardBattery(/*seed=*/5, /*count=*/2)) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc = core::proRaceConfig(
            500, 12, gw.workload.pt_filter);
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);

        auto loaded =
            trace::readTrace(trace::serializeTrace(run.trace));
        ASSERT_TRUE(loaded.ok()) << gw.workload.name;
        ASSERT_FALSE(loaded.value().loss.hasLoss()) << gw.workload.name;

        EXPECT_EQ(reportOf(gw.workload, pc.offline, loaded.value().trace),
                  reportOf(gw.workload, pc.offline, run.trace))
            << gw.workload.name;
    }
}

} // namespace
} // namespace prorace
