/**
 * @file
 * Fault-tolerant ingestion: damaged traces must degrade the analysis,
 * never crash it. Sweeps truncation across every byte boundary, flips
 * seeded random bits, drops whole segments, and checks the two recovery
 * layers underneath — segment skip-over in trace/trace_file and PSB
 * resynchronization in pmu/pt_decode — both in isolation and through
 * the full pipeline on a racy-bug trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/offline.hh"
#include "core/pipeline.hh"
#include "fault_injection.hh"
#include "pmu/pt_decode.hh"
#include "service/service.hh"
#include "trace/trace_file.hh"
#include "workload/racybugs.hh"

namespace prorace {
namespace {

/** One traced racy-bug run, shared by the tests that only read it. */
struct TracedBug {
    workload::Workload workload;
    core::PipelineConfig cfg;
    std::vector<uint8_t> bytes;
};

TracedBug
traceBug(const char *id, uint64_t period, uint64_t seed,
         double scale = 0.5)
{
    TracedBug tb{workload::makeRacyBug(id, scale), {}, {}};
    tb.cfg = core::proRaceConfig(period, seed,
                                 tb.workload.pt_filter);
    core::RunArtifacts run = core::Session::run(
        *tb.workload.program, tb.workload.setup, tb.cfg.session);
    tb.bytes = trace::serializeTrace(run.trace);
    return tb;
}

/** A small default subject for the format-level tests. */
const TracedBug &
smallTrace()
{
    static const TracedBug tb = traceBug("pfscan", 1000, 7);
    return tb;
}

TEST(FaultTolerance, CleanTraceHasNoLossAndRoundTrips)
{
    const TracedBug &tb = smallTrace();
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded.value().loss.hasLoss());
    // Ingest must be lossless: writing the trace back reproduces the
    // file byte for byte.
    EXPECT_EQ(trace::serializeTrace(loaded.value().trace), tb.bytes);
}

TEST(FaultTolerance, TruncationAtEveryByteNeverCrashes)
{
    // Clip the file at every possible byte boundary — every record
    // kind, header field, and payload gets cut mid-way somewhere in
    // this sweep. Each clip must yield a clean Result (value or
    // error), never an abort or exception.
    const TracedBug &tb = smallTrace();
    size_t values = 0, errors = 0;
    for (size_t keep = 0; keep < tb.bytes.size(); ++keep) {
        std::vector<uint8_t> clipped = tb.bytes;
        fault::truncateAt(clipped, keep);
        auto loaded = trace::readTrace(clipped);
        if (!loaded.ok()) {
            ++errors;
            continue;
        }
        ++values;
        // Anything short of the full file must be flagged as damaged.
        EXPECT_TRUE(loaded.value().loss.hasLoss()) << "keep=" << keep;
    }
    // Short prefixes (no readable meta) are errors; once the meta
    // segment fits, clips must ingest with loss accounting.
    EXPECT_GT(errors, 0u);
    EXPECT_GT(values, 0u);
}

TEST(FaultTolerance, SeededBitFlipsNeverCrash)
{
    const TracedBug &tb = smallTrace();
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        for (size_t flips : {1u, 4u, 16u}) {
            std::vector<uint8_t> damaged = tb.bytes;
            Rng rng(seed * 1000 + flips);
            fault::flipRandomBits(damaged, flips, rng);
            auto loaded = trace::readTrace(damaged);
            if (!loaded.ok())
                continue; // flipped the version/meta: clean reject
            // The surviving records must flow through the full
            // analysis without throwing.
            core::OfflineAnalyzer analyzer(*tb.workload.program,
                                   tb.cfg.offline);
            analyzer.analyze(loaded.value().trace);
        }
    }
}

TEST(FaultTolerance, DroppedSegmentsAreReconciledAgainstMeta)
{
    const TracedBug &tb = smallTrace();
    const auto spans = fault::mapSegments(tb.bytes);
    // Removing one PEBS and one sync segment outright (the dropped
    // aux-buffer chunk) must surface as record loss, not as an error.
    std::vector<uint8_t> damaged(tb.bytes.begin(),
                                 tb.bytes.begin() + 8);
    bool pebs_gone = false, sync_gone = false;
    for (const fault::SegmentSpan &s : spans) {
        const bool drop = (s.kind == 2 && !pebs_gone) ||
                          (s.kind == 3 && !sync_gone);
        if (drop) {
            pebs_gone = pebs_gone || s.kind == 2;
            sync_gone = sync_gone || s.kind == 3;
            continue;
        }
        damaged.insert(damaged.end(), tb.bytes.begin() + s.begin,
                       tb.bytes.begin() + s.end);
    }
    ASSERT_TRUE(pebs_gone && sync_gone) << "trace lacks pebs/sync";
    auto loaded = trace::readTrace(damaged);
    ASSERT_TRUE(loaded.ok());
    EXPECT_GT(loaded.value().loss.pebs_dropped, 0u);
    EXPECT_GT(loaded.value().loss.sync_dropped, 0u);
    EXPECT_FALSE(loaded.value().loss.truncated);
}

TEST(FaultTolerance, PtResyncRecoversAfterMidStreamDamage)
{
    const TracedBug &tb = smallTrace();
    // Clean decode: the writer plants PSB sync points and the decoder
    // sees them without ever resyncing.
    auto clean = trace::readTrace(tb.bytes);
    ASSERT_TRUE(clean.ok());
    pmu::PtDecodeStats clean_stats;
    auto clean_paths =
        pmu::decodePt(*tb.workload.program, tb.cfg.offline.pt_filter,
                      clean.value().trace, &clean_stats);
    EXPECT_GT(clean_stats.psb_packets, 0u);
    EXPECT_EQ(clean_stats.resyncs, 0u);
    ASSERT_FALSE(clean_paths.empty());

    // Smash one byte in the middle of the largest PT payload. The
    // reader salvages the stream (CRC is stale) and the decoder must
    // scan to the next PSB instead of dying or looping.
    const fault::SegmentSpan *pt = nullptr;
    const auto spans = fault::mapSegments(tb.bytes);
    for (const fault::SegmentSpan &s : spans) {
        if (s.kind == 4 && (!pt || s.end - s.begin > pt->end - pt->begin))
            pt = &s;
    }
    ASSERT_NE(pt, nullptr);
    std::vector<uint8_t> damaged = tb.bytes;
    const size_t mid = pt->begin + (pt->end - pt->begin) / 2;
    damaged[mid] ^= 0xff;

    auto loaded = trace::readTrace(damaged);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().loss.pt_streams_damaged, 1u);
    pmu::PtDecodeStats stats;
    auto paths =
        pmu::decodePt(*tb.workload.program, tb.cfg.offline.pt_filter,
                      loaded.value().trace, &stats);
    EXPECT_GE(stats.resyncs, 1u);
    // Resynchronization keeps the intact packets: paths still decode.
    uint64_t entries = 0;
    for (const auto &[tid, path] : paths)
        entries += path.insns.size();
    EXPECT_GT(entries, 0u);
}

TEST(FaultTolerance, MidTracePebsLossStillDetectsRace)
{
    // Dense sampling gives several PEBS chunks; losing a middle one
    // must be recorded as loss while the races evidenced by the
    // surviving chunks are still found. Schedules are uncontrolled, so
    // scan a few seeds for a trace whose bug detection survives the
    // damage (the clean trace must detect it first).
    bool proved = false;
    for (uint64_t seed = 1; seed <= 4 && !proved; ++seed) {
        TracedBug tb = traceBug("apache-25520", 100, seed, 0.8);
        auto clean = trace::readTrace(tb.bytes);
        ASSERT_TRUE(clean.ok());
        core::OfflineAnalyzer analyzer(*tb.workload.program,
                                       tb.cfg.offline);
        core::OfflineResult base =
            analyzer.analyze(clean.value().trace);
        if (!workload::bugDetected(tb.workload.bugs[0], base.report))
            continue;

        std::vector<const fault::SegmentSpan *> pebs;
        auto spans = fault::mapSegments(tb.bytes);
        for (const fault::SegmentSpan &s : spans) {
            if (s.kind == 2)
                pebs.push_back(&s);
        }
        ASSERT_GT(pebs.size(), 2u) << "expected several PEBS chunks";
        const fault::SegmentSpan *victim = pebs[pebs.size() / 2];
        std::vector<uint8_t> damaged = tb.bytes;
        damaged[victim->begin + 30] ^= 0x01; // payload bit flip

        auto loaded = trace::readTrace(damaged);
        ASSERT_TRUE(loaded.ok());
        EXPECT_GT(loaded.value().loss.pebs_dropped, 0u);
        core::OfflineResult hurt =
            analyzer.analyze(loaded.value().trace);
        proved = workload::bugDetected(tb.workload.bugs[0],
                                       hurt.report);
    }
    EXPECT_TRUE(proved)
        << "race lost in every seed after one-chunk PEBS loss";
}

TEST(FaultTolerance, UninterpretableInputsAreCleanErrors)
{
    using trace::TraceErrorKind;
    // Foreign bytes: not a trace at all.
    std::vector<uint8_t> garbage{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto bad_magic = trace::readTrace(garbage);
    ASSERT_FALSE(bad_magic.ok());
    EXPECT_EQ(bad_magic.error().kind, TraceErrorKind::kBadMagic);

    // Old/foreign version: rejected with advice, not misparsed.
    std::vector<uint8_t> old = smallTrace().bytes;
    old[4] = 3;
    auto bad_version = trace::readTrace(old);
    ASSERT_FALSE(bad_version.ok());
    EXPECT_EQ(bad_version.error().kind, TraceErrorKind::kBadVersion);

    // Too short for any segment.
    std::vector<uint8_t> stub(smallTrace().bytes.begin(),
                              smallTrace().bytes.begin() + 8);
    EXPECT_FALSE(trace::readTrace(stub).ok());

    // Damaged meta payload: the one segment the reader cannot lose.
    std::vector<uint8_t> meta_hit = smallTrace().bytes;
    auto spans = fault::mapSegments(meta_hit);
    ASSERT_EQ(spans[0].kind, 1u);
    meta_hit[spans[0].begin + 26] ^= 0x10;
    auto bad_meta = trace::readTrace(meta_hit);
    ASSERT_FALSE(bad_meta.ok());
    EXPECT_EQ(bad_meta.error().kind, TraceErrorKind::kCorruptMeta);

    // Unreadable path: kIo naming the file.
    auto no_file = trace::readTraceFile("/nonexistent/trace.bin");
    ASSERT_FALSE(no_file.ok());
    EXPECT_EQ(no_file.error().kind, TraceErrorKind::kIo);
    EXPECT_NE(no_file.error().format().find("/nonexistent/trace.bin"),
              std::string::npos);
}

TEST(FaultTolerance, WriterFatalNamesThePath)
{
    auto loaded = trace::readTrace(smallTrace().bytes);
    ASSERT_TRUE(loaded.ok());
    try {
        trace::saveTrace(loaded.value().trace,
                         "/nonexistent-dir/out.trace");
        FAIL() << "saveTrace to an unwritable path must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent-dir"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultTolerance, AnalyzeFileSurfacesErrorsAndLoss)
{
    const TracedBug &tb = smallTrace();
    const std::string path = "/tmp/prorace_fault_test.trace";

    // Damaged-but-usable file: analysis runs, loss is surfaced.
    std::vector<uint8_t> damaged = tb.bytes;
    auto spans = fault::mapSegments(damaged);
    for (const fault::SegmentSpan &s : spans) {
        if (s.kind == 2) {
            damaged[s.begin + 30] ^= 0x02;
            break;
        }
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(damaged.data(), 1, damaged.size(), f);
    std::fclose(f);

    core::OfflineAnalyzer analyzer(*tb.workload.program,
                                   tb.cfg.offline);
    auto result = analyzer.analyzeFile(path);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().ingest_loss.hasLoss());
    std::remove(path.c_str());

    auto missing = analyzer.analyzeFile("/nonexistent/trace.bin");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().kind, trace::TraceErrorKind::kIo);
}


TEST(FaultTolerance, HostileThreadIdsNeverReachTheDetector)
{
    // CRC-valid traces written by the real v5 writer whose records or
    // thread table name tids past the detector's epoch limit. Reaching
    // the detector, such a tid aborts the process (or sizes the GC gate
    // bitmap by the tid).
    const TracedBug &tb = smallTrace();
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    const trace::RunTrace &clean = loaded.value().trace;
    ASSERT_FALSE(clean.pebs.empty());
    ASSERT_FALSE(clean.sync.empty());

    // Bad PEBS and sync records: their segments are salvaged away.
    std::vector<trace::RunTrace> bad_records(3, clean);
    trace::PebsRecord pebs = clean.pebs.back();
    pebs.tid = trace::kMaxThreads;
    bad_records[0].pebs.push_back(pebs);
    trace::SyncRecord sync = clean.sync.back();
    sync.tid = 0xFFFFFFFFu;
    bad_records[1].sync.push_back(sync);
    sync.tid = 0;
    sync.kind = vm::SyncKind::kSpawn;
    sync.aux = trace::kMaxThreads + 1; // the spawned child's tid
    bad_records[2].sync.push_back(sync);

    // A bad thread table: the meta segment is corrupt.
    trace::RunTrace bad_meta = clean;
    bad_meta.meta.threads.push_back({0xFFFFFFF0u, 0});

    const std::string path = "/tmp/prorace_hostile_tid.trace";
    core::OfflineAnalyzer analyzer(*tb.workload.program, tb.cfg.offline);
    for (size_t i = 0; i < bad_records.size(); ++i) {
        trace::saveTrace(bad_records[i], path);
        auto salvaged = analyzer.analyzeFile(path);
        ASSERT_TRUE(salvaged.ok()) << i << ": "
                                   << salvaged.error().format();
        const trace::SegmentLoss &loss = salvaged.value().ingest_loss;
        EXPECT_EQ(loss.segments_dropped, 1u) << i;
        EXPECT_GT(i == 0 ? loss.pebs_dropped : loss.sync_dropped, 0u)
            << i;
    }

    trace::saveTrace(bad_meta, path);
    auto rejected = analyzer.analyzeFile(path);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().kind, trace::TraceErrorKind::kCorruptMeta);
    std::remove(path.c_str());

    // The same bytes through the service: the bad-record session
    // completes degraded, the bad-meta session fails alone, and a clean
    // session alongside them is unaffected.
    service::ServiceOptions options;
    options.num_workers = 1;
    options.offline.pt_filter = tb.workload.pt_filter;
    service::AnalysisService svc(options);
    svc.registerProgram("pfscan", tb.workload.program);
    const std::vector<std::vector<uint8_t>> streams = {
        trace::serializeTrace(bad_records[2]),
        trace::serializeTrace(bad_meta), tb.bytes};
    for (const std::vector<uint8_t> &bytes : streams) {
        const uint64_t id = svc.openSession("tenant", "pfscan");
        ASSERT_NE(id, 0u);
        svc.submit(id, bytes);
        svc.closeSession(id);
    }
    svc.drain();
    std::vector<service::SessionOutcome> outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 3u);
    std::sort(outcomes.begin(), outcomes.end(),
              [](const auto &a, const auto &b) {
                  return a.session_id < b.session_id;
              });
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_GT(outcomes[0].loss.segments_dropped, 0u);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("meta"), std::string::npos)
        << outcomes[1].error;
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;
    EXPECT_FALSE(outcomes[2].loss.hasLoss());
    svc.shutdown();
}

} // namespace
} // namespace prorace
