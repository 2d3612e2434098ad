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
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/insn_facts.hh"
#include "core/offline.hh"
#include "core/pipeline.hh"
#include "fault_injection.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
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

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
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
    const trace::RunTrace &clean_trace = clean.value().trace;
    auto clean_paths =
        pmu::decodePt(*tb.workload.program, clean_trace.meta.pt_filter,
                      clean_trace, &clean_stats);
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
    const trace::RunTrace &salvaged = loaded.value().trace;
    auto paths = pmu::decodePt(*tb.workload.program,
                               salvaged.meta.pt_filter, salvaged, &stats);
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
    writeFile(path, damaged);

    core::OfflineAnalyzer analyzer(*tb.workload.program,
                                   tb.cfg.offline);
    auto result = analyzer.analyzeFile(path);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().ingest_loss.hasLoss());
    std::remove(path.c_str());

    auto missing = analyzer.analyzeFile("/nonexistent/trace.bin");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().kind, trace::TraceErrorKind::kIo);

    // A file that lost a sync segment runs streaming detection without
    // epoch GC. That gate belongs to the one run: it must not outlive
    // it, even when the analysis throws (here from a deadline tick), so
    // the next, clean file sweeps exactly as on a fresh analyzer.
    std::vector<uint8_t> lossy(tb.bytes.begin(), tb.bytes.begin() + 8);
    bool sync_gone = false;
    for (const fault::SegmentSpan &s : fault::mapSegments(tb.bytes)) {
        if (s.kind == 3 && !sync_gone) {
            sync_gone = true;
            continue;
        }
        lossy.insert(lossy.end(), tb.bytes.begin() + s.begin,
                     tb.bytes.begin() + s.end);
    }
    ASSERT_TRUE(sync_gone);
    const std::string lossy_path = path + ".lossy";
    writeFile(path, tb.bytes);
    writeFile(lossy_path, lossy);

    core::OfflineOptions streaming = tb.cfg.offline;
    streaming.incremental.enabled = true;
    streaming.incremental.batch_events = 64;
    streaming.incremental.gc_min_events = 64;
    bool expire = false;
    streaming.checkpoint.tick = [&expire] {
        if (expire)
            throw std::runtime_error("session deadline exceeded");
    };
    auto fresh = core::OfflineAnalyzer(*tb.workload.program, streaming)
                     .analyzeFile(path);
    ASSERT_TRUE(fresh.ok());
    ASSERT_GT(fresh.value().incremental.gc_sweeps, 0u);

    core::OfflineAnalyzer reused(*tb.workload.program, streaming);
    auto ungated = reused.analyzeFile(lossy_path);
    ASSERT_TRUE(ungated.ok());
    EXPECT_GT(ungated.value().ingest_loss.sync_dropped, 0u);
    EXPECT_EQ(ungated.value().incremental.gc_sweeps, 0u);
    expire = true;
    EXPECT_THROW(reused.analyzeFile(lossy_path), std::runtime_error);
    expire = false;
    auto after = reused.analyzeFile(path);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().incremental.gc_sweeps,
              fresh.value().incremental.gc_sweeps);
    EXPECT_EQ(after.value().report.format(tb.workload.program.get()),
              fresh.value().report.format(tb.workload.program.get()));
    std::remove(path.c_str());
    std::remove(lossy_path.c_str());
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

    // Bad meta segments, each rejected whole: a thread table naming a
    // huge tid, PT filter tables the hardware cannot produce (five
    // ranges, an inverted range), more PT streams than cores, and more
    // cores than trace::kMaxCores. The writer can express only the
    // first, so the others are planted into its meta payload and
    // re-CRC'd.
    trace::RunTrace bad_table = clean;
    bad_table.meta.threads.push_back({0xFFFFFFF0u, 0});
    // Payload offset of the PT stream count: num_cores, ten u64
    // counters, the first-period and thread tables, the PEBS and sync
    // record counts.
    const size_t pt_count_at = 4 + 10 * 8 + 4 +
        8 * clean.meta.first_periods.size() + 4 +
        8 * clean.meta.threads.size() + 2 * 8;
    const auto withMetaU32 = [&](size_t at, uint32_t value) {
        std::vector<uint8_t> bytes = tb.bytes;
        const fault::SegmentSpan meta = fault::mapSegments(bytes)[0];
        std::vector<uint8_t> payload = fault::segmentPayload(bytes, meta);
        for (int i = 0; i < 4; ++i)
            payload[at + i] = static_cast<uint8_t>(value >> (8 * i));
        fault::rewriteSegmentPayload(bytes, meta, payload);
        return bytes;
    };
    ASSERT_EQ(clean.pt.size(), clean.meta.num_cores);
    using Ranges = std::vector<std::pair<uint32_t, uint32_t>>;
    const auto withFilterTable = [&](const Ranges &ranges) {
        std::vector<uint8_t> bytes = tb.bytes;
        const fault::SegmentSpan meta = fault::mapSegments(bytes)[0];
        EXPECT_EQ(meta.kind, 1u);
        std::vector<uint8_t> payload = fault::segmentPayload(bytes, meta);
        // Strip the recorded table: all-flag, count, 8 bytes per range.
        payload.resize(payload.size() - 2 -
                       8 * clean.meta.pt_filter.ranges().size());
        payload.push_back(0);
        payload.push_back(static_cast<uint8_t>(ranges.size()));
        for (const auto &[begin, end] : ranges) {
            for (const uint32_t v : {begin, end})
                for (int i = 0; i < 4; ++i)
                    payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
        }
        fault::rewriteSegmentPayload(bytes, meta, payload);
        return bytes;
    };
    // Control: a forged table the hardware can produce loads as written,
    // so the rejections below come from the table, not the forging.
    const Ranges legal = {{0, 4096}, {8192, 9000}};
    auto forged = trace::readTrace(withFilterTable(legal));
    ASSERT_TRUE(forged.ok()) << forged.error().format();
    EXPECT_EQ(forged.value().trace.meta.pt_filter.ranges(), legal);
    const std::vector<std::vector<uint8_t>> bad_meta = {
        trace::serializeTrace(bad_table),
        withFilterTable({{0, 10}, {20, 30}, {40, 50}, {60, 70}, {80, 90}}),
        withFilterTable({{0, 4096}, {200, 100}}),
        withMetaU32(pt_count_at, clean.meta.num_cores + 3),
        withMetaU32(pt_count_at, 0xFFFFFFFFu),
        withMetaU32(0, trace::kMaxCores + 1), // num_cores
    };

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

    for (size_t i = 0; i < bad_meta.size(); ++i) {
        writeFile(path, bad_meta[i]);
        auto rejected = analyzer.analyzeFile(path);
        ASSERT_FALSE(rejected.ok()) << i;
        EXPECT_EQ(rejected.error().kind,
                  trace::TraceErrorKind::kCorruptMeta)
            << i;
    }
    std::remove(path.c_str());

    // The same bytes through the service: the bad-record session
    // completes degraded, each bad-meta session fails alone, and a
    // clean session alongside them is unaffected.
    service::ServiceOptions options;
    options.num_workers = 1;
    service::AnalysisService svc(options);
    svc.registerProgram("pfscan", tb.workload.program);
    std::vector<std::vector<uint8_t>> streams = {
        trace::serializeTrace(bad_records[2])};
    streams.insert(streams.end(), bad_meta.begin(), bad_meta.end());
    streams.push_back(tb.bytes);
    for (const std::vector<uint8_t> &bytes : streams) {
        const uint64_t id = svc.openSession("tenant", "pfscan");
        ASSERT_NE(id, 0u);
        svc.submit(id, bytes);
        svc.closeSession(id);
    }
    svc.drain();
    std::vector<service::SessionOutcome> outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), streams.size());
    std::sort(outcomes.begin(), outcomes.end(),
              [](const auto &a, const auto &b) {
                  return a.session_id < b.session_id;
              });
    EXPECT_TRUE(outcomes.front().ok) << outcomes.front().error;
    EXPECT_GT(outcomes.front().loss.segments_dropped, 0u);
    for (size_t i = 1; i <= bad_meta.size(); ++i) {
        EXPECT_FALSE(outcomes[i].ok) << i;
        EXPECT_NE(outcomes[i].error.find("meta"), std::string::npos)
            << outcomes[i].error;
    }
    EXPECT_TRUE(outcomes.back().ok) << outcomes.back().error;
    EXPECT_FALSE(outcomes.back().loss.hasLoss());
    svc.shutdown();
}

TEST(FaultTolerance, HostileInsnIndexIsDroppedNotDereferenced)
{
    // A CRC-valid trace written by the real v5 writer whose PEBS record
    // names an instruction far past the end of the program. It matches
    // no path position, so it reaches replay as an unlocatable sample;
    // indexing the static facts with it reads out of bounds.
    const TracedBug &tb = smallTrace();
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    trace::RunTrace hostile = loaded.value().trace;
    ASSERT_FALSE(hostile.pebs.empty());
    hostile.pebs[hostile.pebs.size() / 2].insn_index = 0xFFFFFF00u;
    const std::vector<uint8_t> bytes = trace::serializeTrace(hostile);
    auto forged = trace::readTrace(bytes);
    ASSERT_TRUE(forged.ok());
    ASSERT_FALSE(forged.value().loss.hasLoss());

    for (const unsigned jobs : {0u, 2u}) {
        core::OfflineOptions opt = tb.cfg.offline;
        opt.num_threads = jobs;
        core::OfflineAnalyzer analyzer(*tb.workload.program, opt);
        const core::OfflineResult result =
            analyzer.analyze(forged.value().trace);
        EXPECT_EQ(result.replay_stats.samples_out_of_program, 1u)
            << "jobs " << jobs;
    }

    // The same bytes through the service complete like any other
    // session instead of taking the process down.
    service::ServiceOptions options;
    options.num_workers = 1;
    service::AnalysisService svc(options);
    svc.registerProgram("pfscan", tb.workload.program);
    const uint64_t id = svc.openSession("tenant", "pfscan");
    ASSERT_NE(id, 0u);
    svc.submit(id, bytes);
    svc.closeSession(id);
    svc.drain();
    const std::vector<service::SessionOutcome> outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[0].quarantined);
    svc.shutdown();
}

TEST(FaultTolerance, SampleAtNonMemoryInsnNeverBecomesAnAccess)
{
    // A CRC-valid trace whose PEBS record names an instruction that
    // retires no memory event, one its thread never executes. No
    // genuine trace holds such a record (the VM samples only memory
    // instructions), so it matches no path position; it must be
    // dropped and counted, not fed to the detector as a sampled access
    // at an address no instruction there computes.
    const TracedBug &tb = smallTrace();
    const asmkit::Program &program = *tb.workload.program;
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    trace::RunTrace hostile = loaded.value().trace;
    ASSERT_FALSE(hostile.pebs.empty());
    trace::PebsRecord &rec = hostile.pebs[hostile.pebs.size() / 2];
    const auto clean_paths =
        pmu::decodePt(program, hostile.meta.pt_filter, hostile);
    const auto path = clean_paths.find(rec.tid);
    ASSERT_NE(path, clean_paths.end());
    const std::set<uint32_t> executed(path->second.insns.begin(),
                                      path->second.insns.end());
    uint32_t victim = program.size();
    for (uint32_t i = 0; i < program.size() && victim == program.size();
         ++i) {
        if (analysis::memOpCount(program.insnAt(i)) == 0 &&
            !executed.count(i)) {
            victim = i;
        }
    }
    ASSERT_LT(victim, program.size()) << "every non-memory insn executed";
    rec.insn_index = victim;
    const std::vector<uint8_t> bytes = trace::serializeTrace(hostile);
    auto forged = trace::readTrace(bytes);
    ASSERT_TRUE(forged.ok());
    ASSERT_FALSE(forged.value().loss.hasLoss());
    const trace::RunTrace &run = forged.value().trace;

    // The replay layer, in both PT modes and basic-block mode: the
    // record yields no access.
    const auto paths = pmu::decodePt(program, run.meta.pt_filter, run);
    const auto alignments = replay::alignTrace(program, paths, run);
    for (const replay::ReplayMode mode :
         {replay::ReplayMode::kForwardOnly,
          replay::ReplayMode::kForwardBackward,
          replay::ReplayMode::kBasicBlock}) {
        replay::ReplayConfig cfg;
        cfg.mode = mode;
        replay::Replayer replayer(program, cfg);
        const auto accesses = replayer.replayAll(paths, alignments, run);
        EXPECT_EQ(replayer.stats().samples_out_of_program, 1u)
            << replay::replayModeName(mode);
        for (const replay::ReconstructedAccess &acc : accesses) {
            EXPECT_NE(acc.insn_index, victim)
                << replay::replayModeName(mode) << " position "
                << acc.position;
        }
    }

    // The analyzer, serial and on two workers, and a service session.
    core::OfflineResult serial;
    for (const unsigned jobs : {0u, 2u}) {
        core::OfflineOptions opt = tb.cfg.offline;
        opt.num_threads = jobs;
        core::OfflineAnalyzer analyzer(program, opt);
        const core::OfflineResult result = analyzer.analyze(run);
        EXPECT_EQ(result.replay_stats.samples_out_of_program, 1u)
            << "jobs " << jobs;
        if (jobs == 0)
            serial = result;
        else
            EXPECT_EQ(result.extended_trace_events,
                      serial.extended_trace_events);
    }
    service::ServiceOptions options;
    options.num_workers = 1;
    service::AnalysisService svc(options);
    svc.registerProgram("pfscan", tb.workload.program);
    const uint64_t id = svc.openSession("tenant", "pfscan");
    ASSERT_NE(id, 0u);
    svc.submit(id, bytes);
    svc.closeSession(id);
    svc.drain();
    const std::vector<service::SessionOutcome> outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].extended_trace_events,
              serial.extended_trace_events);
    svc.shutdown();
}

TEST(FaultTolerance, SampleAtExecutedNonMemoryInsnIsNeverPlaced)
{
    // A CRC-valid trace whose PEBS record names the non-memory
    // instruction its thread retired right after the sampled one. The
    // memory-event distance and the register check cannot tell the two
    // positions apart (the next one retires no event and writes at most
    // more registers), so only the instruction's shape can. Placing it
    // would open a replay window at an instruction no genuine sample
    // names; it must stay unmatched and be dropped by replay instead.
    const TracedBug &tb = smallTrace();
    const asmkit::Program &program = *tb.workload.program;
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    trace::RunTrace hostile = loaded.value().trace;
    const auto clean_paths =
        pmu::decodePt(program, hostile.meta.pt_filter, hostile);
    const auto clean = replay::alignTrace(program, clean_paths, hostile);

    // The first matched sample, past the first of its chain, whose next
    // path position is a traced instruction without memory events.
    size_t victim = hostile.pebs.size();
    uint32_t forged_insn = 0;
    for (const auto &[tid, alignment] : clean) {
        const pmu::ThreadPath &path = clean_paths.at(tid);
        for (size_t k = 1; k < alignment.samples.size(); ++k) {
            const replay::AlignedSample &s = alignment.samples[k];
            if (s.position + 1 >= path.insns.size())
                continue;
            const uint32_t next = path.insns[s.position + 1];
            if (next == pmu::kPathGap ||
                analysis::memOpCount(program.insnAt(next)) != 0) {
                continue;
            }
            if (s.record_index < victim) {
                victim = s.record_index;
                forged_insn = next;
            }
            break;
        }
    }
    ASSERT_LT(victim, hostile.pebs.size()) << "no sample to forge";
    hostile.pebs[victim].insn_index = forged_insn;
    const std::vector<uint8_t> bytes = trace::serializeTrace(hostile);
    auto forged = trace::readTrace(bytes);
    ASSERT_TRUE(forged.ok());
    ASSERT_FALSE(forged.value().loss.hasLoss());
    const trace::RunTrace &run = forged.value().trace;

    // No aligned sample sits at an instruction without memory events.
    const auto paths = pmu::decodePt(program, run.meta.pt_filter, run);
    replay::AlignStats stats;
    const auto alignments = replay::alignTrace(program, paths, run, &stats);
    for (const auto &[tid, alignment] : alignments) {
        for (const replay::AlignedSample &s : alignment.samples) {
            EXPECT_NE(s.record_index, victim) << "position " << s.position;
            EXPECT_NE(analysis::memOpCount(
                          program.insnAt(paths.at(tid).insns[s.position])),
                      0u)
                << "record " << s.record_index << " position "
                << s.position;
        }
    }
    EXPECT_GE(stats.samples_unmatched, 1u);

    // Replay drops it as a record naming no memory instruction, in both
    // PT modes, and the analyzer counts it at every placement.
    for (const replay::ReplayMode mode :
         {replay::ReplayMode::kForwardOnly,
          replay::ReplayMode::kForwardBackward}) {
        replay::ReplayConfig cfg;
        cfg.mode = mode;
        replay::Replayer replayer(program, cfg);
        replayer.replayAll(paths, alignments, run);
        EXPECT_EQ(replayer.stats().samples_out_of_program, 1u)
            << replay::replayModeName(mode);
    }
    for (const unsigned jobs : {0u, 2u}) {
        core::OfflineOptions opt = tb.cfg.offline;
        opt.num_threads = jobs;
        const core::OfflineResult r =
            core::OfflineAnalyzer(program, opt).analyze(run);
        EXPECT_EQ(r.replay_stats.samples_out_of_program, 1u)
            << "jobs " << jobs;
    }
}

TEST(FaultTolerance, HostilePebsWidthDropsItsSegment)
{
    // A CRC-valid trace written by the real writer whose PEBS record
    // claims a 3-byte access. No instruction accesses 3 bytes, so the
    // reader treats the record's segment as damaged and salvage drops
    // it: the analysis sees a plain sample loss, never the width.
    const TracedBug tb = traceBug("pfscan", 100, 7);
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    trace::RunTrace hostile = loaded.value().trace;
    // Several segments, so samples survive the dropped one.
    ASSERT_GT(hostile.pebs.size(), 2 * trace::kPebsChunkRecords);
    hostile.pebs[hostile.pebs.size() / 2].width = 3;
    const std::vector<uint8_t> bytes = trace::serializeTrace(hostile);
    auto forged = trace::readTrace(bytes);
    ASSERT_TRUE(forged.ok());
    const trace::SegmentLoss &loss = forged.value().loss;
    EXPECT_EQ(loss.segments_dropped, 1u);
    EXPECT_GT(loss.pebs_dropped, 0u);
    EXPECT_LE(loss.pebs_dropped, trace::kPebsChunkRecords);
    EXPECT_EQ(loss.sync_dropped, 0u);
    EXPECT_EQ(forged.value().trace.pebs.size() + loss.pebs_dropped,
              hostile.pebs.size());

    for (const unsigned jobs : {0u, 2u}) {
        core::OfflineOptions opt = tb.cfg.offline;
        opt.num_threads = jobs;
        const core::OfflineResult r =
            core::OfflineAnalyzer(*tb.workload.program, opt)
                .analyze(forged.value());
        EXPECT_EQ(r.quarantine.windows_quarantined, 0u) << "jobs " << jobs;
        EXPECT_EQ(r.ingest_loss.pebs_dropped, loss.pebs_dropped)
            << "jobs " << jobs;
    }

    service::ServiceOptions options;
    options.num_workers = 1;
    service::AnalysisService svc(options);
    svc.registerProgram("pfscan", tb.workload.program);
    const uint64_t id = svc.openSession("tenant", "pfscan");
    ASSERT_NE(id, 0u);
    svc.submit(id, bytes);
    svc.closeSession(id);
    svc.drain();
    const std::vector<service::SessionOutcome> outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[0].loss.pebs_dropped, loss.pebs_dropped);
    svc.shutdown();
}

/**
 * Everything an analysis result says except its timers and the paged
 * ProgramMap counters, which count the shadow pages of each Replayer
 * and so depend on how replay tasks map onto replayers.
 */
std::string
resultDigest(const core::OfflineResult &r, const asmkit::Program &program)
{
    const replay::ReplayStats &rs = r.replay_stats;
    const detect::FastTrackStats &ds = r.detect_stats;
    std::ostringstream out;
    out << r.report.format(&program) << "\nevents "
        << r.extended_trace_events << " rounds " << r.regeneration_rounds
        << "\ndecode " << r.decode_stats.packets << ' '
        << r.decode_stats.path_entries << ' '
        << r.decode_stats.split_threads << "\nalign "
        << r.align_stats.samples_matched << ' '
        << r.align_stats.samples_unmatched << ' '
        << r.align_stats.candidates_examined << ' '
        << r.align_stats.candidates_rejected << "\nreplay " << rs.sampled
        << ' ' << rs.recovered_forward << ' ' << rs.recovered_backward << ' '
        << rs.recovered_pcrel << ' '
        << rs.windows << ' ' << rs.inconsistent_windows << ' '
        << rs.backward_rounds << ' ' << rs.violations_branch << ' '
        << rs.violations_fact << ' ' << rs.violations_sample << ' '
        << rs.violations_end << ' ' << rs.violations_backward << ' '
        << rs.samples_out_of_program << ' ' << rs.forward_steps << ' '
        << rs.forward_unresolved_steps << ' ' << rs.forward_resumed_steps
        << ' ' << rs.backward_steps
        << "\nprefilter "
        << r.prefilter.events_seen << ' ' << r.prefilter.pruned()
        << "\ndetect " << ds.reads << ' ' << ds.writes << ' ' << ds.sync_ops
        << ' ' << ds.epoch_fast_path << ' ' << ds.read_shares
        << "\nquarantine " << r.quarantine.window_retries << ' '
        << r.quarantine.windows_quarantined << "\nloss "
        << r.ingest_loss.summary();
    return out.str();
}

/**
 * A trace with its busiest thread's middle matched sample
 * given an address whose span wraps the address space.
 */
trace::RunTrace
wrapMiddleSample(const asmkit::Program &program, trace::RunTrace run)
{
    const auto paths = pmu::decodePt(program, run.meta.pt_filter, run);
    const auto alignments = replay::alignTrace(program, paths, run);
    const replay::ThreadAlignment *victim = nullptr;
    for (const auto &[tid, alignment] : alignments) {
        if (!victim || alignment.samples.size() > victim->samples.size())
            victim = &alignment;
    }
    if (!victim || victim->samples.size() < 3) {
        ADD_FAILURE() << "no thread with three matched samples";
        return run;
    }
    const size_t mid = victim->samples.size() / 2;
    run.pebs[victim->samples[mid].record_index].addr = ~uint64_t{0};
    return run;
}

TEST(FaultTolerance, HostileSampleAddressQuarantinesOneWindow)
{
    // A matched PEBS sample whose address wraps the address space,
    // handed to the analyzer in memory (the trace reader drops such a
    // record's segment, see HostileSampleAddressDropsItsSegment).
    // Replaying the sample trips the ProgramMap span check: in the PT
    // modes it sits in a window, in basic-block (RaceZ) mode it is a
    // pathless sample replayed within its basic block. That one unit
    // alone must be quarantined, alike at every num_threads.
    const TracedBug tb = traceBug("apache-25520", 500, 7);
    const asmkit::Program &program = *tb.workload.program;
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    const trace::RunTrace &clean_run = loaded.value().trace;
    const trace::RunTrace hostile = wrapMiddleSample(program, clean_run);

    for (const replay::ReplayMode mode :
         {replay::ReplayMode::kForwardBackward,
          replay::ReplayMode::kBasicBlock}) {
        SCOPED_TRACE(replay::replayModeName(mode));
        core::OfflineOptions opt = tb.cfg.offline;
        opt.replay.mode = mode;
        const core::OfflineResult clean =
            core::OfflineAnalyzer(program, opt).analyze(clean_run);
        core::OfflineResult direct;
        for (const unsigned jobs : {0u, 1u, 2u, 8u}) {
            opt.num_threads = jobs;
            const core::OfflineResult r =
                core::OfflineAnalyzer(program, opt).analyze(hostile);
            EXPECT_EQ(r.quarantine.windows_quarantined, 1u)
                << "jobs " << jobs;
            if (jobs == 0)
                direct = r;
            else
                EXPECT_EQ(resultDigest(r, program),
                          resultDigest(direct, program))
                    << "jobs " << jobs;
        }
        // The lost unit costs its own accesses, not the run's.
        EXPECT_LT(direct.extended_trace_events, clean.extended_trace_events);
        EXPECT_GT(direct.extended_trace_events,
                  clean.extended_trace_events * 9 / 10);
        if (mode != replay::ReplayMode::kBasicBlock) { // RaceZ misses it
            EXPECT_GT(direct.report.size(), 0u);
        }
    }
}

TEST(FaultTolerance, HostileSampleAddressDropsItsSegment)
{
    // The same wrapping sample, written by the real writer so every CRC
    // is valid. A span that wraps names no accessible bytes, so the
    // reader treats the record's segment as damaged and salvage drops
    // it: the analysis sees a plain sample loss and quarantines nothing,
    // alike at every num_threads and in every mode, and a service
    // session succeeds on its first attempt.
    const TracedBug tb = traceBug("apache-25520", 100, 7);
    const asmkit::Program &program = *tb.workload.program;
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    const trace::RunTrace hostile =
        wrapMiddleSample(program, loaded.value().trace);
    // Several segments, so samples survive the dropped one.
    ASSERT_GT(hostile.pebs.size(), 2 * trace::kPebsChunkRecords);
    const std::vector<uint8_t> bytes = trace::serializeTrace(hostile);
    auto forged = trace::readTrace(bytes);
    ASSERT_TRUE(forged.ok());
    const trace::SegmentLoss &loss = forged.value().loss;
    EXPECT_EQ(loss.segments_dropped, 1u);
    EXPECT_GT(loss.pebs_dropped, 0u);
    EXPECT_LE(loss.pebs_dropped, trace::kPebsChunkRecords);
    EXPECT_EQ(loss.sync_dropped, 0u);
    for (const trace::PebsRecord &rec : forged.value().trace.pebs)
        EXPECT_NE(rec.addr, ~uint64_t{0});

    for (const replay::ReplayMode mode :
         {replay::ReplayMode::kForwardBackward,
          replay::ReplayMode::kBasicBlock}) {
        SCOPED_TRACE(replay::replayModeName(mode));
        core::OfflineOptions opt = tb.cfg.offline;
        opt.replay.mode = mode;
        core::OfflineResult direct;
        for (const unsigned jobs : {0u, 2u, 8u}) {
            opt.num_threads = jobs;
            const core::OfflineResult r =
                core::OfflineAnalyzer(program, opt).analyze(forged.value());
            EXPECT_EQ(r.quarantine.window_retries, 0u) << "jobs " << jobs;
            EXPECT_EQ(r.quarantine.windows_quarantined, 0u)
                << "jobs " << jobs;
            EXPECT_EQ(r.ingest_loss.pebs_dropped, loss.pebs_dropped)
                << "jobs " << jobs;
            if (jobs == 0)
                direct = r;
            else
                EXPECT_EQ(resultDigest(r, program),
                          resultDigest(direct, program))
                    << "jobs " << jobs;
        }

        service::ServiceOptions options;
        options.num_workers = 1;
        options.offline.replay.mode = mode;
        service::AnalysisService svc(options);
        svc.registerProgram("apache", tb.workload.program);
        const uint64_t id = svc.openSession("tenant", "apache");
        ASSERT_NE(id, 0u);
        svc.submit(id, bytes);
        svc.closeSession(id);
        svc.drain();
        const std::vector<service::SessionOutcome> outcomes = svc.outcomes();
        ASSERT_EQ(outcomes.size(), 1u);
        EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
        EXPECT_EQ(outcomes[0].attempts, 1u);
        EXPECT_FALSE(outcomes[0].quarantined);
        EXPECT_EQ(outcomes[0].quarantine.windows_quarantined, 0u);
        EXPECT_EQ(outcomes[0].loss.pebs_dropped, loss.pebs_dropped);
        EXPECT_EQ(outcomes[0].extended_trace_events,
                  direct.extended_trace_events);
        EXPECT_EQ(outcomes[0].report.format(&program),
                  direct.report.format(&program));
        svc.shutdown();
    }
}

TEST(FaultTolerance, ThreadInTwoPtStreamsLosesItsPath)
{
    // Traces follow a pinned-thread contract: each thread's PT packets
    // live in one stream. A CRC-valid trace written by the real writer
    // whose core-1 stream is a copy of core 0's names every core-0
    // thread in two streams, so no one stream holds its path. Such a
    // tid counts as damage: its path is dropped and its samples replay
    // as pathless samples, alike at every num_threads. A service
    // session on the same bytes ends ok on its first attempt.
    const TracedBug tb = traceBug("apache-25520", 500, 7);
    const asmkit::Program &program = *tb.workload.program;
    auto loaded = trace::readTrace(tb.bytes);
    ASSERT_TRUE(loaded.ok());
    trace::RunTrace split = loaded.value().trace;
    ASSERT_GE(split.pt.size(), 2u);
    split.pt[1] = split.pt[0];
    const auto doubled =
        pmu::decodePtStream(program, split.meta.pt_filter, split, 0);
    ASSERT_GT(doubled.size(), 0u);
    size_t pathless = 0;
    for (const trace::PebsRecord &rec : split.pebs)
        pathless += doubled.count(rec.tid);
    ASSERT_GT(pathless, 0u);

    pmu::PtDecodeStats stats;
    const auto paths =
        pmu::decodePt(program, split.meta.pt_filter, split, &stats);
    EXPECT_EQ(stats.split_threads, doubled.size());
    for (const auto &[tid, path] : doubled)
        EXPECT_EQ(paths.count(tid), 0u) << "tid " << tid;

    const std::vector<uint8_t> bytes = trace::serializeTrace(split);
    const std::string path = "/tmp/prorace_split_tid.trace";
    writeFile(path, bytes);
    core::OfflineOptions opt = tb.cfg.offline;
    core::OfflineResult direct;
    for (const unsigned jobs : {0u, 1u, 2u, 8u}) {
        opt.num_threads = jobs;
        auto r = core::OfflineAnalyzer(program, opt).analyzeFile(path);
        ASSERT_TRUE(r.ok()) << "jobs " << jobs;
        EXPECT_EQ(r.value().decode_stats.split_threads, doubled.size())
            << "jobs " << jobs;
        EXPECT_GE(r.value().replay_stats.sampled, pathless)
            << "jobs " << jobs;
        if (jobs == 0)
            direct = std::move(r.value());
        else
            EXPECT_EQ(resultDigest(r.value(), program),
                      resultDigest(direct, program))
                << "jobs " << jobs;
    }
    std::remove(path.c_str());

    service::ServiceOptions options;
    options.num_workers = 1;
    service::AnalysisService svc(options);
    svc.registerProgram("apache", tb.workload.program);
    const uint64_t id = svc.openSession("tenant", "apache");
    ASSERT_NE(id, 0u);
    svc.submit(id, bytes);
    svc.closeSession(id);
    svc.drain();
    const std::vector<service::SessionOutcome> outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_FALSE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[0].extended_trace_events,
              direct.extended_trace_events);
    EXPECT_EQ(outcomes[0].report.format(&program),
              direct.report.format(&program));
    svc.shutdown();
}

} // namespace
} // namespace prorace
