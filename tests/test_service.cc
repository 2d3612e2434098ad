/**
 * @file
 * Tests for the streaming multi-tenant analysis service: the
 * incremental detector's report identity with the one-shot detector,
 * epoch-GC soundness (nothing swept ever resurrects as a spurious
 * race), ingest backpressure bounds, the resumable trace cursor, and
 * the service's aggregation/deduplication layers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/pipeline.hh"
#include "detect/fasttrack.hh"
#include "oracle/generator.hh"
#include "service/fleet.hh"
#include "service/ingest.hh"
#include "service/report_store.hh"
#include "service/service.hh"
#include "testutil.hh"
#include "trace/trace_file.hh"
#include "workload/registry.hh"

namespace prorace {
namespace {

using detect::FastTrack;
using detect::IncrementalOptions;
using detect::MemAccess;

// ---------------------------------------------------------------------
// Incremental-vs-oneshot identity
// ---------------------------------------------------------------------

/** Analyze @p trace twice — one-shot and streaming — and compare. */
void
expectIncrementalIdentity(const asmkit::Program &program,
                          const trace::RunTrace &trace,
                          const pmu::PtFilter &filter,
                          const std::string &label)
{
    core::OfflineOptions oneshot;
    oneshot.pt_filter = filter;
    core::OfflineAnalyzer a(program, oneshot);
    const core::OfflineResult base = a.analyze(trace);

    core::OfflineOptions streaming = oneshot;
    streaming.incremental.enabled = true;
    streaming.incremental.batch_events = 256; // many boundaries
    streaming.incremental.gc_min_events = 64;
    core::OfflineAnalyzer b(program, streaming);
    const core::OfflineResult inc = b.analyze(trace);

    EXPECT_EQ(base.report.format(&program), inc.report.format(&program))
        << label << ": streaming report differs from one-shot";
    EXPECT_GT(inc.incremental.batches, 0u) << label;

    // And with GC off entirely (the lossy-sync fallback path).
    core::OfflineOptions nogc = streaming;
    nogc.incremental.enable_gc = false;
    core::OfflineAnalyzer c(program, nogc);
    const core::OfflineResult raw = c.analyze(trace);
    EXPECT_EQ(base.report.format(&program), raw.report.format(&program))
        << label << ": unswept streaming report differs from one-shot";
}

TEST(IncrementalIdentity, EveryRegistrySubject)
{
    const uint64_t seed = testutil::testSeed(11);
    PRORACE_SEED_TRACE(seed);
    for (const std::string &name : workload::allWorkloadNames()) {
        auto w = workload::findWorkload(name, 0.1);
        ASSERT_TRUE(w.has_value()) << name;
        core::PipelineConfig cfg =
            core::proRaceConfig(8, seed, w->pt_filter);
        cfg.session.run_baseline = false;
        core::RunArtifacts run =
            core::Session::run(*w->program, w->setup, cfg.session);
        expectIncrementalIdentity(*w->program, run.trace, w->pt_filter,
                                  name);
    }
}

TEST(IncrementalIdentity, OracleBattery)
{
    const uint64_t seed = testutil::testSeed(23);
    PRORACE_SEED_TRACE(seed);
    for (const oracle::GeneratorConfig &cfg :
         oracle::standardBattery(seed, 3)) {
        const oracle::GeneratedWorkload gw = oracle::generate(cfg);
        core::PipelineConfig pc =
            core::proRaceConfig(6, seed + 7, gw.workload.pt_filter);
        pc.session.run_baseline = false;
        core::RunArtifacts run = core::Session::run(
            *gw.workload.program, gw.workload.setup, pc.session);
        expectIncrementalIdentity(*gw.workload.program, run.trace,
                                  gw.workload.pt_filter,
                                  gw.workload.name);
    }
}

// ---------------------------------------------------------------------
// Epoch GC unit tests
// ---------------------------------------------------------------------

MemAccess
access(uint32_t tid, uint64_t addr, bool is_write, uint32_t insn,
       uint64_t tsc)
{
    MemAccess ma;
    ma.tid = tid;
    ma.addr = addr;
    ma.is_write = is_write;
    ma.insn_index = insn;
    ma.tsc = tsc;
    return ma;
}

IncrementalOptions
eagerGc()
{
    IncrementalOptions options;
    options.enabled = true;
    options.gc_min_events = 0; // sweep at every boundary
    return options;
}

TEST(EpochGc, QuiescentStateIsReclaimed)
{
    FastTrack ft(eagerGc());
    ft.requireThread(0);
    ft.requireThread(1);

    // t0 forks t1; both write disjoint granules, then synchronize so
    // every clock moves past those writes.
    ft.fork(0, 1);
    ft.access(access(0, 0x1000, true, 1, 10));
    ft.access(access(1, 0x2000, true, 2, 11));
    ft.release(1, 0x9000);
    ft.acquire(0, 0x9000);
    ft.release(0, 0x9100);
    ft.acquire(1, 0x9100);
    EXPECT_EQ(ft.liveGranules(), 2u);

    ft.batchBoundary(100);
    const detect::IncrementalStats &stats = ft.incrementalStats();
    EXPECT_EQ(stats.gc_sweeps, 1u);
    EXPECT_EQ(stats.granules_reclaimed, 2u);
    EXPECT_EQ(ft.liveGranules(), 0u);
    EXPECT_TRUE(ft.report().empty());
}

TEST(EpochGc, UnsynchronizedStateSurvivesSweep)
{
    FastTrack ft(eagerGc());
    ft.requireThread(0);
    ft.requireThread(1);

    // t1's write is not ordered before t0's current clock: it must
    // stay resident (t0 could still race with it).
    ft.fork(0, 1);
    ft.access(access(1, 0x2000, true, 2, 11));
    ft.batchBoundary(100);
    EXPECT_EQ(ft.liveGranules(), 1u);

    // ... and it does race.
    ft.access(access(0, 0x2000, true, 3, 20));
    EXPECT_EQ(ft.report().size(), 1u);
}

TEST(EpochGc, GatedUntilRequiredThreadsAppear)
{
    FastTrack ft(eagerGc());
    ft.requireThread(0);
    ft.requireThread(7); // never produces an event

    ft.access(access(0, 0x1000, true, 1, 10));
    ft.batchBoundary(100);
    EXPECT_FALSE(ft.gcUngated());
    EXPECT_EQ(ft.incrementalStats().gc_sweeps, 0u);
    EXPECT_GT(ft.incrementalStats().gc_gated, 0u);
    EXPECT_EQ(ft.liveGranules(), 1u); // conservative: nothing swept
}

TEST(EpochGc, NoResurrectionAfterExitReclaim)
{
    IncrementalOptions options = eagerGc();
    FastTrack gc(options);
    options.enable_gc = false;
    FastTrack raw(options);

    for (FastTrack *ft : {&gc, &raw}) {
        ft->requireThread(0);
        ft->requireThread(1);
        ft->fork(0, 1);
        ft->access(access(1, 0x2000, true, 2, 11));
        ft->threadExit(1, 20);
        ft->join(0, 1); // t0 now dominates t1's whole history
        ft->batchBoundary(50); // frontier past the exit: t1 retires
    }
    // The sweep reclaimed both the granule t1 wrote and t1's exit
    // clock (joined, so dominated by the only live clock).
    EXPECT_GT(gc.incrementalStats().clocks_reclaimed, 0u);
    EXPECT_GT(gc.incrementalStats().granules_reclaimed, 0u);
    EXPECT_EQ(raw.incrementalStats().clocks_reclaimed, 0u);
    EXPECT_EQ(gc.liveGranules(), 0u);

    // A straggling duplicate join of the reclaimed thread is a silent
    // no-op (the unswept detector joins harmlessly again); later
    // accesses must behave identically: no spurious race from swept
    // state, no missed race.
    for (FastTrack *ft : {&gc, &raw}) {
        ft->join(0, 1);
        ft->access(access(0, 0x2000, false, 3, 60));
        ft->access(access(0, 0x2000, true, 4, 61));
        ft->finish();
    }
    EXPECT_EQ(gc.report().format(nullptr), raw.report().format(nullptr));
    EXPECT_TRUE(gc.report().empty());
}

TEST(EpochGc, ExitTiesAtFrontierStayLive)
{
    FastTrack ft(eagerGc());
    ft.requireThread(0);
    ft.requireThread(1);
    // t0 writes after the fork, so t1 never observed the write: only
    // t1's presence in the floor keeps it resident.
    ft.fork(0, 1);
    ft.access(access(0, 0x3000, true, 5, 10));
    ft.threadExit(1, 30);

    // Frontier == exit tsc: same-TSC stragglers of t1 may still
    // arrive, so t1 must stay in the floor — retiring it here would
    // sweep the write (t0 dominates its own state) and the straggler
    // below would miss its race.
    ft.batchBoundary(30);
    EXPECT_EQ(ft.liveGranules(), 1u);
    ft.access(access(1, 0x3000, false, 6, 30));
    EXPECT_EQ(ft.report().size(), 1u);
}

// ---------------------------------------------------------------------
// Ingest backpressure
// ---------------------------------------------------------------------

service::IngestQueue::Chunk
chunk(const std::string &tenant, uint64_t session, size_t bytes)
{
    service::IngestQueue::Chunk c;
    c.tenant = tenant;
    c.session = session;
    c.bytes.assign(bytes, 0xab);
    return c;
}

TEST(Backpressure, StallingProducerNeverExceedsCredit)
{
    service::IngestPolicy policy;
    policy.credit_bytes = 1024;
    policy.shed_on_full = false;
    service::IngestQueue queue(policy);

    // A flooding producer: 64 chunks of 256 bytes = 16x the credit.
    std::thread producer([&] {
        for (int i = 0; i < 64; ++i)
            queue.push(chunk("t", 1, 256));
        queue.push([] {
            service::IngestQueue::Chunk c;
            c.tenant = "t";
            c.session = 1;
            c.close = true;
            return c;
        }());
    });

    size_t popped = 0;
    uint64_t max_buffered = 0;
    service::IngestQueue::Chunk c;
    while (queue.pop(c)) {
        max_buffered = std::max(max_buffered, queue.bufferedBytes() +
                                                  c.bytes.size());
        if (c.close)
            break;
        ++popped;
        // Simulate slow parsing before the credit returns.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        queue.credit(c.tenant, c.bytes.size());
    }
    producer.join();

    EXPECT_EQ(popped, 64u);
    EXPECT_LE(max_buffered, policy.credit_bytes);
    const service::IngestStats stats = queue.stats();
    EXPECT_LE(stats.peak_buffered_bytes, policy.credit_bytes);
    EXPECT_LE(stats.tenants.at("t").peak_outstanding,
              policy.credit_bytes);
    EXPECT_GT(stats.tenants.at("t").stalls, 0u);
    EXPECT_EQ(stats.tenants.at("t").bytes, 64u * 256u);
}

TEST(Backpressure, SheddingPolicyDropsInsteadOfBlocking)
{
    service::IngestPolicy policy;
    policy.credit_bytes = 1024;
    policy.shed_on_full = true;
    service::IngestQueue queue(policy);

    // No consumer crediting: only the first credit's worth is accepted.
    size_t accepted = 0, shed = 0;
    for (int i = 0; i < 64; ++i) {
        switch (queue.push(chunk("t", 1, 256))) {
        case service::IngestQueue::PushResult::kAccepted:
            ++accepted;
            break;
        case service::IngestQueue::PushResult::kShed:
            ++shed;
            break;
        default:
            FAIL();
        }
    }
    EXPECT_EQ(accepted, 4u); // 1024 / 256
    EXPECT_EQ(shed, 60u);
    const service::IngestStats stats = queue.stats();
    EXPECT_EQ(stats.tenants.at("t").shed_chunks, 60u);
    EXPECT_LE(queue.bufferedBytes(), policy.credit_bytes);
}

TEST(Backpressure, OversizedChunkAdmittedWhenIdle)
{
    service::IngestPolicy policy;
    policy.credit_bytes = 100;
    policy.shed_on_full = true;
    service::IngestQueue queue(policy);

    // Larger than the whole budget, but the tenant is idle: admitted.
    EXPECT_EQ(queue.push(chunk("t", 1, 500)),
              service::IngestQueue::PushResult::kAccepted);
    // Not idle anymore: shed.
    EXPECT_EQ(queue.push(chunk("t", 1, 500)),
              service::IngestQueue::PushResult::kShed);
    queue.credit("t", 500);
    EXPECT_EQ(queue.push(chunk("t", 1, 500)),
              service::IngestQueue::PushResult::kAccepted);
}

TEST(Backpressure, TenantsAreIsolated)
{
    service::IngestPolicy policy;
    policy.credit_bytes = 256;
    policy.shed_on_full = true;
    service::IngestQueue queue(policy);

    // Exhaust tenant a's credit; tenant b is unaffected.
    EXPECT_EQ(queue.push(chunk("a", 1, 256)),
              service::IngestQueue::PushResult::kAccepted);
    EXPECT_EQ(queue.push(chunk("a", 1, 1)),
              service::IngestQueue::PushResult::kShed);
    EXPECT_EQ(queue.push(chunk("b", 2, 256)),
              service::IngestQueue::PushResult::kAccepted);
}

// ---------------------------------------------------------------------
// Resumable trace cursor
// ---------------------------------------------------------------------

TEST(TraceCursor, ChunkedTailingMatchesOneShot)
{
    const uint64_t seed = testutil::testSeed(31);
    PRORACE_SEED_TRACE(seed);
    auto w = workload::findWorkload("aget-bug2", 0.3);
    ASSERT_TRUE(w.has_value());
    core::PipelineConfig cfg = core::proRaceConfig(10, seed, w->pt_filter);
    cfg.session.run_baseline = false;
    core::RunArtifacts run =
        core::Session::run(*w->program, w->setup, cfg.session);
    const std::vector<uint8_t> bytes = trace::serializeTrace(run.trace);

    auto oneshot = trace::readTrace(bytes);
    ASSERT_TRUE(oneshot.ok());

    for (const size_t chunk_size : {1ul, 7ul, 256ul, 65536ul}) {
        trace::TraceReader reader("chunked");
        uint64_t last_parsed = 0;
        for (size_t off = 0; off < bytes.size(); off += chunk_size) {
            const size_t len =
                std::min(chunk_size, bytes.size() - off);
            reader.feed(bytes.data() + off, len);
            reader.poll();
            // The cursor advances monotonically and never re-parses.
            EXPECT_GE(reader.segmentsParsed(), last_parsed);
            last_parsed = reader.segmentsParsed();
        }
        // Bounded residency: the buffer holds at most the in-flight
        // tail, not the whole stream.
        EXPECT_LT(reader.bytesBuffered(), bytes.size());
        auto streamed = reader.finish();
        ASSERT_TRUE(streamed.ok()) << "chunk " << chunk_size;
        EXPECT_EQ(trace::serializeTrace(streamed.value().trace),
                  trace::serializeTrace(oneshot.value().trace))
            << "chunk " << chunk_size;
        EXPECT_EQ(streamed.value().loss.segments_seen,
                  oneshot.value().loss.segments_seen);
    }
}

// ---------------------------------------------------------------------
// Report store
// ---------------------------------------------------------------------

detect::DataRace
makeRace(uint32_t insn_a, uint32_t insn_b, bool write_a, bool write_b,
         uint64_t addr)
{
    detect::DataRace race;
    race.addr = addr;
    race.prior.tid = 1;
    race.prior.insn_index = insn_a;
    race.prior.is_write = write_a;
    race.current.tid = 2;
    race.current.insn_index = insn_b;
    race.current.is_write = write_b;
    return race;
}

TEST(ReportStore, DedupKeyIsOrderInvariant)
{
    const uint64_t fp = service::programFingerprint("prog");
    const service::RaceSiteKey forward =
        service::raceSiteKey(fp, makeRace(45, 49, false, true, 0x10));
    const service::RaceSiteKey backward =
        service::raceSiteKey(fp, makeRace(49, 45, true, false, 0x20));
    EXPECT_EQ(forward, backward);
    EXPECT_EQ(service::rwSignatureName(forward.rw_signature), "RW");

    // Different rw shape at the same site is a different key.
    const service::RaceSiteKey ww =
        service::raceSiteKey(fp, makeRace(45, 49, true, true, 0x10));
    EXPECT_FALSE(forward == ww);
    EXPECT_EQ(service::rwSignatureName(ww.rw_signature), "WW");
}

TEST(ReportStore, AggregatesAcrossTenantsAndSessions)
{
    service::ReportStore store;
    detect::RaceReport report;
    report.add(makeRace(45, 49, false, true, 0x10));

    store.ingest("alpha", "prog", report, 3);
    store.ingest("beta", "prog", report, 1); // out-of-order completion
    store.ingest("alpha", "prog", report, 7);

    EXPECT_EQ(store.distinctRaces(), 1u);
    EXPECT_EQ(store.totalObservations(), 3u);
    const std::vector<service::StoredRace> rows = store.query("prog");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].observations, 3u);
    EXPECT_EQ(rows[0].tenants.size(), 2u);
    EXPECT_EQ(rows[0].first_seen, 1u);
    EXPECT_EQ(rows[0].last_seen, 7u);

    EXPECT_EQ(store.query("prog", "beta").size(), 1u);
    EXPECT_EQ(store.query("other").size(), 0u);
    EXPECT_NE(store.toJsonl().find("\"insn_pair\":[45,49]"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// The service end to end
// ---------------------------------------------------------------------

TEST(AnalysisService, MultiTenantStreamingMatchesDirectAnalysis)
{
    const uint64_t seed = testutil::testSeed(41);
    PRORACE_SEED_TRACE(seed);
    auto w = workload::findWorkload("aget-bug2", 0.5);
    ASSERT_TRUE(w.has_value());
    core::PipelineConfig cfg = core::proRaceConfig(8, seed, w->pt_filter);
    cfg.session.run_baseline = false;
    core::RunArtifacts run =
        core::Session::run(*w->program, w->setup, cfg.session);
    const std::vector<uint8_t> bytes = trace::serializeTrace(run.trace);

    core::OfflineOptions direct;
    direct.pt_filter = w->pt_filter;
    core::OfflineAnalyzer analyzer(*w->program, direct);
    const std::string expected =
        analyzer.analyze(run.trace).report.format(w->program.get());

    service::ServiceOptions options;
    options.num_workers = 2;
    options.session_slots = 2;
    options.offline.pt_filter = w->pt_filter;
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", w->program);

    constexpr int kTenants = 2, kSessions = 2;
    std::vector<std::thread> producers;
    for (int t = 0; t < kTenants; ++t) {
        producers.emplace_back([&, t] {
            const std::string tenant = "tenant-" + std::to_string(t);
            for (int s = 0; s < kSessions; ++s) {
                const uint64_t id = svc.openSession(tenant, "aget-bug2");
                ASSERT_NE(id, 0u);
                for (size_t off = 0; off < bytes.size(); off += 997) {
                    const size_t len =
                        std::min<size_t>(997, bytes.size() - off);
                    EXPECT_TRUE(svc.submit(id, bytes.data() + off, len));
                }
                svc.closeSession(id);
            }
        });
    }
    for (std::thread &p : producers)
        p.join();
    svc.drain();

    // Every session reproduced the direct analysis byte for byte.
    const std::vector<service::SessionOutcome> outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(),
              static_cast<size_t>(kTenants * kSessions));
    for (const service::SessionOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(outcome.report.format(w->program.get()), expected);
    }

    // The store deduplicated across tenants...
    ASSERT_FALSE(expected.empty());
    const service::ServiceStats stats = svc.stats();
    EXPECT_GT(stats.distinct_races, 0u);
    EXPECT_EQ(stats.report_observations,
              static_cast<uint64_t>(kTenants * kSessions));
    for (const service::StoredRace &row : svc.store().query()) {
        EXPECT_EQ(row.observations,
                  static_cast<uint64_t>(kTenants * kSessions));
        EXPECT_EQ(row.tenants.size(), static_cast<size_t>(kTenants));
    }

    // ... and the per-tenant counters roll up consistently.
    const auto tenants = svc.tenantStats();
    ASSERT_EQ(tenants.size(), static_cast<size_t>(kTenants));
    uint64_t completed = 0, events = 0;
    for (const auto &[name, ts] : tenants) {
        EXPECT_EQ(ts.sessions_completed,
                  static_cast<uint64_t>(kSessions));
        completed += ts.sessions_completed;
        events += ts.incremental.events;
    }
    EXPECT_EQ(stats.rollup.sessions_completed, completed);
    EXPECT_EQ(stats.rollup.incremental.events, events);
    EXPECT_GT(events, 0u);
    EXPECT_EQ(svc.latencies().size(), outcomes.size());

    svc.shutdown();
    EXPECT_EQ(svc.openSession("late", "aget-bug2"), 0u);
}

TEST(AnalysisService, SessionSlotsThrottleAndShed)
{
    service::ServiceOptions options;
    options.num_workers = 1;
    options.session_slots = 1;
    options.ingest.shed_on_full = true;
    service::AnalysisService svc(options);

    auto w = workload::findWorkload("aget-bug2", 0.1);
    ASSERT_TRUE(w.has_value());
    svc.registerProgram("p", w->program);

    // Slot 1 taken and never closed: the second open sheds.
    const uint64_t first = svc.openSession("t", "p");
    ASSERT_NE(first, 0u);
    EXPECT_EQ(svc.openSession("t", "p"), 0u);
    // A different tenant still gets a slot.
    EXPECT_NE(svc.openSession("u", "p"), 0u);
    EXPECT_EQ(svc.stats().sessions_shed, 1u);

    // Unknown programs and sessions are rejected cleanly.
    EXPECT_EQ(svc.openSession("t", "nope"), 0u);
    EXPECT_FALSE(svc.submit(12345, nullptr, 0));
    svc.closeSession(first);
    svc.drain();
    EXPECT_NE(svc.openSession("t", "p"), 0u); // slot came back
}

TEST(AnalysisService, DamagedStreamFailsSessionOnly)
{
    service::ServiceOptions options;
    service::AnalysisService svc(options);
    auto w = workload::findWorkload("aget-bug2", 0.1);
    ASSERT_TRUE(w.has_value());
    svc.registerProgram("p", w->program);

    const uint64_t id = svc.openSession("t", "p");
    const std::vector<uint8_t> garbage(64, 0xee);
    EXPECT_TRUE(svc.submit(id, garbage.data(), garbage.size()));
    svc.closeSession(id);
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].error.empty());
    EXPECT_EQ(svc.tenantStats().at("t").sessions_failed, 1u);
    EXPECT_EQ(svc.stats().distinct_races, 0u);
}

TEST(FleetSimulator, SmokeRunDetectsAndDeduplicates)
{
    service::FleetConfig cfg;
    cfg.producers = 2;
    cfg.sessions_per_producer = 2;
    cfg.subjects = {"aget-bug2"};
    cfg.scale = 0.3;
    cfg.period = 8;
    cfg.seed = testutil::testSeed(53);
    cfg.service.num_workers = 2;
    const service::FleetResult result = service::runFleet(cfg);

    EXPECT_EQ(result.sessions_opened, 4u);
    EXPECT_EQ(result.sessions_rejected, 0u);
    EXPECT_EQ(result.stats.rollup.sessions_completed, 4u);
    EXPECT_EQ(result.stats.rollup.sessions_failed, 0u);
    EXPECT_GT(result.stats.distinct_races, 0u);
    EXPECT_EQ(result.latencies.size(), 4u);
    EXPECT_FALSE(result.report_jsonl.empty());
    // Both tenants stream the same subject: every stored race was
    // observed by both.
    EXPECT_NE(result.report_jsonl.find("\"tenants\":2"),
              std::string::npos);
}

} // namespace
} // namespace prorace
