/**
 * @file
 * Tests for the crash-safety and self-healing layer: the write-ahead
 * journal's prefix-validity and torn-tail recovery, byte-identical
 * report-store reconstruction at every journal prefix, service restart
 * recovery, and the supervision machinery (retry, deadline, session and
 * tenant quarantine).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "fault_injection.hh"
#include "service/fleet.hh"
#include "service/report_store.hh"
#include "service/service.hh"
#include "support/journal.hh"
#include "support/rng.hh"
#include "testutil.hh"
#include "trace/trace_file.hh"
#include "workload/registry.hh"

namespace prorace {
namespace {

using support::Journal;
using support::JournalRecord;
using support::JournalScan;

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

/** A per-test scratch directory, removed (recursively) on teardown. */
struct TempDir {
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<uint64_t> counter{0};
        path = (std::filesystem::temp_directory_path() /
                ("prorace-" + tag + "-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(counter++)))
                   .string();
        std::filesystem::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }

    std::string path;
};

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

detect::DataRace
makeRace(uint32_t insn_a, uint32_t insn_b, bool write_a, bool write_b,
         uint64_t addr)
{
    detect::DataRace race;
    race.addr = addr;
    race.prior.insn_index = insn_a;
    race.prior.is_write = write_a;
    race.prior.tid = 0;
    race.prior.tsc = 10;
    race.current.insn_index = insn_b;
    race.current.is_write = write_b;
    race.current.tid = 1;
    race.current.tsc = 20;
    return race;
}

detect::RaceReport
reportOf(std::initializer_list<detect::DataRace> races)
{
    detect::RaceReport report;
    for (const detect::DataRace &race : races)
        report.add(race);
    return report;
}

/** One recorded workload, reusable across service tests. */
struct Recorded {
    std::shared_ptr<const asmkit::Program> program;
    trace::RunTrace trace;
    std::vector<uint8_t> bytes;
};

Recorded
recordWorkload(const std::string &name, double scale, uint64_t period,
               uint64_t seed)
{
    auto w = workload::findWorkload(name, scale);
    EXPECT_TRUE(w.has_value()) << name;
    core::PipelineConfig cfg = core::proRaceConfig(period, seed,
                                                   w->pt_filter);
    cfg.session.run_baseline = false;
    core::RunArtifacts run =
        core::Session::run(*w->program, w->setup, cfg.session);
    Recorded rec;
    rec.program = w->program;
    rec.trace = std::move(run.trace);
    rec.bytes = trace::serializeTrace(rec.trace);
    return rec;
}

void
streamSession(service::AnalysisService &svc, uint64_t id,
              const std::vector<uint8_t> &bytes, size_t chunk = 997)
{
    for (size_t off = 0; off < bytes.size(); off += chunk) {
        const size_t len = std::min(chunk, bytes.size() - off);
        svc.submit(id, bytes.data() + off, len);
    }
    svc.closeSession(id);
}

// ---------------------------------------------------------------------
// Journal: append/replay, torn tails, corruption
// ---------------------------------------------------------------------

std::vector<uint8_t>
payloadOf(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Journal, AppendSyncReplayRoundTrip)
{
    TempDir dir("journal");
    const std::string path = dir.file("j.jrnl");
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>> records =
        {{1, payloadOf("alpha")},
         {2, payloadOf("")},
         {1, payloadOf(std::string(1000, 'x'))},
         {7, {0x00, 0xff, 0x4a, 0x52, 0x4e, 0x4c}}};

    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, nullptr, &error)) << error;
        for (const auto &[type, payload] : records)
            ASSERT_TRUE(j.append(type, payload));
        j.close();
    }

    Journal j;
    std::string error;
    std::vector<JournalRecord> replayed;
    ASSERT_TRUE(j.open(
        path,
        [&](const JournalRecord &r) { replayed.push_back(r); }, &error))
        << error;
    ASSERT_EQ(replayed.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(replayed[i].type, records[i].first) << i;
        EXPECT_EQ(replayed[i].payload, records[i].second) << i;
    }
    EXPECT_EQ(j.stats().recovered_records, records.size());
    EXPECT_EQ(j.stats().truncated_bytes, 0u);
    EXPECT_EQ(j.sizeBytes(), j.stats().recovered_bytes);

    // Appending after recovery continues the record sequence.
    ASSERT_TRUE(j.append(9, payloadOf("tail")));
    j.close();
    const JournalScan scan = support::scanJournalFile(path);
    ASSERT_EQ(scan.records.size(), records.size() + 1);
    EXPECT_TRUE(scan.clean);
    EXPECT_EQ(scan.records.back().type, 9u);
}

TEST(Journal, TornTailTruncationSweep)
{
    TempDir dir("journal-torn");
    const std::string path = dir.file("j.jrnl");
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, nullptr, &error)) << error;
        for (uint32_t i = 0; i < 5; ++i)
            ASSERT_TRUE(j.append(i + 1, payloadOf(std::string(
                                             7 * i + 3, 'a' + char(i)))));
        j.close();
    }
    const std::vector<uint8_t> full = readFile(path);
    const JournalScan full_scan = support::scanJournal(full);
    ASSERT_EQ(full_scan.records.size(), 5u);
    ASSERT_EQ(full_scan.valid_prefix_bytes, full.size());

    // Every possible crash point: the valid prefix is exactly the
    // records wholly contained in the kept bytes.
    for (size_t keep = 0; keep <= full.size(); ++keep) {
        std::vector<uint8_t> torn = full;
        fault::truncateAt(torn, keep);
        const JournalScan scan = support::scanJournal(torn);
        size_t expect_records = 0;
        uint64_t expect_prefix = 0;
        for (const JournalRecord &r : full_scan.records) {
            if (r.end_offset > keep)
                break;
            ++expect_records;
            expect_prefix = r.end_offset;
        }
        EXPECT_EQ(scan.records.size(), expect_records) << keep;
        EXPECT_EQ(scan.valid_prefix_bytes, expect_prefix) << keep;
        EXPECT_EQ(scan.clean, expect_prefix == keep) << keep;
    }

    // Open() on a torn file truncates the tail and keeps appending.
    const size_t mid = full_scan.records[2].end_offset + 5;
    std::vector<uint8_t> torn = full;
    fault::truncateAt(torn, mid);
    const std::string torn_path = dir.file("torn.jrnl");
    writeFile(torn_path, torn);

    Journal j;
    std::string error;
    size_t replayed = 0;
    ASSERT_TRUE(j.open(
        torn_path, [&](const JournalRecord &) { ++replayed; },
        &error))
        << error;
    EXPECT_EQ(replayed, 3u);
    EXPECT_EQ(j.stats().truncated_bytes,
              mid - full_scan.records[2].end_offset);
    ASSERT_TRUE(j.append(42, payloadOf("after-recovery")));
    j.close();
    const JournalScan healed = support::scanJournalFile(torn_path);
    ASSERT_EQ(healed.records.size(), 4u);
    EXPECT_TRUE(healed.clean);
    EXPECT_EQ(healed.records.back().type, 42u);
}

TEST(Journal, CorruptionInvalidatesRecordAndSuffix)
{
    TempDir dir("journal-corrupt");
    const std::string path = dir.file("j.jrnl");
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, nullptr, &error)) << error;
        for (uint32_t i = 0; i < 4; ++i)
            ASSERT_TRUE(j.append(i + 1, payloadOf("payload-" +
                                                  std::to_string(i))));
        j.close();
    }
    const std::vector<uint8_t> full = readFile(path);
    const JournalScan full_scan = support::scanJournal(full);
    ASSERT_EQ(full_scan.records.size(), 4u);

    // A single flipped bit anywhere in record k (header or payload)
    // kills k and everything after it — validity is prefix-shaped.
    Rng rng(testutil::testSeed(67));
    for (size_t k = 0; k < 4; ++k) {
        const JournalRecord &target = full_scan.records[k];
        std::vector<uint8_t> damaged = full;
        const size_t offset =
            target.offset + static_cast<size_t>(rng.below(
                                target.end_offset - target.offset));
        fault::flipBitAt(damaged, offset,
                         static_cast<unsigned>(rng.below(8)));
        const JournalScan scan = support::scanJournal(damaged);
        EXPECT_EQ(scan.records.size(), k) << "record " << k;
        EXPECT_FALSE(scan.clean);
        EXPECT_EQ(scan.valid_prefix_bytes, target.offset);
    }
}

// ---------------------------------------------------------------------
// Report store: journaled ingest, every-prefix recovery, JSONL escaping
// ---------------------------------------------------------------------

TEST(ReportStoreRecovery, EveryJournalPrefixReconstructsExactly)
{
    TempDir dir("store-prefix");
    const std::string path = dir.file("reports.jrnl");

    // Drive a journaled store through a mixed ingest sequence,
    // snapshotting the JSONL after every call.
    std::vector<std::string> snapshots{""}; // snapshot[k] = after k calls
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, nullptr, &error)) << error;
        service::ReportStore store;
        store.bindJournal(&j);
        const detect::RaceReport r1 =
            reportOf({makeRace(10, 20, true, true, 0x1000)});
        const detect::RaceReport r2 =
            reportOf({makeRace(10, 20, true, true, 0x2000),
                      makeRace(33, 44, false, true, 0x3000)});
        const detect::RaceReport empty;
        store.ingest("alpha", "prog-a", r1, 1);
        snapshots.push_back(store.toJsonl());
        store.ingest("beta", "prog-a", r2, 2);
        snapshots.push_back(store.toJsonl());
        store.ingest("alpha", "prog-b", r1, 3);
        snapshots.push_back(store.toJsonl());
        store.ingest("gamma", "prog-a", empty, 4);
        snapshots.push_back(store.toJsonl());
        store.ingest("beta", "prog-a", r1, 5);
        snapshots.push_back(store.toJsonl());
        j.close();
    }

    const std::vector<uint8_t> bytes = readFile(path);
    const JournalScan scan = support::scanJournal(bytes);
    ASSERT_EQ(scan.records.size(), snapshots.size() - 1);

    // Replaying the first k records reconstructs the store exactly as
    // it was after the k-th ingest — the crash-recovery contract for a
    // crash that durably captured k records.
    for (size_t k = 0; k <= scan.records.size(); ++k) {
        service::ReportStore replayed;
        for (size_t i = 0; i < k; ++i) {
            ASSERT_EQ(scan.records[i].type, service::kReportIngestRecord);
            ASSERT_TRUE(
                replayed.applyIngestRecord(scan.records[i].payload));
        }
        EXPECT_EQ(replayed.toJsonl(), snapshots[k]) << "prefix " << k;
        EXPECT_EQ(replayed.maxSequence(), k) << "prefix " << k;
    }
}

TEST(ReportStoreRecovery, MalformedIngestRecordIsRejectedUnchanged)
{
    service::ReportStore store;
    const detect::RaceReport report =
        reportOf({makeRace(1, 2, true, false, 0x40)});
    std::vector<uint8_t> good = service::ReportStore::encodeIngestRecord(
        "tenant", "prog", report, 7);
    ASSERT_TRUE(store.applyIngestRecord(good));
    const std::string before = store.toJsonl();

    std::vector<uint8_t> truncated(good.begin(), good.end() - 3);
    EXPECT_FALSE(store.applyIngestRecord(truncated));
    std::vector<uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(store.applyIngestRecord(padded));
    std::vector<uint8_t> bad_version = good;
    bad_version[0] ^= 0xff;
    EXPECT_FALSE(store.applyIngestRecord(bad_version));
    EXPECT_EQ(store.toJsonl(), before);
    EXPECT_EQ(store.maxSequence(), 7u);
}

TEST(ReportStoreRecovery, IngestRecordWithUnknownOriginIsRejected)
{
    // Two real records that differ only in one access's origin locate
    // its origin byte. A byte past kOracle names no AccessOrigin, so
    // the record is malformed: the store refuses it unchanged, and
    // `prorace_cli store --verify` exits nonzero on such a journal.
    detect::DataRace race = makeRace(1, 2, true, false, 0x40);
    const std::vector<uint8_t> sampled =
        service::ReportStore::encodeIngestRecord("tenant", "prog",
                                                 reportOf({race}), 7);
    race.current.origin = detect::AccessOrigin::kOracle;
    const std::vector<uint8_t> oracle =
        service::ReportStore::encodeIngestRecord("tenant", "prog",
                                                 reportOf({race}), 7);
    ASSERT_EQ(sampled.size(), oracle.size());
    std::vector<uint8_t> forged = sampled;
    size_t origin_bytes = 0;
    for (size_t i = 0; i < forged.size(); ++i) {
        if (sampled[i] != oracle[i]) {
            forged[i] = 200;
            ++origin_bytes;
        }
    }
    ASSERT_EQ(origin_bytes, 1u);

    service::ReportStore store;
    ASSERT_TRUE(store.applyIngestRecord(oracle));
    const std::string before = store.toJsonl();
    EXPECT_FALSE(store.applyIngestRecord(forged));
    EXPECT_EQ(store.toJsonl(), before);
    EXPECT_EQ(store.maxSequence(), 7u);
}

/** Inverse of jsonEscape, for round-trip checking. */
std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        ++i;
        if (s[i] == 'u') {
            out += static_cast<char>(
                std::stoi(s.substr(i + 1, 4), nullptr, 16));
            i += 4;
        } else {
            out += s[i];
        }
    }
    return out;
}

TEST(ReportStoreRecovery, JsonlEscapingRoundTrips)
{
    const std::vector<std::string> nasty = {
        "plain",
        "has \"quotes\" inside",
        "back\\slash",
        "new\nline\ttab\rret",
        std::string("nul\0byte", 8),
        "\x01\x1f edge controls",
        "mix \"\\\n\" of everything",
    };
    for (const std::string &s : nasty) {
        const std::string escaped = service::jsonEscape(s);
        EXPECT_EQ(jsonUnescape(escaped), s);
        // No raw quote or control character survives: the JSONL line
        // framing cannot be broken by hostile ids.
        for (size_t i = 0; i < escaped.size(); ++i) {
            EXPECT_NE(escaped[i], '\n');
            if (escaped[i] == '"') {
                EXPECT_TRUE(i > 0 && escaped[i - 1] == '\\');
            }
        }
    }

    // End to end: a hostile program id goes through ingest + dump and
    // comes back out escaped on a single line.
    const std::string hostile = "prog\"id\nwith\\junk";
    service::ReportStore store;
    store.ingest("ten\"ant", hostile,
                 reportOf({makeRace(3, 4, true, true, 0x99)}), 1);
    const std::string jsonl = store.toJsonl();
    EXPECT_NE(jsonl.find(service::jsonEscape(hostile)),
              std::string::npos);
    // One entry, one line.
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);

    // And the journal codec carries the raw strings losslessly.
    const auto payload = service::ReportStore::encodeIngestRecord(
        "ten\"ant", hostile, reportOf({makeRace(3, 4, true, true, 0x99)}),
        1);
    service::ReportStore replayed;
    ASSERT_TRUE(replayed.applyIngestRecord(payload));
    EXPECT_EQ(replayed.toJsonl(), jsonl);
}

// ---------------------------------------------------------------------
// Service: restart recovery, supervision, quarantine
// ---------------------------------------------------------------------

service::ServiceOptions
durableOptions(const std::string &state_dir)
{
    service::ServiceOptions options;
    options.num_workers = 2;
    options.offline.incremental.batch_events = 256;
    options.offline.incremental.gc_min_events = 64;
    options.state_dir = state_dir;
    options.supervision.backoff_initial_seconds = 0.001;
    return options;
}

TEST(ServiceRecovery, RestartRecoversStoreAndResubmission)
{
    const uint64_t seed = testutil::testSeed(83);
    PRORACE_SEED_TRACE(seed);
    TempDir dir("svc-recovery");
    const Recorded rec = recordWorkload("aget-bug2", 0.3, 8, seed);

    std::string jsonl_before;
    std::string expected_report;
    uint64_t sequence_before = 0;
    {
        service::AnalysisService svc(durableOptions(dir.path));
        svc.registerProgram("aget-bug2", rec.program);
        const uint64_t id = svc.openSession("tenant-a", "aget-bug2");
        ASSERT_NE(id, 0u);
        streamSession(svc, id, rec.bytes);
        svc.drain();

        const auto outcomes = svc.outcomes();
        ASSERT_EQ(outcomes.size(), 1u);
        EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
        expected_report = outcomes[0].report.format(rec.program.get());
        sequence_before = outcomes[0].sequence;

        const service::ServiceStats stats = svc.stats();
        EXPECT_TRUE(stats.durable);
        EXPECT_EQ(stats.recovered_reports, 0u);
        EXPECT_GT(stats.journal.appended_records, 0u);
        EXPECT_GT(stats.distinct_races, 0u);
        jsonl_before = svc.store().toJsonl();
        svc.shutdown();
    }
    ASSERT_FALSE(jsonl_before.empty());

    // Restart on the same state dir: the store comes back
    // byte-identically and sequence numbering continues above the
    // recovered maximum.
    service::AnalysisService svc(durableOptions(dir.path));
    svc.registerProgram("aget-bug2", rec.program);
    const service::ServiceStats boot = svc.stats();
    EXPECT_TRUE(boot.durable);
    EXPECT_EQ(boot.recovered_reports, 1u);
    EXPECT_EQ(svc.store().toJsonl(), jsonl_before);
    EXPECT_EQ(svc.store().maxSequence(), sequence_before);

    // The same tenant re-streams the same bytes: the analysis runs
    // again from event zero and reports exactly what the first process
    // did.
    const uint64_t id = svc.openSession("tenant-a", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, rec.bytes);
    svc.drain();
    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_GT(outcomes[0].sequence, sequence_before);
    EXPECT_EQ(outcomes[0].report.format(rec.program.get()),
              expected_report);

    // Both observations of every race are now in the recovered store.
    for (const service::StoredRace &row : svc.store().query())
        EXPECT_EQ(row.observations, 2u);
    svc.shutdown();

    // The journal is the only durable state the service keeps.
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir.path))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"reports.jrnl"});
}

TEST(ServiceRecovery, TornJournalTailRecoversValidPrefix)
{
    TempDir dir("svc-torn");
    const std::string path = dir.file("reports.jrnl");

    // Forge a journal: two good records, then a torn third.
    std::vector<std::string> snapshots;
    {
        Journal j;
        std::string error;
        ASSERT_TRUE(j.open(path, nullptr, &error)) << error;
        service::ReportStore store;
        store.bindJournal(&j);
        store.ingest("a", "p", reportOf({makeRace(1, 2, true, true, 8)}),
                     1);
        snapshots.push_back(store.toJsonl());
        store.ingest("b", "p", reportOf({makeRace(3, 4, true, true, 8)}),
                     2);
        snapshots.push_back(store.toJsonl());
        store.ingest("c", "p", reportOf({makeRace(5, 6, true, true, 8)}),
                     3);
        j.close();
    }
    std::vector<uint8_t> bytes = readFile(path);
    const JournalScan scan = support::scanJournal(bytes);
    ASSERT_EQ(scan.records.size(), 3u);
    fault::truncateAt(bytes,
                      static_cast<size_t>(scan.records[2].end_offset) - 4);
    writeFile(path, bytes);

    // A service booting on this state dir recovers exactly the two
    // whole records; the torn third is truncated away, not replayed.
    service::ServiceOptions options;
    options.state_dir = dir.path;
    service::AnalysisService svc(options);
    const service::ServiceStats stats = svc.stats();
    EXPECT_TRUE(stats.durable);
    EXPECT_EQ(stats.recovered_reports, 2u);
    EXPECT_GT(stats.journal.truncated_bytes, 0u);
    EXPECT_EQ(svc.store().toJsonl(), snapshots[1]);
    EXPECT_EQ(svc.store().maxSequence(), 2u);
    svc.shutdown();
}

TEST(Supervision, TransientFaultIsRetriedToSuccess)
{
    const uint64_t seed = testutil::testSeed(89);
    PRORACE_SEED_TRACE(seed);
    const Recorded rec = recordWorkload("aget-bug2", 0.2, 8, seed);

    service::ServiceOptions options;
    options.supervision.backoff_initial_seconds = 0.001;
    std::atomic<unsigned> injections{0};
    options.analysis_fault_injector = [&](const std::string &, uint64_t,
                                          unsigned attempt) {
        if (attempt == 0) {
            ++injections;
            throw std::runtime_error("injected transient fault");
        }
    };
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", rec.program);
    const uint64_t id = svc.openSession("flaky", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, rec.bytes);
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_FALSE(outcomes[0].quarantined);
    EXPECT_EQ(injections, 1u);
    const auto ts = svc.tenantStats().at("flaky");
    EXPECT_EQ(ts.analysis_retries, 1u);
    EXPECT_EQ(ts.sessions_completed, 1u);
    EXPECT_EQ(ts.sessions_quarantined, 0u);
    svc.shutdown();
}

TEST(Supervision, PersistentFaultQuarantinesSessionThenTenant)
{
    const uint64_t seed = testutil::testSeed(97);
    PRORACE_SEED_TRACE(seed);
    const Recorded rec = recordWorkload("aget-bug2", 0.2, 8, seed);

    service::ServiceOptions options;
    options.supervision.max_retries = 1;
    options.supervision.backoff_initial_seconds = 0.001;
    options.supervision.tenant_quarantine_strikes = 1;
    options.analysis_fault_injector = [](const std::string &tenant,
                                         uint64_t, unsigned) {
        if (tenant == "poisoned")
            throw std::runtime_error("injected persistent fault");
    };
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", rec.program);

    const uint64_t bad = svc.openSession("poisoned", "aget-bug2");
    ASSERT_NE(bad, 0u);
    streamSession(svc, bad, rec.bytes);
    const uint64_t good = svc.openSession("healthy", "aget-bug2");
    ASSERT_NE(good, 0u);
    streamSession(svc, good, rec.bytes);
    svc.drain();

    // The poisoned session exhausted its retries and was quarantined;
    // one strike quarantines the tenant.
    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 2u);
    for (const service::SessionOutcome &o : outcomes) {
        if (o.tenant == "poisoned") {
            EXPECT_FALSE(o.ok);
            EXPECT_TRUE(o.quarantined);
            EXPECT_EQ(o.attempts, 2u); // first try + max_retries
            EXPECT_NE(o.error.find("quarantined"), std::string::npos);
        } else {
            EXPECT_TRUE(o.ok) << o.error;
        }
    }
    EXPECT_TRUE(svc.tenantQuarantined("poisoned"));
    EXPECT_FALSE(svc.tenantQuarantined("healthy"));
    const auto tenants = svc.tenantStats();
    EXPECT_EQ(tenants.at("poisoned").sessions_quarantined, 1u);
    EXPECT_TRUE(tenants.at("poisoned").quarantined);
    EXPECT_EQ(tenants.at("healthy").sessions_completed, 1u);

    // Further opens from the quarantined tenant are rejected; the
    // healthy tenant keeps flowing.
    EXPECT_EQ(svc.openSession("poisoned", "aget-bug2"), 0u);
    EXPECT_NE(svc.openSession("healthy", "aget-bug2"), 0u);
    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.tenants_quarantined, 1u);
    EXPECT_GE(stats.quarantine_rejected_opens, 1u);
    svc.shutdown();
}

TEST(Supervision, DeadlineTimeoutCountsAndQuarantines)
{
    const uint64_t seed = testutil::testSeed(101);
    PRORACE_SEED_TRACE(seed);
    const Recorded rec = recordWorkload("aget-bug2", 0.2, 8, seed);

    service::ServiceOptions options;
    options.offline.incremental.batch_events = 64; // many tick points
    options.supervision.session_deadline_seconds = 1e-9; // always over
    options.supervision.max_retries = 1;
    options.supervision.backoff_initial_seconds = 0.001;
    service::AnalysisService svc(options);
    svc.registerProgram("aget-bug2", rec.program);
    const uint64_t id = svc.openSession("slow", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, rec.bytes);
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[0].deadline_timeouts, 2u); // both attempts
    EXPECT_EQ(svc.tenantStats().at("slow").deadline_timeouts, 2u);
    svc.shutdown();
}

TEST(Supervision, HardTraceErrorFailsFastWithoutRetry)
{
    service::ServiceOptions options;
    options.supervision.backoff_initial_seconds = 0.001;
    std::atomic<unsigned> injections{0};
    options.analysis_fault_injector =
        [&](const std::string &, uint64_t, unsigned) { ++injections; };
    service::AnalysisService svc(options);
    auto rec = recordWorkload("aget-bug2", 0.1, 16, testutil::testSeed(3));
    svc.registerProgram("aget-bug2", rec.program);

    const uint64_t id = svc.openSession("garbage", "aget-bug2");
    ASSERT_NE(id, 0u);
    streamSession(svc, id, fault::poisonStream(1 << 14, 11));
    svc.drain();

    const auto outcomes = svc.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].quarantined); // deterministic: no strikes
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(injections, 0u); // analysis never started
    const auto ts = svc.tenantStats().at("garbage");
    EXPECT_EQ(ts.sessions_failed, 1u);
    EXPECT_EQ(ts.sessions_quarantined, 0u);
    EXPECT_EQ(ts.analysis_retries, 0u);
    svc.shutdown();
}

TEST(FleetSimulator, PoisonTenantsDegradeIntoStatistics)
{
    service::FleetConfig cfg;
    cfg.producers = 2;
    cfg.sessions_per_producer = 2;
    cfg.subjects = {"aget-bug2"};
    cfg.scale = 0.3;
    cfg.period = 8;
    cfg.seed = testutil::testSeed(53); // the smoke-test seed: samples
                                       // the aget race at this scale
    cfg.poison_producers = 1;
    cfg.service.num_workers = 2;
    cfg.service.supervision.backoff_initial_seconds = 0.001;
    const service::FleetResult result = service::runFleet(cfg);

    // The healthy fleet is untouched by the poison tenant...
    EXPECT_EQ(result.sessions_opened, 4u);
    EXPECT_EQ(result.poison_sessions, 2u);
    EXPECT_GT(result.stats.distinct_races, 0u);
    uint64_t healthy_completed = 0, poison_failed = 0;
    for (const auto &[name, ts] : result.tenants) {
        if (name.rfind("poison-", 0) == 0) {
            EXPECT_EQ(ts.sessions_completed, 0u) << name;
            poison_failed += ts.sessions_failed;
        } else {
            EXPECT_EQ(ts.sessions_failed, 0u) << name;
            healthy_completed += ts.sessions_completed;
        }
    }
    EXPECT_EQ(healthy_completed, 4u);
    // ... and every poison session failed without taking the run down.
    EXPECT_EQ(poison_failed, result.poison_sessions);
    EXPECT_EQ(result.stats.rollup.sessions_completed, 4u);
}

TEST(FleetSimulator, DurableFleetCountsTheCloseTimeSync)
{
    // The journal syncs every few records and once more when shutdown
    // closes it; the fleet's stats are taken after shutdown, so a run
    // that appended anything reports at least that last sync.
    TempDir dir("fleet-durable");
    service::FleetConfig cfg;
    cfg.producers = 1;
    cfg.sessions_per_producer = 2;
    cfg.subjects = {"aget-bug2"};
    cfg.scale = 0.3;
    cfg.period = 8;
    cfg.seed = testutil::testSeed(53); // samples the aget race
    cfg.service.num_workers = 1;
    cfg.service.state_dir = dir.path;
    const service::FleetResult result = service::runFleet(cfg);

    EXPECT_TRUE(result.stats.durable);
    ASSERT_GT(result.stats.journal.appended_records, 0u);
    EXPECT_GE(result.stats.journal.syncs, 1u);
    EXPECT_EQ(result.stats.rollup.sessions_completed, 2u);
}

} // namespace
} // namespace prorace
