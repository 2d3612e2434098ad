/**
 * @file
 * Figure 18 (beyond the paper): crash-recovery cost and self-healing
 * isolation of the durable analysis service.
 *
 * Part A — journal recovery: write-ahead report journals of growing
 * record counts are replayed into a fresh ReportStore, timing open()
 * recovery. For every size the journal is additionally torn at random
 * offsets and recovered again, checking the WAL contract: the rebuilt
 * store is byte-identical to the store at the last whole record, and
 * no record before the tear is ever lost.
 *
 * Part B — quarantine isolation: the same fleet is run clean and then
 * with poison tenants streaming garbage plus a fault injector that
 * crashes every poison analysis. The healthy tenants must all still
 * complete, and their throughput must hold a generous floor of the
 * clean run's (the poison work is bounded by supervision, not free).
 *
 * Self-asserted checks (the harness exits nonzero on violation):
 *   1. Zero report loss: recovery replays exactly the records written
 *      (and, under a tear, exactly the whole-record prefix).
 *   2. Recovered stores are byte-identical to the live JSONL snapshot
 *      taken at the corresponding ingest.
 *   3. Healthy fleet completion is unaffected by poison tenants, and
 *      healthy throughput stays above 10% of the clean run.
 *
 * `--json <path>` writes one JSONL record per configuration.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "service/fleet.hh"
#include "service/report_store.hh"
#include "service/service.hh"
#include "support/journal.hh"
#include "support/rng.hh"

namespace {

using namespace prorace;
using support::Journal;
using support::JournalRecord;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("SELF-CHECK FAILED: %s\n", what);
        ++failures;
    }
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Scratch {
    Scratch()
    {
        path = (std::filesystem::temp_directory_path() /
                ("prorace-fig18-" + std::to_string(::getpid())))
                   .string();
        std::filesystem::create_directories(path);
    }

    ~Scratch()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string path;
};

detect::RaceReport
syntheticReport(Rng &rng)
{
    detect::RaceReport report;
    const int races = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < races; ++i) {
        detect::DataRace race;
        race.addr = 0x1000 + rng.below(1 << 14) * 8;
        race.prior.tid = 0;
        race.prior.insn_index = static_cast<uint32_t>(rng.below(2000));
        race.prior.is_write = true;
        race.prior.tsc = rng.below(1 << 20);
        race.current.tid = 1;
        race.current.insn_index = static_cast<uint32_t>(rng.below(2000));
        race.current.is_write = rng.chance(0.5);
        race.current.tsc = race.prior.tsc + 1 + rng.below(100);
        report.add(race);
    }
    return report;
}

/** Part A: one journal size — write, recover, tear, recover again. */
void
runJournalPoint(const Scratch &scratch, uint64_t records,
                bench::JsonReporter &json)
{
    const std::string path = scratch.path + "/reports-" +
        std::to_string(records) + ".jrnl";
    Rng rng(records * 31 + 7);

    // Pre-choose tear points (record indices whose record the tear
    // lands inside), then write a journal through the live store path,
    // snapshotting the JSONL only at those prefixes and at the end —
    // snapshotting every ingest would be O(n²) in time and memory.
    std::vector<uint64_t> tears;
    for (int t = 0; t < 4; ++t)
        tears.push_back(rng.below(records));
    std::map<uint64_t, std::string> snapshots;
    snapshots[0] = "";
    {
        Journal journal;
        std::string error;
        if (!journal.open(path, nullptr, &error)) {
            check(false, "journal opens for writing");
            return;
        }
        service::ReportStore store;
        store.bindJournal(&journal);
        const std::vector<std::string> tenants = {"a", "b", "c", "d"};
        const std::vector<std::string> programs = {"httpd", "pbzip2",
                                                   "aget"};
        for (uint64_t i = 0; i < records; ++i) {
            store.ingest(tenants[rng.below(tenants.size())],
                         programs[rng.below(programs.size())],
                         syntheticReport(rng), i + 1);
            // After ingest i the store holds i+1 reports; a tear
            // inside record index k leaves a k-record prefix, so the
            // snapshot it must match is the one taken after k ingests.
            for (const uint64_t tear : tears)
                if (tear == i + 1)
                    snapshots[i + 1] = store.toJsonl();
        }
        snapshots[records] = store.toJsonl();
        journal.close();
    }
    const uint64_t journal_bytes = std::filesystem::file_size(path);

    // Clean recovery, timed.
    service::ReportStore recovered;
    Journal journal;
    std::string error;
    const double t0 = now();
    const bool opened = journal.open(
        path,
        [&](const JournalRecord &r) {
            recovered.applyIngestRecord(r.payload);
        },
        &error);
    const double recovery_s = now() - t0;
    journal.close();
    check(opened, "journal recovery opens");
    check(journal.stats().recovered_records == records,
          "zero report loss: every record replayed");
    check(recovered.toJsonl() == snapshots[records],
          "recovered store byte-identical to live store");
    check(recovered.maxSequence() == records,
          "sequence numbering survives recovery");

    // Tear the journal at random offsets and recover each copy: the
    // valid whole-record prefix always comes back exactly.
    std::vector<uint8_t> bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        bytes.resize(journal_bytes);
        if (!f || std::fread(bytes.data(), 1, bytes.size(), f) !=
                      bytes.size())
            check(false, "journal readable for tearing");
        if (f)
            std::fclose(f);
    }
    const auto full = support::scanJournal(bytes);
    check(full.records.size() == records,
          "scan sees every written record");
    for (const uint64_t tear : tears) {
        if (tear >= full.records.size())
            continue;
        const JournalRecord &victim = full.records[tear];
        const size_t keep = static_cast<size_t>(
            victim.offset + rng.below(victim.end_offset - victim.offset));
        std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + keep);
        const auto scan = support::scanJournal(torn);
        service::ReportStore partial;
        for (const JournalRecord &r : scan.records)
            partial.applyIngestRecord(r.payload);
        check(scan.records.size() == tear,
              "tear inside record k keeps exactly k whole records");
        check(snapshots.count(scan.records.size()) &&
                  partial.toJsonl() == snapshots[scan.records.size()],
              "torn-tail recovery matches the whole-record prefix");
    }

    const double mb = static_cast<double>(journal_bytes) / (1 << 20);
    std::printf("%7llu records (%6.2f MB): recovery %7.1f ms "
                "(%7.0f rec/s, %6.1f MB/s), %llu distinct races\n",
                static_cast<unsigned long long>(records), mb,
                recovery_s * 1e3,
                recovery_s > 0 ? records / recovery_s : 0,
                recovery_s > 0 ? mb / recovery_s : 0,
                static_cast<unsigned long long>(
                    recovered.distinctRaces()));

    json.record("fig18_journal_recovery",
                {{"records", std::to_string(records)}},
                {{"journal_bytes", static_cast<double>(journal_bytes)},
                 {"recovery_s", recovery_s},
                 {"records_per_s",
                  recovery_s > 0 ? records / recovery_s : 0},
                 {"distinct_races",
                  static_cast<double>(recovered.distinctRaces())}});
}

/** One fleet run; returns healthy events/second. */
double
runFleetOnce(unsigned poison, bench::JsonReporter &json)
{
    service::FleetConfig cfg;
    cfg.producers = 3;
    cfg.sessions_per_producer = 2;
    cfg.subjects = {"aget-bug2", "pbzip2-0.9.4"};
    cfg.scale = 0.25;
    cfg.period = 8;
    cfg.seed = 7;
    cfg.poison_producers = poison;
    cfg.service.num_workers = 3;
    cfg.service.supervision.max_retries = 1;
    cfg.service.supervision.backoff_initial_seconds = 0.001;
    cfg.service.supervision.tenant_quarantine_strikes = 1;
    const service::FleetResult r = service::runFleet(cfg);

    uint64_t healthy_completed = 0, healthy_failed = 0;
    for (const auto &[name, ts] : r.tenants) {
        if (name.rfind("poison-", 0) == 0)
            continue;
        healthy_completed += ts.sessions_completed;
        healthy_failed += ts.sessions_failed;
    }
    check(healthy_completed ==
              static_cast<uint64_t>(cfg.producers) *
                  cfg.sessions_per_producer,
          "every healthy session completed");
    check(healthy_failed == 0, "no healthy session failed");
    const double events_per_s = r.wall_seconds > 0
        ? static_cast<double>(r.stats.rollup.incremental.events) /
            r.wall_seconds
        : 0;
    std::printf("fleet with %u poison tenants: %llu healthy sessions, "
                "%llu poison sessions, %6.2fs, %7.0f ev/s\n",
                poison,
                static_cast<unsigned long long>(healthy_completed),
                static_cast<unsigned long long>(r.poison_sessions),
                r.wall_seconds, events_per_s);
    json.record("fig18_quarantine",
                {{"poison", std::to_string(poison)}},
                {{"wall_s", r.wall_seconds},
                 {"events_per_s", events_per_s},
                 {"healthy_completed",
                  static_cast<double>(healthy_completed)},
                 {"poison_sessions",
                  static_cast<double>(r.poison_sessions)}});
    return events_per_s;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json(argc, argv);
    Scratch scratch;

    std::printf("=== fig18 part A: journal recovery time vs size ===\n");
    for (const uint64_t records : {1000ull, 4000ull, 16000ull})
        runJournalPoint(scratch, records, json);

    std::printf("\n=== fig18 part B: quarantine isolation ===\n");
    const double clean = runFleetOnce(0, json);
    const double poisoned = runFleetOnce(2, json);
    // Generous floor: quarantine bounds the damage, it does not make
    // poison free. CI boxes are noisy; 10% catches only collapse.
    check(poisoned > 0.1 * clean,
          "healthy throughput holds a 10% floor under poison");

    if (failures) {
        std::printf("\n%d self-check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall self-checks passed\n");
    return 0;
}
