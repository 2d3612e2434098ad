#include "service/report_store.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace prorace::service {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
rwSignatureName(uint8_t signature)
{
    std::string name;
    name += (signature & 1) ? 'W' : 'R';
    name += (signature & 2) ? 'W' : 'R';
    return name;
}

uint64_t
programFingerprint(const std::string &program_id)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : program_id) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

RaceSiteKey
raceSiteKey(uint64_t program_fp, const detect::DataRace &race)
{
    RaceSiteKey key;
    key.program_fp = program_fp;
    // Normalize by instruction order so the key does not depend on
    // which side the detector happened to see first.
    const bool prior_is_min =
        race.prior.insn_index <= race.current.insn_index;
    const detect::RaceAccess &lo =
        prior_is_min ? race.prior : race.current;
    const detect::RaceAccess &hi =
        prior_is_min ? race.current : race.prior;
    key.min_insn = lo.insn_index;
    key.max_insn = hi.insn_index;
    key.rw_signature = static_cast<uint8_t>((lo.is_write ? 1 : 0) |
                                            (hi.is_write ? 2 : 0));
    return key;
}

namespace {

constexpr uint32_t kIngestRecordVersion = 1;

} // namespace

std::vector<uint8_t>
ReportStore::encodeIngestRecord(const std::string &tenant,
                                const std::string &program_id,
                                const detect::RaceReport &report,
                                uint64_t sequence)
{
    support::ByteWriter w;
    w.u32(kIngestRecordVersion);
    w.u64(sequence);
    w.str(tenant);
    w.str(program_id);
    w.u32(static_cast<uint32_t>(report.races().size()));
    for (const detect::DataRace &race : report.races()) {
        w.u64(race.addr);
        detect::putRaceAccess(w, race.prior);
        detect::putRaceAccess(w, race.current);
    }
    return w.take();
}

bool
ReportStore::applyIngestRecord(const std::vector<uint8_t> &payload)
{
    support::ByteReader r(payload.data(), payload.size());
    if (r.u32() != kIngestRecordVersion)
        return false;
    const uint64_t sequence = r.u64();
    const std::string tenant = r.str();
    const std::string program_id = r.str();
    const uint32_t count = r.u32();
    if (!r.ok() || count > payload.size())
        return false;
    std::vector<detect::DataRace> races;
    races.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        detect::DataRace race;
        race.addr = r.u64();
        if (!detect::getRaceAccess(r, race.prior) ||
            !detect::getRaceAccess(r, race.current)) {
            return false;
        }
        races.push_back(race);
    }
    if (!r.ok() || !r.exhausted())
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    ingestLocked(tenant, program_id, races, sequence);
    return true;
}

void
ReportStore::bindJournal(support::Journal *journal)
{
    std::lock_guard<std::mutex> lock(mu_);
    journal_ = journal;
}

uint64_t
ReportStore::maxSequence() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return max_sequence_;
}

void
ReportStore::ingest(const std::string &tenant,
                    const std::string &program_id,
                    const detect::RaceReport &report, uint64_t sequence)
{
    std::lock_guard<std::mutex> lock(mu_);
    // Journal first: a crash between the append and the in-memory fold
    // replays the record on restart, and a crash before the append
    // loses a report the caller never saw acknowledged. Either way the
    // recovered store equals a replay of the journal's valid prefix.
    if (journal_)
        journal_->append(
            kReportIngestRecord,
            encodeIngestRecord(tenant, program_id, report, sequence));
    ingestLocked(tenant, program_id, report.races(), sequence);
}

void
ReportStore::ingestLocked(const std::string &tenant,
                          const std::string &program_id,
                          const std::vector<detect::DataRace> &races,
                          uint64_t sequence)
{
    ++observations_;
    max_sequence_ = std::max(max_sequence_, sequence);
    const uint64_t fp = programFingerprint(program_id);
    for (const detect::DataRace &race : races) {
        const RaceSiteKey key = raceSiteKey(fp, race);
        auto [it, inserted] = races_.try_emplace(key);
        StoredRace &entry = it->second;
        if (inserted) {
            entry.key = key;
            entry.program_id = program_id;
            entry.first_seen = sequence;
            entry.example_addr = race.addr;
            entry.example = race;
        }
        // Completions can fold in out of sequence order (the analysis
        // pool finishes sessions in any order): min/max, not first/last
        // arrival.
        entry.first_seen = std::min(entry.first_seen, sequence);
        entry.last_seen = std::max(entry.last_seen, sequence);
        ++entry.observations;
        entry.tenants.insert(tenant);
    }
}

std::vector<StoredRace>
ReportStore::query(const std::string &program_id,
                   const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<StoredRace> out;
    out.reserve(races_.size());
    for (const auto &[key, entry] : races_) {
        if (!program_id.empty() && entry.program_id != program_id)
            continue;
        if (!tenant.empty() && !entry.tenants.count(tenant))
            continue;
        out.push_back(entry);
    }
    std::sort(out.begin(), out.end(),
              [](const StoredRace &a, const StoredRace &b) {
                  if (a.program_id != b.program_id)
                      return a.program_id < b.program_id;
                  return a.key < b.key;
              });
    return out;
}

size_t
ReportStore::distinctRaces() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return races_.size();
}

uint64_t
ReportStore::totalObservations() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return observations_;
}

std::string
ReportStore::toJsonl() const
{
    std::ostringstream out;
    for (const StoredRace &entry : query()) {
        out << "{\"program\":\"" << jsonEscape(entry.program_id) << "\""
            << ",\"insn_pair\":[" << entry.key.min_insn << ","
            << entry.key.max_insn << "]"
            << ",\"rw\":\"" << rwSignatureName(entry.key.rw_signature)
            << "\""
            << ",\"observations\":" << entry.observations
            << ",\"tenants\":" << entry.tenants.size()
            << ",\"first_seen\":" << entry.first_seen
            << ",\"last_seen\":" << entry.last_seen << ",\"addr\":\"0x"
            << std::hex << entry.example_addr << std::dec << "\"}\n";
    }
    return out.str();
}

} // namespace prorace::service
