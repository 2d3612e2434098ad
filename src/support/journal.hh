/**
 * @file
 * Write-ahead journal: crash-durable append-only record log.
 *
 * The fleet service must survive the process dying at any instruction:
 * the cross-tenant report store is rebuilt on restart by replaying this
 * journal, so the durability contract is the classic WAL one — after a
 * crash, the recovered state is byte-identical to the state at the last
 * record that reached the disk, and a torn tail (a record the crash cut
 * mid-write) is silently truncated rather than poisoning recovery.
 *
 * On-disk format, repeated per record:
 *
 *   record := u32 magic "JRNL", u32 type, u32 payload_size,
 *             u32 crc, payload
 *
 * where crc is the CRC-32 of (type, payload_size, payload) as one
 * stream, so a flipped byte anywhere in the record — header or payload
 * — invalidates it. Validity is prefix-shaped: open() replays records
 * from byte 0 and stops at the first one that fails its magic, bounds,
 * or CRC check, truncating the file there. A record is therefore
 * recoverable iff every record before it is.
 *
 * Appends write() the framed record immediately and fsync() in batches
 * (every Journal::kSyncEveryRecords appends; sync() forces one).
 * A crash can lose at most the unsynced suffix; it can never corrupt
 * the synced prefix, because records are strictly appended and the
 * header of record N+1 lands after the last byte of record N.
 *
 * ByteWriter/ByteReader are the little-endian codec of journal payloads
 * (report-store ingest records): length-prefixed strings and
 * fixed-width integers. ByteReader never reads out of bounds; any
 * malformed payload turns every subsequent read into zero/empty and
 * latches ok() false.
 */

#ifndef PRORACE_SUPPORT_JOURNAL_HH
#define PRORACE_SUPPORT_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace prorace::support {

/** Little-endian payload encoder for journal records. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    const std::vector<uint8_t> &bytes() const { return bytes_; }
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/** Bounds-checked decoder; reads past the end latch ok() false. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    explicit ByteReader(const std::vector<uint8_t> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
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

    std::string
    str()
    {
        const uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** No read ran out of bounds so far. */
    bool ok() const { return ok_; }

    /** ok() and every byte was consumed (strict whole-payload parse). */
    bool exhausted() const { return ok_ && pos_ == size_; }

  private:
    bool
    need(size_t n)
    {
        if (!ok_ || n > size_ - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Magic bytes opening every journal record. */
inline constexpr uint32_t kJournalRecordMagic = 0x4C4E524A; // "JRNL"

/** Journal observability counters. */
struct JournalStats {
    uint64_t recovered_records = 0; ///< records replayed by open()
    uint64_t recovered_bytes = 0;   ///< valid prefix length at open()
    uint64_t truncated_bytes = 0;   ///< torn/corrupt tail cut by open()
    uint64_t appended_records = 0;  ///< records appended this process
    uint64_t appended_bytes = 0;
    uint64_t syncs = 0;             ///< fsync() calls issued
};

/** One record as seen by a replay callback or a scan. */
struct JournalRecord {
    uint32_t type = 0;
    std::vector<uint8_t> payload;
    uint64_t offset = 0;   ///< file offset of the record's magic
    uint64_t end_offset = 0; ///< file offset one past the payload
};

/**
 * Result of scanning a journal image without opening it for append:
 * the records of the valid prefix and where that prefix ends. Used by
 * the chaos harness and `prorace_cli store --verify` to check the
 * recovery invariant through an independent code path.
 */
struct JournalScan {
    std::vector<JournalRecord> records;
    uint64_t valid_prefix_bytes = 0;
    /** False when bytes past the valid prefix exist (torn/corrupt). */
    bool clean = true;
};

/** Decode the valid record prefix of a journal image. */
JournalScan scanJournal(const std::vector<uint8_t> &bytes);

/** scanJournal() over a file; missing file = empty clean journal. */
JournalScan scanJournalFile(const std::string &path);

/**
 * The append side. open() recovers (replay + torn-tail truncation),
 * append() frames and writes, sync() makes everything written durable.
 * Not internally locked: the service serializes appends under its own
 * mutex, which is also what keeps journal order identical to store
 * ingest order.
 */
class Journal
{
  public:
    /** append() fsyncs after every this many appends. */
    static constexpr uint32_t kSyncEveryRecords = 8;

    Journal() = default;
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open @p path for append, creating it if absent. Existing records
     * of the valid prefix are handed to @p replay in append order; the
     * torn/corrupt tail (if any) is truncated away before the first new
     * append. Returns false (with *error set) only when the file cannot
     * be opened or truncated — a damaged tail is recovery, not an
     * error.
     */
    bool open(const std::string &path,
              const std::function<void(const JournalRecord &)> &replay,
              std::string *error);

    /**
     * Append one record. Returns false when the write failed (disk
     * full, fd gone) — the caller keeps running; durability degrades
     * but the in-memory store stays correct.
     */
    bool append(uint32_t type, const std::vector<uint8_t> &payload);

    /** fsync everything appended so far. */
    void sync();

    /** sync and close; reopenable via open(). */
    void close();

    /** Current journal size in bytes (valid prefix + appends). */
    uint64_t sizeBytes() const { return size_bytes_; }

    const JournalStats &stats() const { return stats_; }

  private:
    int fd_ = -1;
    uint64_t size_bytes_ = 0;
    uint32_t appends_since_sync_ = 0;
    JournalStats stats_;
};

} // namespace prorace::support

#endif // PRORACE_SUPPORT_JOURNAL_HH
