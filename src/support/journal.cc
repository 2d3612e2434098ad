#include "support/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "support/crc32.hh"

namespace prorace::support {

namespace {

/** Fixed bytes before the payload: magic, type, size, crc. */
constexpr size_t kRecordHeaderSize = 16;

/** Sane per-record payload bound; a larger size field is corruption. */
constexpr uint32_t kMaxPayloadSize = 256u << 20;

uint32_t
readLe32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

void
writeLe32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** CRC over (type, size, payload) — the whole record minus magic+crc. */
uint32_t
recordCrc(uint32_t type, const uint8_t *payload, size_t size)
{
    uint8_t head[8];
    writeLe32(head, type);
    writeLe32(head + 4, static_cast<uint32_t>(size));
    return crc32(payload, size, crc32(head, sizeof head));
}

} // namespace

JournalScan
scanJournal(const std::vector<uint8_t> &bytes)
{
    JournalScan scan;
    size_t pos = 0;
    while (bytes.size() - pos >= kRecordHeaderSize) {
        const uint8_t *head = bytes.data() + pos;
        if (readLe32(head) != kJournalRecordMagic)
            break;
        const uint32_t type = readLe32(head + 4);
        const uint32_t size = readLe32(head + 8);
        const uint32_t crc = readLe32(head + 12);
        if (size > kMaxPayloadSize ||
            size > bytes.size() - pos - kRecordHeaderSize)
            break;
        const uint8_t *payload = head + kRecordHeaderSize;
        if (recordCrc(type, payload, size) != crc)
            break;
        JournalRecord record;
        record.type = type;
        record.payload.assign(payload, payload + size);
        record.offset = pos;
        record.end_offset = pos + kRecordHeaderSize + size;
        pos = static_cast<size_t>(record.end_offset);
        scan.records.push_back(std::move(record));
    }
    scan.valid_prefix_bytes = pos;
    scan.clean = pos == bytes.size();
    return scan;
}

JournalScan
scanJournalFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    return scanJournal(bytes);
}

Journal::~Journal()
{
    close();
}

bool
Journal::open(const std::string &path, const Options &options,
              const std::function<void(const JournalRecord &)> &replay,
              std::string *error)
{
    close();
    options_ = options;
    stats_ = JournalStats{};

    // Recover first from a plain read of the current image, then open
    // for append and cut the invalid tail.
    JournalScan scan = scanJournalFile(path);

    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        if (error)
            *error = path + ": " + std::strerror(errno);
        return false;
    }
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    const uint64_t file_size = end < 0 ? 0 : static_cast<uint64_t>(end);
    if (file_size > scan.valid_prefix_bytes) {
        stats_.truncated_bytes = file_size - scan.valid_prefix_bytes;
        if (::ftruncate(fd_, static_cast<off_t>(
                                 scan.valid_prefix_bytes)) != 0) {
            if (error)
                *error = path + ": ftruncate: " + std::strerror(errno);
            ::close(fd_);
            fd_ = -1;
            return false;
        }
    }
    size_bytes_ = scan.valid_prefix_bytes;
    stats_.recovered_records = scan.records.size();
    stats_.recovered_bytes = scan.valid_prefix_bytes;

    if (replay) {
        for (const JournalRecord &record : scan.records)
            replay(record);
    }
    return true;
}

bool
Journal::append(uint32_t type, const std::vector<uint8_t> &payload)
{
    if (fd_ < 0)
        return false;
    std::vector<uint8_t> frame(kRecordHeaderSize + payload.size());
    writeLe32(frame.data(), kJournalRecordMagic);
    writeLe32(frame.data() + 4, type);
    writeLe32(frame.data() + 8, static_cast<uint32_t>(payload.size()));
    writeLe32(frame.data() + 12,
              recordCrc(type, payload.data(), payload.size()));
    // An empty payload's data() may be null, which memcpy forbids even
    // for zero bytes.
    if (!payload.empty())
        std::memcpy(frame.data() + kRecordHeaderSize, payload.data(),
                    payload.size());

    size_t written = 0;
    while (written < frame.size()) {
        const ssize_t n = ::write(fd_, frame.data() + written,
                                  frame.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<size_t>(n);
    }
    size_bytes_ += frame.size();
    ++stats_.appended_records;
    stats_.appended_bytes += frame.size();
    if (options_.sync_every_records &&
        ++appends_since_sync_ >= options_.sync_every_records)
        sync();
    return true;
}

void
Journal::sync()
{
    if (fd_ < 0)
        return;
    ::fsync(fd_);
    ++stats_.syncs;
    appends_since_sync_ = 0;
}

void
Journal::close()
{
    if (fd_ < 0)
        return;
    sync();
    ::close(fd_);
    fd_ = -1;
}

} // namespace prorace::support
