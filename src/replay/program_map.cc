#include "replay/program_map.hh"

#include <bit>

#include "support/log.hh"

namespace prorace::replay {

namespace {

/** splitmix64 finalizer, same mix as support/flat_map.hh. */
uint64_t
mixHash(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

// --- registers ---

unsigned
ProgramMap::availableRegCount() const
{
    return static_cast<unsigned>(std::popcount(avail_mask_));
}

// --- bitmap helpers ---

void
ProgramMap::setBits(uint64_t *bm, unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        bm[w] |= mask;
        off += n;
        len -= n;
    }
}

void
ProgramMap::clearBits(uint64_t *bm, unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        bm[w] &= ~mask;
        off += n;
        len -= n;
    }
}

bool
ProgramMap::allSet(const uint64_t *bm, unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        if ((bm[w] & mask) != mask)
            return false;
        off += n;
        len -= n;
    }
    return true;
}

void
ProgramMap::setBitsExcept(uint64_t *dst, const uint64_t *veto,
                          unsigned off, unsigned len)
{
    while (len) {
        const unsigned w = off >> 6;
        const unsigned b = off & 63;
        const unsigned n = std::min(64u - b, len);
        const uint64_t mask =
            (n == 64 ? ~0ull : ((1ull << n) - 1)) << b;
        dst[w] |= mask & ~veto[w];
        off += n;
        len -= n;
    }
}

// --- page table ---

void
ProgramMap::growTable(size_t new_cap)
{
    std::vector<std::unique_ptr<Page>> old = std::move(table_);
    table_.clear();
    table_.resize(new_cap);
    const size_t mask = new_cap - 1;
    for (auto &slot : old) {
        if (!slot)
            continue;
        size_t i = mixHash(slot->index) & mask;
        while (table_[i])
            i = (i + 1) & mask;
        table_[i] = std::move(slot);
    }
    last_page_ = nullptr; // slots moved
}

ProgramMap::Page *
ProgramMap::findPage(uint64_t page_index)
{
    ++mstats_.page_lookups;
    if (last_page_ && last_page_->index == page_index) {
        ++mstats_.cache_hits;
        refreshAvail(*last_page_);
        return last_page_;
    }
    if (table_.empty())
        return nullptr;
    const size_t mask = table_.size() - 1;
    size_t i = mixHash(page_index) & mask;
    while (table_[i]) {
        ++mstats_.probe_steps;
        if (table_[i]->index == page_index) {
            last_page_ = table_[i].get();
            refreshAvail(*last_page_);
            return last_page_;
        }
        i = (i + 1) & mask;
    }
    return nullptr;
}

ProgramMap::Page &
ProgramMap::getPage(uint64_t page_index)
{
    if (Page *page = findPage(page_index))
        return *page;

    // Pages are never removed (invalidation is an epoch bump), so the
    // table needs no tombstones; keep load under 1/2 for short probes.
    if (table_.empty()) {
        growTable(16);
    } else if ((page_count_ + 1) * 2 >= table_.size()) {
        growTable(table_.size() * 2);
    }

    const size_t mask = table_.size() - 1;
    size_t i = mixHash(page_index) & mask;
    while (table_[i]) {
        ++mstats_.probe_steps;
        i = (i + 1) & mask;
    }
    table_[i] = std::make_unique<Page>();
    table_[i]->index = page_index;
    table_[i]->avail_epoch = epoch_;
    ++page_count_;
    ++mstats_.pages_allocated;
    last_page_ = table_[i].get();
    return *last_page_;
}

// --- emulated memory ---

void
ProgramMap::checkSpan(uint64_t addr, uint8_t width)
{
    PRORACE_ASSERT(width == 1 || width == 2 || width == 4 || width == 8,
                   "degenerate memory-access width ", unsigned(width));
    PRORACE_ASSERT(addr <= ~uint64_t{0} - width,
                   "memory span wraps the address space at ", addr);
}

void
ProgramMap::writeMem(uint64_t addr, uint64_t value, uint8_t width)
{
    checkSpan(addr, width);
    unsigned done = 0;
    while (done < width) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = std::min<unsigned>(width - done,
                                              kPageBytes - off);
        Page &page = getPage(a >> kPageShift);
        for (unsigned i = 0; i < n; ++i) {
            page.bytes[off + i] =
                static_cast<uint8_t>(value >> (8 * (done + i)));
        }
        // Blacklisted bytes never become available again.
        setBitsExcept(page.avail.data(), page.blacklist.data(), off, n);
        done += n;
    }
}

void
ProgramMap::invalidateMem(uint64_t addr, uint8_t width)
{
    checkSpan(addr, width);
    unsigned done = 0;
    while (done < width) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = std::min<unsigned>(width - done,
                                              kPageBytes - off);
        if (Page *page = findPage(a >> kPageShift))
            clearBits(page->avail.data(), off, n);
        done += n;
    }
}

std::optional<uint64_t>
ProgramMap::readMem(uint64_t addr, uint8_t width)
{
    checkSpan(addr, width);

    // An access spans at most two pages (width <= 8 << page size).
    struct Chunk {
        Page *page;
        unsigned off;
        unsigned len;
        unsigned byte_shift; ///< position of the chunk in the value
    };
    Chunk chunks[2];
    unsigned num_chunks = 0;

    // Pass 1: every byte must be available before anything is consumed.
    unsigned done = 0;
    while (done < width) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = std::min<unsigned>(width - done,
                                              kPageBytes - off);
        Page *page = findPage(a >> kPageShift);
        if (!page || !allSet(page->avail.data(), off, n))
            return std::nullopt;
        chunks[num_chunks++] = {page, off, n, done};
        done += n;
    }

    // Pass 2: assemble the value and mark the span consumed.
    uint64_t value = 0;
    for (unsigned c = 0; c < num_chunks; ++c) {
        const Chunk &chunk = chunks[c];
        for (unsigned i = 0; i < chunk.len; ++i) {
            value |= static_cast<uint64_t>(chunk.page->bytes[chunk.off + i])
                << (8 * (chunk.byte_shift + i));
        }
        setBits(chunk.page->consumed.data(), chunk.off, chunk.len);
    }
    return value;
}

void
ProgramMap::invalidateMemory()
{
    // O(1): stale pages refresh their availability bitmap on first
    // touch. Value bytes, blacklist, and consumed marks all survive.
    ++epoch_;
    ++mstats_.mem_invalidations;
}

void
ProgramMap::reset()
{
    // A fresh map's state, minus the allocation: the epoch bump makes
    // every page's availability stale. Not an invalidateMemory(), so it
    // is not counted as one.
    avail_mask_ = 0;
    ++epoch_;
    if (page_count_ > kRetainedPages)
        releasePages();
}

void
ProgramMap::releasePages()
{
    collectConsumed(released_consumed_);
    table_.clear();
    page_count_ = 0;
    last_page_ = nullptr;
    for (const auto &[addr, size] : blacklist_)
        markBlacklisted(addr, size);
}

void
ProgramMap::blacklistMem(uint64_t addr, uint64_t size)
{
    blacklist_.emplace_back(addr, size);
    markBlacklisted(addr, size);
}

void
ProgramMap::markBlacklisted(uint64_t addr, uint64_t size)
{
    uint64_t done = 0;
    while (done < size) {
        const uint64_t a = addr + done;
        const unsigned off = static_cast<unsigned>(a & kOffsetMask);
        const unsigned n = static_cast<unsigned>(
            std::min<uint64_t>(size - done, kPageBytes - off));
        Page &page = getPage(a >> kPageShift);
        setBits(page.blacklist.data(), off, n);
        clearBits(page.avail.data(), off, n);
        done += n;
    }
}

void
ProgramMap::collectConsumed(std::unordered_set<uint64_t> &out) const
{
    for (const auto &slot : table_) {
        if (!slot)
            continue;
        const uint64_t base = slot->index << kPageShift;
        for (unsigned w = 0; w < kWordsPerPage; ++w) {
            for (uint64_t bits = slot->consumed[w]; bits; bits &= bits - 1) {
                out.insert(base + 64ull * w +
                           static_cast<unsigned>(std::countr_zero(bits)));
            }
        }
    }
}

std::unordered_set<uint64_t>
ProgramMap::consumedAddresses() const
{
    std::unordered_set<uint64_t> out = released_consumed_;
    collectConsumed(out);
    return out;
}

} // namespace prorace::replay
