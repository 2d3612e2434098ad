/**
 * @file
 * The "program map" of the paper's replay engine (§5.1): an
 * availability-tracked model of the architectural state used while
 * re-executing the binary offline.
 *
 * Every register is either available (value known) or unavailable.
 * Memory is emulated opportunistically: a store of a known value to a
 * known address makes that location available; loads from unavailable
 * locations poison their destination register; syscalls and other
 * scheduling points conservatively invalidate all emulated memory.
 *
 * Emulated memory is a sanitizer-style paged shadow (DESIGN.md §9):
 * fixed 4 KiB pages carry the value bytes plus per-byte availability,
 * blacklist, and consumed bitmaps, behind an open-addressing page table
 * with a one-entry last-page cache. An aligned 8-byte load or store is
 * one page lookup plus word-wide bitmap ops, and invalidateMemory() is
 * an O(1) epoch bump instead of a hash-map rehash.
 *
 * One map serves every replay pass of a Replayer: reset() starts a pass
 * in O(1) and keeps the allocated pages, so a warm map allocates nothing.
 */

#ifndef PRORACE_REPLAY_PROGRAM_MAP_HH
#define PRORACE_REPLAY_PROGRAM_MAP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "isa/reg.hh"
#include "support/log.hh"
#include "vm/cpu.hh"

namespace prorace::replay {

/** Shadow-page and page-table behavior counters. */
struct ProgramMapStats {
    uint64_t pages_allocated = 0;
    uint64_t page_lookups = 0;    ///< page-resolutions (incl. cache hits)
    uint64_t cache_hits = 0;      ///< served by the last-page cache
    uint64_t probe_steps = 0;     ///< table slots inspected on misses
    uint64_t mem_invalidations = 0; ///< invalidateMemory() epoch bumps

    void
    merge(const ProgramMapStats &o)
    {
        pages_allocated += o.pages_allocated;
        page_lookups += o.page_lookups;
        cache_hits += o.cache_hits;
        probe_steps += o.probe_steps;
        mem_invalidations += o.mem_invalidations;
    }
};

/** Availability-tracked registers + paged emulated memory. */
class ProgramMap
{
  public:
    /** Start with every register and all memory unavailable. */
    ProgramMap() = default;

    /** Restore the full register file from a PEBS sample. */
    void
    restoreRegs(const vm::RegFile &regs)
    {
        values_ = regs.gpr;
        avail_mask_ = 0xffff;
    }

    /** True when @p reg holds a known value. */
    bool
    regAvailable(isa::Reg reg) const
    {
        PRORACE_ASSERT(isGpr(reg), "availability of non-GPR");
        return (avail_mask_ >> gprIndex(reg)) & 1u;
    }

    /** Value of an available register (assert-checked). */
    uint64_t
    regValue(isa::Reg reg) const
    {
        PRORACE_ASSERT(regAvailable(reg), "read of unavailable register ",
                       isa::regName(reg));
        return values_[gprIndex(reg)];
    }

    /** Make @p reg available with @p value. */
    void
    setReg(isa::Reg reg, uint64_t value)
    {
        PRORACE_ASSERT(isGpr(reg), "set of non-GPR");
        values_[gprIndex(reg)] = value;
        avail_mask_ |= static_cast<uint16_t>(1u << gprIndex(reg));
    }

    /** Mark @p reg unavailable. */
    void
    invalidateReg(isa::Reg reg)
    {
        PRORACE_ASSERT(isGpr(reg), "invalidate of non-GPR");
        avail_mask_ &= static_cast<uint16_t>(~(1u << gprIndex(reg)));
    }

    /** Mark the registers of @p mask (bit i = gpr i) unavailable. */
    void
    invalidateRegs(uint16_t mask)
    {
        avail_mask_ &= static_cast<uint16_t>(~mask);
    }

    /** Mark every register unavailable (library-code gaps). */
    void invalidateAllRegs() { avail_mask_ = 0; }

    /** The available registers (bit i = gpr i). */
    uint16_t availMask() const { return avail_mask_; }

    /**
     * The register values, available or not (entry i = gpr i); with
     * availMask() the whole register file a replay pass may save.
     */
    const std::array<uint64_t, isa::kNumGprs> &regValues() const
    {
        return values_;
    }

    /** Restore a register file saved with regValues() and availMask(). */
    void
    restoreRegs(const std::array<uint64_t, isa::kNumGprs> &values,
                uint16_t avail_mask)
    {
        values_ = values;
        avail_mask_ = avail_mask;
    }

    /** Emulate a store of a known value (marks bytes available). */
    void writeMem(uint64_t addr, uint64_t value, uint8_t width);

    /** Mark [addr, addr+width) unavailable (store of unknown value). */
    void invalidateMem(uint64_t addr, uint8_t width);

    /**
     * Emulated load: the value if every byte is available. A successful
     * read records the address range as *consumed*, so the pipeline can
     * later regenerate the trace if a race is found on it (§5.1).
     */
    std::optional<uint64_t> readMem(uint64_t addr, uint8_t width);

    /** Drop all emulated memory (syscall / scheduling point). */
    void invalidateMemory();

    /**
     * Start a new replay pass: every register and all emulated memory
     * become unavailable, as in a fresh map. The blacklist and the
     * consumed marks carry over. Allocated pages are kept for reuse
     * unless more than kRetainedPages are live; then they are released
     * (consumed marks kept aside), so a long run's shadow stays bounded.
     */
    void reset();

    /**
     * Blacklist an address range: it is never emulated again (used when
     * regenerating after a race on an emulated location).
     */
    void blacklistMem(uint64_t addr, uint64_t size);

    /**
     * Emulated byte addresses whose values were consumed by reads,
     * rebuilt lazily from the per-page consumed bitmaps. Consumed marks
     * survive invalidateMemory() and reset().
     */
    std::unordered_set<uint64_t> consumedAddresses() const;

    /** Number of registers currently available. */
    unsigned availableRegCount() const;

    /** Shadow-structure counters (merged into ReplayStats). */
    const ProgramMapStats &memStats() const { return mstats_; }

    /** Pages a reset() keeps; beyond this it releases them all. */
    static constexpr size_t kRetainedPages = 256;

  private:
    static constexpr unsigned kPageShift = 12; ///< 4 KiB value bytes
    static constexpr uint64_t kPageBytes = 1ull << kPageShift;
    static constexpr uint64_t kOffsetMask = kPageBytes - 1;
    static constexpr unsigned kWordsPerPage =
        static_cast<unsigned>(kPageBytes / 64);

    /**
     * One shadow page: value bytes plus per-byte bitmaps. Availability
     * is epoch-validated — a page whose avail_epoch is stale logically
     * has an all-zero availability bitmap and is refreshed on first
     * touch, which is what makes invalidateMemory() O(1).
     */
    struct Page {
        uint64_t index = 0; ///< page number (addr >> kPageShift)
        uint64_t avail_epoch = 0;
        std::array<uint8_t, kPageBytes> bytes{};
        std::array<uint64_t, kWordsPerPage> avail{};
        std::array<uint64_t, kWordsPerPage> blacklist{};
        std::array<uint64_t, kWordsPerPage> consumed{};
    };

    /** Page for @p page_index, or nullptr; refreshes stale epochs. */
    Page *findPage(uint64_t page_index);

    /** Page for @p page_index, created on demand; epoch-fresh. */
    Page &getPage(uint64_t page_index);

    /** Zero a stale availability bitmap and stamp the current epoch. */
    void
    refreshAvail(Page &page)
    {
        if (page.avail_epoch != epoch_) {
            page.avail.fill(0);
            page.avail_epoch = epoch_;
        }
    }

    void growTable(size_t new_cap);

    /** Add the consumed byte addresses of the live pages to @p out. */
    void collectConsumed(std::unordered_set<uint64_t> &out) const;

    /** Free every page, keeping consumed marks and the blacklist. */
    void releasePages();

    /** Set the blacklist bits of [addr, addr+size). */
    void markBlacklisted(uint64_t addr, uint64_t size);

    /** Width must be a power-of-two load/store size with no wraparound. */
    static void checkSpan(uint64_t addr, uint8_t width);

    // --- bitmap helpers over [off, off+len) bit ranges ---
    static void setBits(uint64_t *bm, unsigned off, unsigned len);
    static void clearBits(uint64_t *bm, unsigned off, unsigned len);
    static bool allSet(const uint64_t *bm, unsigned off, unsigned len);
    /** dst |= range-mask & ~veto (availability respecting blacklist). */
    static void setBitsExcept(uint64_t *dst, const uint64_t *veto,
                              unsigned off, unsigned len);

    std::array<uint64_t, isa::kNumGprs> values_{};
    uint16_t avail_mask_ = 0;

    /** Open-addressing page table (power-of-two, never shrinks). */
    std::vector<std::unique_ptr<Page>> table_;
    size_t page_count_ = 0;
    Page *last_page_ = nullptr; ///< one-entry lookup cache
    uint64_t epoch_ = 1;
    mutable ProgramMapStats mstats_;

    /** Every blacklistMem() range, re-applied after releasePages(). */
    std::vector<std::pair<uint64_t, uint64_t>> blacklist_;
    /** Consumed byte addresses of released pages. */
    std::unordered_set<uint64_t> released_consumed_;
};

} // namespace prorace::replay

#endif // PRORACE_REPLAY_PROGRAM_MAP_HH
