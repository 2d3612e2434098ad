/**
 * @file
 * A flat open-addressing hash table keyed by uint64_t.
 *
 * The offline hot loops (FastTrack shadow lookups, lock/exit clocks,
 * allocation lifetimes) are dominated by metadata-table probes; node
 * containers (std::map, std::unordered_map) pay a pointer chase and an
 * allocation per entry on exactly those paths. FlatMap probes a
 * power-of-two slot array with linear probing, a one-byte control word
 * per slot, and tombstone deletion, so the common lookup is one hash,
 * one control-byte load, and one key compare in the same cache line
 * neighborhood, then one indexed load of the value.
 *
 * Values live out of the table, in a slab: each full slot holds a
 * 32-bit index into a vector of values with a free list. A rehash
 * moves only keys and indices, never a value; an erase resets its
 * value to Value() and frees the entry for the next insert. The slab
 * layout is invisible to callers: capacity, probe order, counters and
 * forEach order are those of the table alone (DESIGN.md §9.2).
 *
 * Not a general-purpose container: keys are uint64_t, values must be
 * default-constructible and movable, and references returned by
 * operator[]/find are invalidated by any later insertion (the slab may
 * grow). Iteration order is capacity-dependent and must never
 * influence report output (see DESIGN.md §9.3).
 */

#ifndef PRORACE_SUPPORT_FLAT_MAP_HH
#define PRORACE_SUPPORT_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prorace {

/** Probe-behavior counters of one FlatMap instance. */
struct FlatMapStats {
    uint64_t lookups = 0;     ///< find/insert operations
    uint64_t probe_steps = 0; ///< slots inspected across all lookups
    uint64_t rehashes = 0;
};

/** Open-addressing uint64_t -> Value table with slab value storage. */
template <typename Value>
class FlatMap
{
  public:
    FlatMap() = default;

    /** Value for @p key, default-constructed and inserted if absent. */
    Value &
    operator[](uint64_t key)
    {
        reserveForInsert();
        ++stats_.lookups;
        const size_t mask = ctrl_.size() - 1;
        size_t i = mixHash(key) & mask;
        size_t tomb = kNoSlot;
        for (;;) {
            ++stats_.probe_steps;
            const uint8_t c = ctrl_[i];
            if (c == kEmpty) {
                const size_t slot = tomb != kNoSlot ? tomb : i;
                ctrl_[slot] = kFull;
                keys_[slot] = key;
                vals_[slot] = allocValue();
                if (tomb == kNoSlot)
                    ++used_;
                ++size_;
                return slab_[vals_[slot]];
            }
            if (c == kTomb) {
                if (tomb == kNoSlot)
                    tomb = i;
            } else if (keys_[i] == key) {
                return slab_[vals_[i]];
            }
            i = (i + 1) & mask;
        }
    }

    /** Pointer to the value for @p key, or nullptr. */
    Value *
    find(uint64_t key)
    {
        return const_cast<Value *>(
            static_cast<const FlatMap *>(this)->find(key));
    }

    const Value *
    find(uint64_t key) const
    {
        if (ctrl_.empty())
            return nullptr;
        ++stats_.lookups;
        const size_t mask = ctrl_.size() - 1;
        size_t i = mixHash(key) & mask;
        for (;;) {
            ++stats_.probe_steps;
            const uint8_t c = ctrl_[i];
            if (c == kEmpty)
                return nullptr;
            if (c == kFull && keys_[i] == key)
                return &slab_[vals_[i]];
            i = (i + 1) & mask;
        }
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(uint64_t key)
    {
        if (ctrl_.empty())
            return false;
        ++stats_.lookups;
        const size_t mask = ctrl_.size() - 1;
        size_t i = mixHash(key) & mask;
        for (;;) {
            ++stats_.probe_steps;
            const uint8_t c = ctrl_[i];
            if (c == kEmpty)
                return false;
            if (c == kFull && keys_[i] == key) {
                ctrl_[i] = kTomb;
                slab_[vals_[i]] = Value(); // release any owned resources
                free_.push_back(vals_[i]);
                --size_;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return ctrl_.size(); }

    void
    clear()
    {
        ctrl_.clear();
        keys_.clear();
        vals_.clear();
        slab_.clear();
        free_.clear();
        size_ = used_ = 0;
    }

    /** Visit every (key, value) pair; order is not meaningful. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < ctrl_.size(); ++i) {
            if (ctrl_[i] == kFull)
                fn(keys_[i], slab_[vals_[i]]);
        }
    }

    const FlatMapStats &probeStats() const { return stats_; }

  private:
    static constexpr uint8_t kEmpty = 0;
    static constexpr uint8_t kFull = 1;
    static constexpr uint8_t kTomb = 2;
    static constexpr size_t kNoSlot = ~size_t{0};
    static constexpr size_t kInitialCapacity = 16;

    /** splitmix64 finalizer: full-avalanche mix of the raw key. */
    static uint64_t
    mixHash(uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    /** Keep load (live + tombstones) under 7/8 before an insert. */
    void
    reserveForInsert()
    {
        if (ctrl_.empty()) {
            rehash(kInitialCapacity);
            return;
        }
        if ((used_ + 1) * 8 >= ctrl_.size() * 7) {
            // Grow only when live entries dominate; otherwise the same
            // capacity flushes accumulated tombstones.
            rehash(size_ * 8 >= ctrl_.size() * 3 ? ctrl_.size() * 2
                                                 : ctrl_.size());
        }
    }

    /** A slab entry holding Value(): a freed one, else a new one. */
    uint32_t
    allocValue()
    {
        if (!free_.empty()) {
            const uint32_t v = free_.back();
            free_.pop_back();
            return v;
        }
        slab_.emplace_back();
        return static_cast<uint32_t>(slab_.size() - 1);
    }

    /** Re-place every key at @p new_cap slots; values stay put. */
    void
    rehash(size_t new_cap)
    {
        ++stats_.rehashes;
        std::vector<uint8_t> old_ctrl = std::move(ctrl_);
        std::vector<uint64_t> old_keys = std::move(keys_);
        std::vector<uint32_t> old_vals = std::move(vals_);
        ctrl_.assign(new_cap, kEmpty);
        keys_.assign(new_cap, 0);
        vals_.assign(new_cap, 0);
        size_ = used_ = 0;
        const size_t mask = new_cap - 1;
        for (size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            size_t j = mixHash(old_keys[i]) & mask;
            while (ctrl_[j] == kFull)
                j = (j + 1) & mask;
            ctrl_[j] = kFull;
            keys_[j] = old_keys[i];
            vals_[j] = old_vals[i];
            ++size_;
            ++used_;
        }
    }

    std::vector<uint8_t> ctrl_;
    std::vector<uint64_t> keys_;
    std::vector<uint32_t> vals_; ///< slab index of each full slot
    std::vector<Value> slab_;
    std::vector<uint32_t> free_; ///< slab entries holding Value()
    size_t size_ = 0; ///< live entries
    size_t used_ = 0; ///< live entries + tombstones
    mutable FlatMapStats stats_;
};

} // namespace prorace

#endif // PRORACE_SUPPORT_FLAT_MAP_HH
