/**
 * @file
 * Sparse paged data memory for the simulated machine.
 */

#ifndef PRORACE_VM_MEMORY_HH
#define PRORACE_VM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace prorace::vm {

/**
 * Byte-addressed sparse memory backed by 4 KiB pages allocated on first
 * touch. Reads of untouched memory return zero, matching zero-initialized
 * BSS/heap semantics.
 */
class Memory
{
  public:
    static constexpr uint64_t kPageShift = 12;
    static constexpr uint64_t kPageSize = 1ull << kPageShift;

    /** Read @p width bytes (1/2/4/8) little-endian at @p addr. */
    uint64_t read(uint64_t addr, uint8_t width) const;

    /** Write the low @p width bytes of @p value at @p addr. */
    void write(uint64_t addr, uint64_t value, uint8_t width);

    /** Bulk copy @p bytes into memory at @p addr. */
    void writeBytes(uint64_t addr, const std::vector<uint8_t> &bytes);

  private:
    using Page = std::array<uint8_t, kPageSize>;

    uint8_t readByte(uint64_t addr) const;
    void writeByte(uint64_t addr, uint8_t value);
    Page &pageFor(uint64_t addr);

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
};

} // namespace prorace::vm

#endif // PRORACE_VM_MEMORY_HH
