/**
 * @file
 * Data race reports.
 */

#ifndef PRORACE_DETECT_REPORT_HH
#define PRORACE_DETECT_REPORT_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace prorace::asmkit {
class Program;
}

namespace prorace::support {
class ByteReader;
class ByteWriter;
} // namespace prorace::support

namespace prorace::detect {

/** How the offline phase obtained a memory access. */
enum class AccessOrigin : uint8_t {
    kSampled,     ///< directly from a PEBS record
    kForward,     ///< reconstructed by forward replay
    kBackward,    ///< reconstructed by backward replay
    kPcRelative,  ///< recovered from PC-relative addressing alone
    kOracle,      ///< ground-truth log (testing only)
};

/** Printable origin name. */
const char *accessOriginName(AccessOrigin origin);

/** One side of a reported race. */
struct RaceAccess {
    uint32_t tid = 0;
    uint32_t insn_index = 0;
    bool is_write = false;
    uint64_t tsc = 0;
    AccessOrigin origin = AccessOrigin::kSampled;
};

/**
 * The byte layout of a RaceAccess in report-journal records
 * (service/report_store.hh): tid u32, insn_index u32, is_write u8,
 * tsc u64, origin u8.
 */
void putRaceAccess(support::ByteWriter &w, const RaceAccess &access);

/**
 * Read one access written by putRaceAccess(). False on a short read or
 * an origin byte that names no AccessOrigin, so a damaged or foreign
 * record is refused instead of carrying an invalid enum value.
 */
bool getRaceAccess(support::ByteReader &r, RaceAccess &access);

/** A detected data race on one address. */
struct DataRace {
    uint64_t addr = 0;        ///< base address of the racy granule
    RaceAccess prior;         ///< the earlier access
    RaceAccess current;       ///< the later, conflicting access
};

/**
 * Accumulates races with (instruction pair) deduplication — the same
 * static race typically recurs many times in one trace.
 */
class RaceReport
{
  public:
    /** Add a race; duplicates of the same instruction pair are merged. */
    void add(const DataRace &race);

    /** All distinct races found. */
    const std::vector<DataRace> &races() const { return races_; }

    /** True when any race involves both instruction indices. */
    bool containsPair(uint32_t insn_a, uint32_t insn_b) const;

    /** True when any race involves instruction @p insn. */
    bool containsInsn(uint32_t insn) const;

    /** True when any race touches [addr, addr+size). */
    bool containsAddressRange(uint64_t addr, uint64_t size) const;

    bool empty() const { return races_.empty(); }
    size_t size() const { return races_.size(); }

    /** Render a human-readable report (with disassembly if given). */
    std::string format(const asmkit::Program *program = nullptr) const;

  private:
    std::vector<DataRace> races_;
    std::set<std::pair<uint32_t, uint32_t>> seen_pairs_;
};

} // namespace prorace::detect

#endif // PRORACE_DETECT_REPORT_HH
