/**
 * @file
 * A fully-assembled program: code, labels, data symbols, functions, and
 * the derived basic-block index used by the replayer and the RaceZ
 * baseline.
 */

#ifndef PRORACE_ASMKIT_PROGRAM_HH
#define PRORACE_ASMKIT_PROGRAM_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/insn.hh"
#include "support/log.hh"

namespace prorace::asmkit {

/** A named region of the global data segment. */
struct DataSymbol {
    std::string name;
    uint64_t addr = 0;
    uint64_t size = 0;
    std::vector<uint8_t> init; ///< initial bytes; zero-filled if shorter
};

/** A named code region (used for PT code-region filters). */
struct Function {
    std::string name;
    uint32_t begin = 0; ///< first instruction index
    uint32_t end = 0;   ///< one past the last instruction index
};

/**
 * An immutable assembled program.
 *
 * Instruction "addresses" are indices into code(). Basic blocks are
 * derived at construction: a leader is instruction 0, any branch target,
 * and any instruction following a control transfer, halt, or
 * (potentially-blocking) synchronization operation.
 */
class Program
{
  public:
    Program(std::vector<isa::Insn> code,
            std::map<std::string, uint32_t> labels,
            std::map<std::string, DataSymbol> symbols,
            std::vector<Function> functions);

    /** The instruction stream. */
    const std::vector<isa::Insn> &code() const { return code_; }

    /** Instruction at @p index. */
    const isa::Insn &
    insnAt(uint32_t index) const
    {
        PRORACE_ASSERT(index < code_.size(),
                       "instruction index out of range: ", index);
        return code_[index];
    }

    /** Number of instructions. */
    uint32_t size() const { return static_cast<uint32_t>(code_.size()); }

    /** Resolve a code label to its instruction index; fatal if unknown. */
    uint32_t labelAddr(const std::string &label) const;

    /** Resolve a data symbol; fatal if unknown. */
    const DataSymbol &symbol(const std::string &name) const;

    /** All data symbols (for machine memory initialization). */
    const std::map<std::string, DataSymbol> &symbols() const
    {
        return symbols_;
    }

    /** Find the symbol covering @p addr, if any (for report rendering). */
    std::optional<std::string> symbolCovering(uint64_t addr) const;

    /** Declared functions, in code order. */
    const std::vector<Function> &functions() const { return functions_; }

    /** Index of the basic block containing instruction @p index. */
    uint32_t blockOf(uint32_t index) const;

    /** First instruction of basic block @p block. */
    uint32_t blockBegin(uint32_t block) const;

    /** One past the last instruction of basic block @p block. */
    uint32_t blockEnd(uint32_t block) const;

    /** Number of basic blocks. */
    uint32_t numBlocks() const
    {
        return static_cast<uint32_t>(block_starts_.size());
    }

    /** Human-readable listing (debugging aid). */
    std::string listing() const;

  private:
    void computeBlocks();

    std::vector<isa::Insn> code_;
    std::map<std::string, uint32_t> labels_;
    std::map<std::string, DataSymbol> symbols_;
    std::vector<Function> functions_;
    std::vector<uint32_t> block_starts_; ///< sorted leader indices
};

} // namespace prorace::asmkit

#endif // PRORACE_ASMKIT_PROGRAM_HH
