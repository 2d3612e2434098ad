/**
 * @file
 * Whole-program static analysis bundle: the per-instruction fact table
 * (may-write masks and memory-event counts), the CFG, and the escape
 * analysis, computed once per program and shared read-only by every
 * consumer (aligner, replayer, detector prefilter, CLI static-report).
 */

#ifndef PRORACE_ANALYSIS_ANALYSIS_HH
#define PRORACE_ANALYSIS_ANALYSIS_HH

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/escape.hh"
#include "analysis/insn_facts.hh"

namespace prorace::analysis {

/** Aggregate statistics for reporting (CLI static-report JSONL). */
struct StaticSummary {
    uint32_t insns = 0;
    uint32_t blocks = 0;
    uint32_t edges = 0;
    uint32_t reachable_blocks = 0;
    uint32_t address_taken = 0;
    uint32_t mem_sites = 0;          ///< instructions with memory events
    uint32_t thread_local_sites = 0; ///< provably private subset
    bool rsp_integrity = false;
    bool no_stack_escape = false;

    double
    threadLocalFraction() const
    {
        return mem_sites ? static_cast<double>(thread_local_sites) /
                static_cast<double>(mem_sites)
                         : 0.0;
    }
};

/**
 * The static-analysis results for one program. Immutable after
 * construction; safe to share across analysis worker threads.
 */
class ProgramAnalysis
{
  public:
    explicit ProgramAnalysis(const asmkit::Program &program);

    /** Ignored flag; kept only so prorace_bench/ compiles. */
    ProgramAnalysis(const asmkit::Program &program, bool)
        : ProgramAnalysis(program)
    {
    }

    const asmkit::Program &program() const { return *program_; }
    const Cfg &cfg() const { return cfg_; }
    const EscapeAnalysis &escape() const { return escape_; }

    /** Precomputed per-instruction facts (indexed by instruction). */
    const InsnFacts &facts(uint32_t index) const { return facts_[index]; }

    /** Sync records instruction @p index retires (syncRecordCount). */
    uint8_t syncRecords(uint32_t index) const { return sync_records_[index]; }

    /** True when @p index's access provably stays on its own stack. */
    bool
    siteThreadLocal(uint32_t index) const
    {
        return escape_.threadLocal(index);
    }

    StaticSummary summary() const;

  private:
    const asmkit::Program *program_;
    std::vector<InsnFacts> facts_;
    std::vector<uint8_t> sync_records_; ///< one byte per instruction
    Cfg cfg_;
    EscapeAnalysis escape_;
};

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_ANALYSIS_HH
