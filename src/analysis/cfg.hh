/**
 * @file
 * Control-flow graph recovery over an assembled program.
 *
 * Nodes are the program's own basic blocks (the block index the
 * replayer already uses), so every consumer agrees on block boundaries.
 * Edges are recovered conservatively from the binary alone:
 *
 *  - direct jumps/branches/calls contribute exact edges;
 *  - indirect jumps and calls fan out to the *address-taken set* — every
 *    instruction index that appears as a code-pointer immediate
 *    (movLabel), a declared function entry, or a spawn target;
 *  - a call also has a fall-through edge to its return site, but the
 *    return site is flagged `unknown_entry` because the callee may
 *    clobber any register before returning (dataflow must not
 *    propagate state through the callee along that edge);
 *  - spawn targets are thread entries: control enters them with a
 *    fresh register file, so they get no intra-thread edge and are
 *    flagged `unknown_entry` too.
 *
 * Reachability is computed from the program entry (instruction 0),
 * treating any reachable indirect transfer as able to reach every
 * address-taken block.
 */

#ifndef PRORACE_ANALYSIS_CFG_HH
#define PRORACE_ANALYSIS_CFG_HH

#include <cstdint>
#include <vector>

#include "asmkit/program.hh"

namespace prorace::analysis {

/** Per-block CFG node. */
struct CfgBlock {
    std::vector<uint32_t> succs; ///< successor block ids (deduped)
    std::vector<uint32_t> preds; ///< predecessor block ids (deduped)
    /**
     * True when control may enter this block from a source the edge
     * list cannot enumerate exactly: the program entry, a spawn/thread
     * entry, an indirect-branch target, or a call's return site.
     * Forward dataflow must start such blocks from its conservative
     * boundary value instead of the predecessor meet.
     */
    bool unknown_entry = false;
    bool is_thread_entry = false;   ///< program entry or spawn target
    bool is_address_taken = false;  ///< possible indirect target
    bool is_return_site = false;    ///< block after a call
    bool reachable = false;
};

/** The recovered control-flow graph. */
class Cfg
{
  public:
    explicit Cfg(const asmkit::Program &program);

    const asmkit::Program &program() const { return *program_; }
    uint32_t numBlocks() const
    {
        return static_cast<uint32_t>(blocks_.size());
    }
    const CfgBlock &block(uint32_t id) const { return blocks_[id]; }
    const std::vector<CfgBlock> &blocks() const { return blocks_; }

    /**
     * Instruction indices that may be indirect-transfer targets. Sorted
     * and deduplicated; a superset of the true target set (any code
     * immediate counts, whether or not it ever reaches a jmpind).
     */
    const std::vector<uint32_t> &addressTaken() const
    {
        return address_taken_;
    }

    /** True when the program contains an indirect jump or call. */
    bool hasIndirectTransfers() const { return has_indirect_; }

    uint32_t numEdges() const { return num_edges_; }
    uint32_t numReachable() const { return num_reachable_; }

  private:
    void collectAddressTaken();
    void buildEdges();
    void computeReachability();

    const asmkit::Program *program_;
    std::vector<CfgBlock> blocks_;
    std::vector<uint32_t> address_taken_;
    bool has_indirect_ = false;
    uint32_t num_edges_ = 0;
    uint32_t num_reachable_ = 0;
};

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_CFG_HH
