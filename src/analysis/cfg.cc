#include "analysis/cfg.hh"

#include <algorithm>

namespace prorace::analysis {

using isa::Insn;
using isa::Op;

namespace {

void
addEdge(std::vector<CfgBlock> &blocks, uint32_t from, uint32_t to)
{
    auto &succs = blocks[from].succs;
    if (std::find(succs.begin(), succs.end(), to) != succs.end())
        return;
    succs.push_back(to);
    blocks[to].preds.push_back(from);
}

} // namespace

Cfg::Cfg(const asmkit::Program &program)
    : program_(&program), blocks_(program.numBlocks())
{
    collectAddressTaken();
    buildEdges();
    computeReachability();
}

void
Cfg::collectAddressTaken()
{
    const asmkit::Program &p = *program_;
    // Any immediate that lands inside the code region may be a code
    // pointer (movLabel materializes targets exactly this way); add
    // declared function entries and spawn targets so indirect calls
    // stay covered even without an explicit code immediate.
    for (const Insn &insn : p.code()) {
        if (insn.op == Op::kMovRI && insn.imm >= 0 &&
            static_cast<uint64_t>(insn.imm) < p.size()) {
            address_taken_.push_back(static_cast<uint32_t>(insn.imm));
        }
        if (insn.op == Op::kSpawn)
            address_taken_.push_back(insn.target);
    }
    for (const asmkit::Function &fn : p.functions()) {
        if (fn.begin < p.size())
            address_taken_.push_back(fn.begin);
    }
    std::sort(address_taken_.begin(), address_taken_.end());
    address_taken_.erase(
        std::unique(address_taken_.begin(), address_taken_.end()),
        address_taken_.end());
    for (const uint32_t target : address_taken_)
        blocks_[p.blockOf(target)].is_address_taken = true;
}

void
Cfg::buildEdges()
{
    const asmkit::Program &p = *program_;
    if (p.size() == 0)
        return;

    blocks_[p.blockOf(0)].is_thread_entry = true;

    for (uint32_t b = 0; b < p.numBlocks(); ++b) {
        const uint32_t last = p.blockEnd(b) - 1;
        const Insn &insn = p.insnAt(last);
        const bool has_next = last + 1 < p.size();
        const uint32_t next = has_next ? p.blockOf(last + 1) : 0;

        switch (insn.op) {
          case Op::kJmp:
            addEdge(blocks_, b, p.blockOf(insn.target));
            break;
          case Op::kJcc:
            addEdge(blocks_, b, p.blockOf(insn.target));
            if (has_next)
                addEdge(blocks_, b, next);
            break;
          case Op::kJmpInd:
            has_indirect_ = true;
            for (const uint32_t t : address_taken_)
                addEdge(blocks_, b, p.blockOf(t));
            break;
          case Op::kCall:
            addEdge(blocks_, b, p.blockOf(insn.target));
            if (has_next) {
                // Fall-through to the return site: the callee returns
                // here, but with its clobbers applied.
                addEdge(blocks_, b, next);
                blocks_[next].is_return_site = true;
            }
            break;
          case Op::kCallInd:
            has_indirect_ = true;
            for (const uint32_t t : address_taken_)
                addEdge(blocks_, b, p.blockOf(t));
            if (has_next) {
                addEdge(blocks_, b, next);
                blocks_[next].is_return_site = true;
            }
            break;
          case Op::kRet:
            // Returns are modeled by the caller's fall-through edge;
            // the ret block itself has no successor.
            break;
          case Op::kHalt:
            break;
          case Op::kSpawn:
            // The child starts at insn.target with a fresh register
            // file — a thread entry, not an intra-thread edge.
            blocks_[p.blockOf(insn.target)].is_thread_entry = true;
            if (has_next)
                addEdge(blocks_, b, next);
            break;
          default:
            // Non-transfer block ends (sync ops, syscalls, or a block
            // split at a branch target) fall through — unless the
            // program simply ends here without a terminator.
            if (has_next)
                addEdge(blocks_, b, next);
            break;
        }
    }

    for (uint32_t b = 0; b < numBlocks(); ++b) {
        CfgBlock &blk = blocks_[b];
        blk.unknown_entry = blk.is_thread_entry || blk.is_address_taken ||
            blk.is_return_site;
        num_edges_ += static_cast<uint32_t>(blk.succs.size());
    }
}

void
Cfg::computeReachability()
{
    const asmkit::Program &p = *program_;
    if (p.size() == 0)
        return;
    std::vector<uint32_t> work;
    auto visit = [&](uint32_t b) {
        if (!blocks_[b].reachable) {
            blocks_[b].reachable = true;
            work.push_back(b);
        }
    };
    visit(p.blockOf(0));
    bool indirect_seen = false;
    while (!work.empty()) {
        const uint32_t b = work.back();
        work.pop_back();
        for (const uint32_t s : blocks_[b].succs)
            visit(s);
        const Insn &last = p.insnAt(p.blockEnd(b) - 1);
        if (last.op == Op::kSpawn)
            visit(p.blockOf(last.target));
        // A reachable indirect transfer may reach every address-taken
        // block (the edges already exist; this only matters when the
        // address-taken set grows through blocks found later).
        if (!indirect_seen &&
            (last.op == Op::kJmpInd || last.op == Op::kCallInd)) {
            indirect_seen = true;
            for (const uint32_t t : address_taken_)
                visit(p.blockOf(t));
        }
    }
    for (const CfgBlock &blk : blocks_)
        num_reachable_ += blk.reachable ? 1 : 0;
}

} // namespace prorace::analysis
