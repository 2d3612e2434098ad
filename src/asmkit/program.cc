#include "asmkit/program.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "isa/disasm.hh"
#include "support/log.hh"

namespace prorace::asmkit {

using isa::Insn;
using isa::Op;

Program::Program(std::vector<Insn> code,
                 std::map<std::string, uint32_t> labels,
                 std::map<std::string, DataSymbol> symbols,
                 std::vector<Function> functions)
    : code_(std::move(code)), labels_(std::move(labels)),
      symbols_(std::move(symbols)), functions_(std::move(functions))
{
    for (size_t i = 0; i < code_.size(); ++i) {
        if (const char *err = isa::validateInsn(code_[i])) {
            PRORACE_FATAL("invalid instruction #", i, " (",
                          isa::disassemble(code_[i]), "): ", err);
        }
        if (isa::isControlFlow(code_[i].op) &&
            code_[i].op != Op::kJmpInd && code_[i].op != Op::kCallInd &&
            code_[i].op != Op::kRet && code_[i].target >= code_.size()) {
            PRORACE_FATAL("instruction #", i, " branches out of range to #",
                          code_[i].target);
        }
    }
    computeBlocks();
}

uint32_t
Program::labelAddr(const std::string &label) const
{
    auto it = labels_.find(label);
    if (it == labels_.end())
        PRORACE_FATAL("unknown code label: ", label);
    return it->second;
}

const DataSymbol &
Program::symbol(const std::string &name) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        PRORACE_FATAL("unknown data symbol: ", name);
    return it->second;
}

std::optional<std::string>
Program::symbolCovering(uint64_t addr) const
{
    for (const auto &[name, sym] : symbols_) {
        if (addr >= sym.addr && addr < sym.addr + sym.size)
            return name;
    }
    return std::nullopt;
}

void
Program::computeBlocks()
{
    std::set<uint32_t> leaders;
    if (code_.empty()) {
        return;
    }
    leaders.insert(0);
    for (uint32_t i = 0; i < code_.size(); ++i) {
        const Insn &insn = code_[i];
        const bool ends_block = isa::isControlFlow(insn.op) ||
            insn.op == Op::kHalt || isa::isSyncOp(insn.op) ||
            insn.op == Op::kSyscall;
        if (ends_block && i + 1 < code_.size())
            leaders.insert(i + 1);
        if ((insn.op == Op::kJcc || insn.op == Op::kJmp ||
             insn.op == Op::kCall || insn.op == Op::kSpawn) &&
            insn.target < code_.size()) {
            leaders.insert(insn.target);
        }
    }
    block_starts_.assign(leaders.begin(), leaders.end());
}

uint32_t
Program::blockOf(uint32_t index) const
{
    PRORACE_ASSERT(index < code_.size(), "blockOf index out of range");
    auto it = std::upper_bound(block_starts_.begin(), block_starts_.end(),
                               index);
    return static_cast<uint32_t>(it - block_starts_.begin()) - 1;
}

uint32_t
Program::blockBegin(uint32_t block) const
{
    PRORACE_ASSERT(block < block_starts_.size(), "block index out of range");
    return block_starts_[block];
}

uint32_t
Program::blockEnd(uint32_t block) const
{
    PRORACE_ASSERT(block < block_starts_.size(), "block index out of range");
    if (block + 1 < block_starts_.size())
        return block_starts_[block + 1];
    return static_cast<uint32_t>(code_.size());
}

std::string
Program::listing() const
{
    std::ostringstream os;
    std::map<uint32_t, std::string> by_addr;
    for (const auto &[name, addr] : labels_)
        by_addr[addr] = name;
    for (uint32_t i = 0; i < code_.size(); ++i) {
        auto it = by_addr.find(i);
        if (it != by_addr.end())
            os << it->second << ":\n";
        os << "  " << i << ":\t" << isa::disassemble(code_[i]) << "\n";
    }
    return os.str();
}

} // namespace prorace::asmkit
