#include "analysis/analysis.hh"

namespace prorace::analysis {

namespace {

std::vector<InsnFacts>
buildFacts(const asmkit::Program &program)
{
    std::vector<InsnFacts> facts;
    facts.reserve(program.size());
    for (const isa::Insn &insn : program.code())
        facts.push_back(classifyInsn(insn));
    return facts;
}

std::vector<uint8_t>
buildSyncRecords(const asmkit::Program &program)
{
    std::vector<uint8_t> records;
    records.reserve(program.size());
    for (const isa::Insn &insn : program.code())
        records.push_back(syncRecordCount(insn));
    return records;
}

} // namespace

ProgramAnalysis::ProgramAnalysis(const asmkit::Program &program)
    : program_(&program), facts_(buildFacts(program)),
      sync_records_(buildSyncRecords(program)), cfg_(program),
      escape_(cfg_, facts_)
{
}

StaticSummary
ProgramAnalysis::summary() const
{
    StaticSummary s;
    s.insns = program_->size();
    s.blocks = cfg_.numBlocks();
    s.edges = cfg_.numEdges();
    s.reachable_blocks = cfg_.numReachable();
    s.address_taken = static_cast<uint32_t>(cfg_.addressTaken().size());
    s.mem_sites = escape_.numSites();
    s.thread_local_sites = escape_.numThreadLocal();
    s.rsp_integrity = escape_.rspIntegrity();
    s.no_stack_escape = escape_.noStackEscape();
    return s;
}

} // namespace prorace::analysis
