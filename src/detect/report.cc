#include "detect/report.hh"

#include <algorithm>
#include <sstream>

#include "asmkit/program.hh"
#include "isa/disasm.hh"
#include "support/journal.hh"

namespace prorace::detect {

const char *
accessOriginName(AccessOrigin origin)
{
    switch (origin) {
      case AccessOrigin::kSampled:    return "sampled";
      case AccessOrigin::kForward:    return "forward-replay";
      case AccessOrigin::kBackward:   return "backward-replay";
      case AccessOrigin::kPcRelative: return "pc-relative";
      case AccessOrigin::kOracle:     return "oracle";
    }
    return "?";
}

void
putRaceAccess(support::ByteWriter &w, const RaceAccess &access)
{
    w.u32(access.tid);
    w.u32(access.insn_index);
    w.u8(access.is_write ? 1 : 0);
    w.u64(access.tsc);
    w.u8(static_cast<uint8_t>(access.origin));
}

bool
getRaceAccess(support::ByteReader &r, RaceAccess &access)
{
    access.tid = r.u32();
    access.insn_index = r.u32();
    access.is_write = r.u8() != 0;
    access.tsc = r.u64();
    const uint8_t origin = r.u8();
    if (!r.ok() || origin > static_cast<uint8_t>(AccessOrigin::kOracle))
        return false;
    access.origin = static_cast<AccessOrigin>(origin);
    return true;
}

void
RaceReport::add(const DataRace &race)
{
    const auto key = std::minmax(race.prior.insn_index,
                                 race.current.insn_index);
    if (!seen_pairs_.insert({key.first, key.second}).second)
        return;
    races_.push_back(race);
}

bool
RaceReport::containsPair(uint32_t insn_a, uint32_t insn_b) const
{
    const auto key = std::minmax(insn_a, insn_b);
    return seen_pairs_.count({key.first, key.second}) > 0;
}

bool
RaceReport::containsInsn(uint32_t insn) const
{
    for (const DataRace &r : races_) {
        if (r.prior.insn_index == insn || r.current.insn_index == insn)
            return true;
    }
    return false;
}

bool
RaceReport::containsAddressRange(uint64_t addr, uint64_t size) const
{
    for (const DataRace &r : races_) {
        if (r.addr >= addr && r.addr < addr + size)
            return true;
    }
    return false;
}

std::string
RaceReport::format(const asmkit::Program *program) const
{
    std::ostringstream os;
    os << "==== ProRace: " << races_.size() << " data race(s) ====\n";
    for (size_t i = 0; i < races_.size(); ++i) {
        const DataRace &r = races_[i];
        os << "race #" << i << " on address 0x" << std::hex << r.addr
           << std::dec;
        if (program) {
            if (auto sym = program->symbolCovering(r.addr))
                os << " (" << *sym << ")";
        }
        os << "\n";
        for (const RaceAccess *a : {&r.prior, &r.current}) {
            os << "  " << (a->is_write ? "write" : "read ") << " by thread "
               << a->tid << " at #" << a->insn_index;
            if (program) {
                os << ": "
                   << isa::disassemble(program->insnAt(a->insn_index));
            }
            os << "  [" << accessOriginName(a->origin) << ", tsc "
               << a->tsc << "]\n";
        }
    }
    return os.str();
}

} // namespace prorace::detect
