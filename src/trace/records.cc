#include "trace/records.hh"

#include "support/log.hh"

namespace prorace::trace {

PtFilter
PtFilter::all()
{
    PtFilter f;
    f.all_ = true;
    return f;
}

void
PtFilter::addRange(uint32_t begin, uint32_t end)
{
    PRORACE_ASSERT(begin <= end, "inverted PT filter range");
    if (ranges_.size() >= kMaxRanges) {
        PRORACE_FATAL("PT hardware supports at most ", kMaxRanges,
                      " code-region filters");
    }
    ranges_.emplace_back(begin, end);
}

bool
PtFilter::contains(uint32_t index) const
{
    if (all_)
        return true;
    for (const auto &[begin, end] : ranges_) {
        if (index >= begin && index < end)
            return true;
    }
    return false;
}

} // namespace prorace::trace
