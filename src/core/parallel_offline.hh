// Old name of core::OfflineAnalyzer, still used by prorace_bench/.
#ifndef PRORACE_CORE_PARALLEL_OFFLINE_HH
#define PRORACE_CORE_PARALLEL_OFFLINE_HH

#include "core/offline.hh"

namespace prorace::core {
using ParallelOfflineAnalyzer = OfflineAnalyzer;
} // namespace prorace::core

#endif // PRORACE_CORE_PARALLEL_OFFLINE_HH
