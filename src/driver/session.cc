#include "driver/session.hh"

#include <algorithm>
#include <cmath>

#include "support/log.hh"

namespace prorace::driver {

const char *
driverName(DriverKind kind)
{
    switch (kind) {
      case DriverKind::kVanilla: return "vanilla-linux";
      case DriverKind::kProRace: return "prorace";
    }
    return "?";
}

TracingSession::TracingSession(const TraceConfig &config, unsigned num_cores)
    : config_(config), rng_(config.seed),
      storage_budget_(static_cast<double>(config.costs.storage_burst_bytes))
{
    PRORACE_ASSERT(num_cores >= 1, "tracing session needs cores");
    cores_.resize(num_cores);
    const bool randomize = config_.driver == DriverKind::kProRace;
    for (CoreState &core : cores_) {
        if (config_.enable_pebs) {
            core.pebs = std::make_unique<pmu::PebsCounter>(
                config_.pebs_period, randomize, rng_);
        }
        if (config_.enable_pt)
            core.pt = std::make_unique<pmu::PtEncoder>(config_.pt);
    }
}

TracingSession::~TracingSession() = default;

uint64_t
TracingSession::drainFrac(CoreState &core)
{
    const uint64_t whole = static_cast<uint64_t>(core.frac_cost);
    core.frac_cost -= static_cast<double>(whole);
    return whole;
}

bool
TracingSession::commitToStorage(uint64_t bytes, uint64_t tsc)
{
    // Token bucket modeling the sustained drain rate of the trace device.
    if (tsc > storage_last_tsc_) {
        storage_budget_ += static_cast<double>(tsc - storage_last_tsc_) *
            config_.costs.storage_bytes_per_cycle;
        storage_budget_ = std::min(
            storage_budget_,
            static_cast<double>(config_.costs.storage_burst_bytes));
        storage_last_tsc_ = tsc;
    }
    if (storage_budget_ < static_cast<double>(bytes)) {
        // A failed write is not free: it still burns some device time.
        storage_budget_ = std::max(
            0.0, storage_budget_ - static_cast<double>(bytes) *
                     config_.costs.storage_drop_waste);
        return false;
    }
    storage_budget_ -= static_cast<double>(bytes);
    return true;
}

uint64_t
TracingSession::handleInterrupt(CoreState &core, uint64_t tsc)
{
    const CostModel &costs = config_.costs;
    uint64_t cost = costs.pmi_cost;
    ++stats_.interrupts;

    // Handler throttle: a token bucket refilled at handler_cpu_fraction
    // of wall time. When empty, the kernel discards records rather than
    // spend more time in interrupt context.
    if (tsc > core.last_throttle_tsc) {
        core.handler_budget +=
            static_cast<double>(tsc - core.last_throttle_tsc) *
            costs.handler_cpu_fraction;
        const double cap = static_cast<double>(costs.vanilla_record_cost) *
            2.0 * static_cast<double>(costs.ds_bytes / costs.record_bytes);
        core.handler_budget = std::min(core.handler_budget, cap);
        core.last_throttle_tsc = tsc;
    }

    if (config_.driver == DriverKind::kVanilla) {
        // Stock driver: per-record metadata assembly and copy into the
        // perf ring buffer, then the perf tool copies to perf.data.
        for (trace::PebsRecord &rec : core.ds) {
            const double per_record =
                static_cast<double>(costs.vanilla_record_cost);
            if (core.handler_budget < per_record) {
                ++stats_.samples_dropped_throttle;
                cost += costs.drop_cost;
                continue;
            }
            core.handler_budget -= per_record;
            cost += costs.vanilla_record_cost;
            if (!commitToStorage(costs.record_bytes, tsc)) {
                ++stats_.samples_dropped_storage;
                continue;
            }
            core.frac_cost += costs.vanilla_tool_per_byte *
                static_cast<double>(costs.record_bytes);
            stats_.pebs_bytes += costs.record_bytes;
            committed_.push_back(std::move(rec));
        }
    } else {
        // ProRace driver: hand PEBS the next aux-buffer segment; the
        // user-level tool dumps whole segments later.
        cost += costs.prorace_swap_cost;
        const uint64_t segment_bytes = core.ds.size() * costs.record_bytes;
        if (!commitToStorage(segment_bytes, tsc)) {
            stats_.samples_dropped_storage += core.ds.size();
        } else {
            core.frac_cost += costs.prorace_tool_per_byte *
                static_cast<double>(segment_bytes);
            stats_.pebs_bytes += segment_bytes;
            for (trace::PebsRecord &rec : core.ds)
                committed_.push_back(std::move(rec));
        }
    }
    core.ds.clear();
    cost += drainFrac(core);
    return cost;
}

uint64_t
TracingSession::onMemOp(const vm::MemOpEvent &ev)
{
    max_tsc_ = std::max(max_tsc_, ev.tsc);
    if (!config_.enable_pebs)
        return 0;
    CoreState &core = cores_[ev.core];
    if (!core.pebs->tick())
        return 0;

    // The hardware microcode assist captures the record (instruction
    // pointer, data address, full register file, TSC) into the DS area.
    uint64_t cost = config_.costs.pebs_assist;
    ++stats_.samples_taken;

    trace::PebsRecord rec;
    rec.tid = ev.tid;
    rec.core = ev.core;
    rec.insn_index = ev.insn_index;
    rec.addr = ev.addr;
    rec.width = ev.width;
    rec.is_write = ev.is_write;
    rec.is_atomic = ev.is_atomic;
    rec.tsc = ev.tsc;
    rec.regs = *ev.regs;
    core.ds.push_back(rec);

    if (core.ds.size() * config_.costs.record_bytes >=
        config_.costs.ds_bytes) {
        cost += handleInterrupt(core, ev.tsc);
    }
    stats_.pebs_cycles += cost;
    return cost;
}

uint64_t
TracingSession::onCondBranch(const vm::BranchEvent &ev)
{
    max_tsc_ = std::max(max_tsc_, ev.tsc);
    if (!config_.enable_pt)
        return 0;
    CoreState &core = cores_[ev.core];
    core.pt->onCondBranch(ev.insn_index, ev.taken, ev.tsc);
    const uint64_t bytes = core.pt->bytesEmitted();
    core.frac_cost += config_.costs.pt_per_byte *
        static_cast<double>(bytes - core.last_pt_bytes);
    core.last_pt_bytes = bytes;
    const uint64_t cost = drainFrac(core);
    stats_.pt_cycles += cost;
    return cost;
}

uint64_t
TracingSession::onIndirectBranch(const vm::BranchEvent &ev)
{
    max_tsc_ = std::max(max_tsc_, ev.tsc);
    if (!config_.enable_pt)
        return 0;
    CoreState &core = cores_[ev.core];
    core.pt->onIndirect(ev.insn_index, ev.target, ev.tsc);
    const uint64_t bytes = core.pt->bytesEmitted();
    core.frac_cost += config_.costs.pt_per_byte *
        static_cast<double>(bytes - core.last_pt_bytes);
    core.last_pt_bytes = bytes;
    const uint64_t cost = drainFrac(core);
    stats_.pt_cycles += cost;
    return cost;
}

void
TracingSession::onContextSwitch(unsigned core_id, uint32_t tid, uint64_t tsc,
                                uint32_t ip)
{
    max_tsc_ = std::max(max_tsc_, tsc);
    if (!config_.enable_pt)
        return;
    cores_[core_id].pt->onContextSwitch(tid, tsc, ip);
}

uint64_t
TracingSession::onSync(const vm::SyncEvent &ev)
{
    max_tsc_ = std::max(max_tsc_, ev.tsc);
    if (!config_.enable_sync)
        return 0;
    sync_.push_back(ev);
    stats_.sync_bytes += config_.costs.sync_record_bytes;
    stats_.sync_cycles += config_.costs.sync_trace_cost;
    return config_.costs.sync_trace_cost;
}

uint64_t
TracingSession::onIoSyscall(uint32_t, isa::SyscallNo, uint64_t latency)
{
    // The application's file I/O shares the storage device with trace
    // writing; inflate its latency by the device-time fraction the
    // tracer consumes.
    if (max_tsc_ == 0)
        return 0;
    const double trace_rate =
        static_cast<double>(stats_.totalBytes()) /
        static_cast<double>(std::max<uint64_t>(max_tsc_, 1));
    const double share = std::min(
        1.0, trace_rate / config_.costs.storage_bytes_per_cycle);
    return static_cast<uint64_t>(static_cast<double>(latency) * share *
                                 config_.costs.io_contention_weight);
}

trace::RunTrace
TracingSession::finish()
{
    PRORACE_ASSERT(!finished_, "TracingSession finished twice");
    finished_ = true;

    // Final drain: remaining DS contents are flushed by the tool at exit
    // (no interrupt fires; storage has time to absorb them).
    for (CoreState &core : cores_) {
        for (trace::PebsRecord &rec : core.ds) {
            stats_.pebs_bytes += config_.costs.record_bytes;
            committed_.push_back(std::move(rec));
        }
        core.ds.clear();
    }

    trace::RunTrace trace;
    trace.sync = std::move(sync_);
    trace.pebs = std::move(committed_);
    if (config_.enable_pt) {
        for (CoreState &core : cores_) {
            trace.pt.push_back(core.pt->finish());
            stats_.pt_bytes += trace.pt.back().bytes.size();
        }
    }

    trace.meta.num_cores = static_cast<uint32_t>(cores_.size());
    trace.meta.pebs_period = config_.pebs_period;
    for (CoreState &core : cores_) {
        trace.meta.first_periods.push_back(
            core.pebs ? core.pebs->firstWindow() : 0);
    }
    trace.meta.samples_taken = stats_.samples_taken;
    trace.meta.samples_dropped = stats_.samplesDropped();
    trace.meta.pebs_bytes = stats_.pebs_bytes;
    trace.meta.pt_bytes = stats_.pt_bytes;
    trace.meta.sync_bytes = stats_.sync_bytes;
    trace.meta.pt_filter = config_.pt.filter;
    return trace;
}

} // namespace prorace::driver
