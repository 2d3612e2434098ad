#include "vm/machine.hh"

#include <algorithm>

#include "asmkit/layout.hh"
#include "isa/disasm.hh"
#include "isa/semantics.hh"
#include "support/log.hh"

namespace prorace::vm {

using isa::AluOp;
using isa::Insn;
using isa::Op;
using isa::Reg;
using isa::SyscallNo;

Machine::Machine(const asmkit::Program &program, const MachineConfig &config)
    : program_(program), config_(config), rng_(config.seed)
{
    PRORACE_ASSERT(config_.num_cores >= 1, "machine needs at least one core");
    cores_.resize(config_.num_cores);
    for (const auto &[name, sym] : program_.symbols()) {
        if (!sym.init.empty())
            memory_.writeBytes(sym.addr, sym.init);
    }
}

uint32_t
Machine::addThread(uint32_t entry_index, uint64_t arg)
{
    PRORACE_ASSERT(entry_index < program_.size(),
                   "thread entry out of range");
    const uint32_t tid = static_cast<uint32_t>(threads_.size());
    ThreadContext t;
    t.tid = tid;
    t.core = tid % config_.num_cores;
    t.ip = entry_index;
    t.entry_ip = entry_index;
    t.regs.set(Reg::rdi, arg);
    t.regs.set(Reg::rsp, asmkit::stackTopFor(tid));
    t.state = ThreadState::kRunnable;
    threads_.push_back(t);
    cores_[t.core].threads.push_back(tid);
    lock_granted_.push_back(false);
    cond_resuming_.push_back(false);
    barrier_resuming_.push_back(false);
    rw_granted_.push_back(false);
    sem_granted_.push_back(false);
    spin_granted_.push_back(false);
    started_.push_back(false);
    parent_.push_back(tid); // root threads are their own parent
    ++live_threads_;
    return tid;
}

uint32_t
Machine::addThread(const std::string &entry_label, uint64_t arg)
{
    return addThread(program_.labelAddr(entry_label), arg);
}

const ThreadContext &
Machine::thread(uint32_t tid) const
{
    PRORACE_ASSERT(tid < threads_.size(), "tid out of range");
    return threads_[tid];
}

uint64_t
Machine::wallTime() const
{
    uint64_t t = 0;
    for (const Core &c : cores_)
        t = std::max(t, c.clock);
    return t;
}

uint64_t
Machine::readReg(const ThreadContext &t, Reg r) const
{
    if (r == Reg::rip)
        return t.ip;
    PRORACE_ASSERT(isGpr(r), "read of invalid register");
    return t.regs.get(r);
}

uint64_t
Machine::effectiveAddr(const ThreadContext &t,
                       const isa::MemOperand &mem) const
{
    return isa::effectiveAddress(mem,
                                 [&](Reg r) { return readReg(t, r); });
}

uint64_t
Machine::reportLoad(ThreadContext &t, Core &core, uint32_t index,
                    uint64_t addr, uint8_t width, bool atomic)
{
    ++t.retired_mem_ops;
    ++total_mem_ops_;
    if (config_.record_memory_log) {
        mem_log_.push_back({t.tid, t.retired_insns, index, addr, width,
                            false, atomic, core.clock});
    }
    if (!observer_)
        return 0;
    MemOpEvent ev{t.core, t.tid, index, addr, width, false, atomic,
                  core.clock, &t.regs};
    return observer_->onMemOp(ev);
}

uint64_t
Machine::reportStore(ThreadContext &t, Core &core, uint32_t index,
                     uint64_t addr, uint8_t width, bool atomic)
{
    ++t.retired_mem_ops;
    ++total_mem_ops_;
    if (config_.record_memory_log) {
        mem_log_.push_back({t.tid, t.retired_insns, index, addr, width,
                            true, atomic, core.clock});
    }
    if (!observer_)
        return 0;
    MemOpEvent ev{t.core, t.tid, index, addr, width, true, atomic,
                  core.clock, &t.regs};
    return observer_->onMemOp(ev);
}

uint64_t
Machine::reportSync(ThreadContext &t, Core &core, SyncKind kind,
                    uint64_t object, uint64_t aux, uint32_t index)
{
    ++t.sync_ops;
    if (!observer_)
        return 0;
    SyncEvent ev{t.tid, kind, object, aux, core.clock, index};
    return observer_->onSync(ev);
}

void
Machine::makeRunnable(uint32_t tid, uint64_t at_time)
{
    ThreadContext &t = threads_[tid];
    t.state = ThreadState::kRunnable;
    t.ready_time = std::max(t.ready_time, at_time);
}

void
Machine::grantMutex(MutexState &m, uint32_t tid, uint64_t at_time)
{
    m.owner = tid;
    lock_granted_[tid] = true;
    makeRunnable(tid, at_time);
}

void
Machine::releaseMutex(uint64_t addr, ThreadContext &t, uint64_t now)
{
    MutexState &m = mutexes_[addr];
    PRORACE_ASSERT(m.owner == static_cast<int64_t>(t.tid),
                   "thread ", t.tid, " releasing mutex it does not own");
    if (!m.waiters.empty()) {
        const uint32_t next = m.waiters.front();
        m.waiters.pop_front();
        grantMutex(m, next, now);
    } else {
        m.owner = -1;
    }
}

void
Machine::drainRwWaiters(RwLockState &rw, uint64_t at_time)
{
    // FIFO handoff: a writer at the head takes the lock alone; a run of
    // readers at the head is admitted together.
    while (!rw.waiters.empty()) {
        const auto [tid, wants_write] = rw.waiters.front();
        if (wants_write) {
            if (rw.writer >= 0 || rw.readers > 0)
                break;
            rw.writer = tid;
            rw.waiters.pop_front();
            rw_granted_[tid] = true;
            makeRunnable(tid, at_time);
            break;
        }
        if (rw.writer >= 0)
            break;
        ++rw.readers;
        rw.waiters.pop_front();
        rw_granted_[tid] = true;
        makeRunnable(tid, at_time);
    }
}

void
Machine::wakeFromCond(uint32_t tid, uint64_t mutex_addr, uint64_t now)
{
    // The woken thread must reacquire the mutex before returning from
    // pthread_cond_wait.
    cond_resuming_[tid] = true;
    MutexState &m = mutexes_[mutex_addr];
    if (m.owner < 0 && m.waiters.empty()) {
        grantMutex(m, tid, now);
    } else {
        threads_[tid].state = ThreadState::kBlockedMutex;
        threads_[tid].blocked_on = mutex_addr;
        threads_[tid].ready_time = now;
        m.waiters.push_back(tid);
    }
}

uint64_t
Machine::heapAlloc(uint64_t size)
{
    const uint64_t rounded = std::max<uint64_t>((size + 15) & ~15ull, 16);
    auto it = free_lists_.find(rounded);
    uint64_t addr;
    if (it != free_lists_.end() && !it->second.empty()) {
        // LIFO reuse: a freshly freed block is handed right back, which is
        // exactly the address-reuse hazard the malloc/free tracking in the
        // detector exists to suppress.
        addr = it->second.back();
        it->second.pop_back();
    } else {
        addr = asmkit::kHeapBase + heap_cursor_;
        heap_cursor_ += rounded;
        PRORACE_ASSERT(asmkit::kHeapBase + heap_cursor_ < asmkit::kHeapLimit,
                       "simulated heap exhausted");
    }
    alloc_sizes_[addr] = rounded;
    return addr;
}

void
Machine::heapFree(uint64_t addr)
{
    if (addr == 0)
        return;
    auto it = alloc_sizes_.find(addr);
    if (it == alloc_sizes_.end()) {
        // Double free or invalid free: real allocators may corrupt state
        // here; the simulated one just notes it (the bug's *race* is what
        // the detector must catch, not the crash).
        warn("invalid or double free of 0x", std::hex, addr, std::dec);
        return;
    }
    free_lists_[it->second].push_back(addr);
    alloc_sizes_.erase(it);
}

int64_t
Machine::pickThread(Core &core)
{
    int64_t best = -1;
    uint64_t best_ready = 0;
    for (uint32_t tid : core.threads) {
        const ThreadContext &t = threads_[tid];
        if (t.state != ThreadState::kRunnable)
            continue;
        if (best < 0 || t.ready_time < best_ready) {
            best = tid;
            best_ready = t.ready_time;
        }
    }
    return best;
}

bool
Machine::stepCore(unsigned core_id)
{
    Core &core = cores_[core_id];

    if (core.current >= 0 &&
        threads_[core.current].state == ThreadState::kRunning &&
        core.quantum_left == 0) {
        // Quantum expiry: preempt only if someone else is waiting.
        ThreadContext &t = threads_[core.current];
        bool other_waiting = false;
        for (uint32_t tid : core.threads) {
            if (tid != t.tid &&
                threads_[tid].state == ThreadState::kRunnable) {
                other_waiting = true;
                break;
            }
        }
        if (other_waiting) {
            t.state = ThreadState::kRunnable;
            t.ready_time = core.clock;
            core.current = -1;
        } else {
            core.quantum_left = rng_.range(config_.quantum_min,
                                           config_.quantum_max);
        }
    }

    if (core.current < 0 ||
        threads_[core.current].state != ThreadState::kRunning) {
        const int64_t next = pickThread(core);
        if (next < 0)
            return false;
        ThreadContext &t = threads_[next];
        core.clock = std::max(core.clock, t.ready_time);
        if (core.last_tid >= 0 && core.last_tid != next)
            core.clock += config_.context_switch_cost;
        core.current = next;
        core.last_tid = next;
        t.state = ThreadState::kRunning;
        core.quantum_left = rng_.range(config_.quantum_min,
                                       config_.quantum_max);
        if (observer_)
            observer_->onContextSwitch(core_id, next, core.clock, t.ip);
        if (!started_[next]) {
            started_[next] = true;
            core.clock += reportSync(t, core, SyncKind::kThreadStart,
                                     0, parent_[next], t.ip);
        }
    }

    ThreadContext &t = threads_[core.current];
    const uint64_t cost = executeInsn(t, core);
    core.clock += cost;
    core.executed_anything = true;
    if (core.quantum_left > 0)
        --core.quantum_left;
    return true;
}

RunStatus
Machine::run()
{
    PRORACE_ASSERT(!threads_.empty(), "run() with no threads");
    for (;;) {
        if (live_threads_ == 0)
            return RunStatus::kFinished;
        if (total_insns_ >= config_.max_instructions)
            return RunStatus::kInsnLimit;

        // Step the laggard core that has runnable work.
        int best_core = -1;
        for (unsigned c = 0; c < cores_.size(); ++c) {
            const Core &core = cores_[c];
            bool has_work = core.current >= 0 &&
                threads_[core.current].state == ThreadState::kRunning;
            if (!has_work) {
                for (uint32_t tid : core.threads) {
                    if (threads_[tid].state == ThreadState::kRunnable) {
                        has_work = true;
                        break;
                    }
                }
            }
            if (!has_work)
                continue;
            if (best_core < 0 ||
                core.clock < cores_[best_core].clock) {
                best_core = static_cast<int>(c);
            }
        }

        // Earliest pending I/O completion.
        int64_t io_tid = -1;
        for (const ThreadContext &t : threads_) {
            if (t.state != ThreadState::kBlockedIo)
                continue;
            if (io_tid < 0 || t.wake_time < threads_[io_tid].wake_time)
                io_tid = t.tid;
        }

        // I/O completions must be delivered *before* any core advances
        // past them; deferring a wakeup would let the woken thread run
        // "in the past" relative to cores that raced ahead, producing
        // causality-violating sync timestamps.
        if (io_tid >= 0 &&
            (best_core < 0 ||
             threads_[io_tid].wake_time <= cores_[best_core].clock)) {
            ThreadContext &t = threads_[io_tid];
            Core &core = cores_[t.core];
            // The core slept until the completion; do not bill the idle
            // gap as compute.
            core.clock = std::max(core.clock, t.wake_time);
            makeRunnable(t.tid, t.wake_time);
            continue;
        }
        if (best_core >= 0) {
            stepCore(static_cast<unsigned>(best_core));
            continue;
        }
        return RunStatus::kDeadlock;
    }
}

uint64_t
Machine::executeInsn(ThreadContext &t, Core &core)
{
    const uint32_t index = t.ip;
    const Insn &insn = program_.insnAt(index);
    uint64_t cost = 1;
    // Cache-miss-like timing noise keeps interleavings seed-dependent
    // even when each core runs a single pinned thread.
    if (config_.timing_jitter && (rng_.next() & 0x3f) == 0)
        cost += rng_.below(30);
    uint32_t next_ip = index + 1;
    bool retire = true;

    auto block = [&](ThreadState state, uint64_t on) {
        t.state = state;
        t.blocked_on = on;
        core.current = -1;
        retire = false;
        next_ip = index; // re-execute on wake
    };

    switch (insn.op) {
      case Op::kNop:
        break;

      case Op::kHalt: {
        t.state = ThreadState::kDone;
        core.current = -1;
        --live_threads_;
        cost += reportSync(t, core, SyncKind::kThreadExit, 0, 0, index);
        // Wake joiners.
        for (ThreadContext &other : threads_) {
            if (other.state == ThreadState::kBlockedJoin &&
                other.blocked_on == t.tid) {
                makeRunnable(other.tid, core.clock);
            }
        }
        break;
      }

      case Op::kMovRI:
        t.regs.set(insn.dst, static_cast<uint64_t>(insn.imm));
        break;

      case Op::kMovRR:
        t.regs.set(insn.dst, readReg(t, insn.src));
        break;

      case Op::kLoad: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportLoad(t, core, index, addr, insn.width, false);
        const uint64_t raw = memory_.read(addr, insn.width);
        t.regs.set(insn.dst,
                   isa::extendFromWidth(raw, insn.width, insn.sign_extend));
        break;
      }

      case Op::kStore: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportStore(t, core, index, addr, insn.width, false);
        memory_.write(addr, isa::truncateToWidth(readReg(t, insn.src),
                                                 insn.width), insn.width);
        break;
      }

      case Op::kStoreI: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportStore(t, core, index, addr, insn.width, false);
        memory_.write(addr,
                      isa::truncateToWidth(static_cast<uint64_t>(insn.imm),
                                           insn.width), insn.width);
        break;
      }

      case Op::kLea:
        t.regs.set(insn.dst, effectiveAddr(t, insn.mem));
        break;

      case Op::kAluRR: {
        const auto r = isa::evalAlu(insn.alu, readReg(t, insn.dst),
                                    readReg(t, insn.src));
        t.regs.set(insn.dst, r.value);
        t.flags = r.flags;
        break;
      }

      case Op::kAluRI: {
        const auto r = isa::evalAlu(insn.alu, readReg(t, insn.dst),
                                    static_cast<uint64_t>(insn.imm));
        t.regs.set(insn.dst, r.value);
        t.flags = r.flags;
        break;
      }

      case Op::kCmpRR:
        t.flags = isa::evalCmp(readReg(t, insn.dst), readReg(t, insn.src));
        break;

      case Op::kCmpRI:
        t.flags = isa::evalCmp(readReg(t, insn.dst),
                               static_cast<uint64_t>(insn.imm));
        break;

      case Op::kTestRR:
        t.flags = isa::evalTest(readReg(t, insn.dst), readReg(t, insn.src));
        break;

      case Op::kTestRI:
        t.flags = isa::evalTest(readReg(t, insn.dst),
                                static_cast<uint64_t>(insn.imm));
        break;

      case Op::kJcc: {
        const bool taken = isa::condHolds(insn.cond, t.flags);
        if (taken)
            next_ip = insn.target;
        if (observer_) {
            BranchEvent ev{t.core, t.tid, index, taken, next_ip,
                           core.clock};
            cost += observer_->onCondBranch(ev);
        }
        break;
      }

      case Op::kJmp:
        next_ip = insn.target;
        break;

      case Op::kJmpInd: {
        next_ip = static_cast<uint32_t>(readReg(t, insn.src));
        if (observer_) {
            BranchEvent ev{t.core, t.tid, index, true, next_ip, core.clock};
            cost += observer_->onIndirectBranch(ev);
        }
        break;
      }

      case Op::kCall: {
        const uint64_t sp = t.regs.get(Reg::rsp) - 8;
        cost += reportStore(t, core, index, sp, 8, false);
        memory_.write(sp, index + 1, 8);
        t.regs.set(Reg::rsp, sp);
        next_ip = insn.target;
        break;
      }

      case Op::kCallInd: {
        const uint32_t target = static_cast<uint32_t>(readReg(t, insn.src));
        const uint64_t sp = t.regs.get(Reg::rsp) - 8;
        cost += reportStore(t, core, index, sp, 8, false);
        memory_.write(sp, index + 1, 8);
        t.regs.set(Reg::rsp, sp);
        next_ip = target;
        if (observer_) {
            BranchEvent ev{t.core, t.tid, index, true, target, core.clock};
            cost += observer_->onIndirectBranch(ev);
        }
        break;
      }

      case Op::kRet: {
        const uint64_t sp = t.regs.get(Reg::rsp);
        cost += reportLoad(t, core, index, sp, 8, false);
        next_ip = static_cast<uint32_t>(memory_.read(sp, 8));
        t.regs.set(Reg::rsp, sp + 8);
        if (observer_) {
            BranchEvent ev{t.core, t.tid, index, true, next_ip, core.clock};
            cost += observer_->onIndirectBranch(ev);
        }
        break;
      }

      case Op::kPush: {
        const uint64_t sp = t.regs.get(Reg::rsp) - 8;
        cost += reportStore(t, core, index, sp, 8, false);
        memory_.write(sp, readReg(t, insn.src), 8);
        t.regs.set(Reg::rsp, sp);
        break;
      }

      case Op::kPop: {
        const uint64_t sp = t.regs.get(Reg::rsp);
        cost += reportLoad(t, core, index, sp, 8, false);
        t.regs.set(insn.dst, memory_.read(sp, 8));
        t.regs.set(Reg::rsp, sp + 8);
        break;
      }

      case Op::kAtomicRmw: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportLoad(t, core, index, addr, insn.width, true);
        const uint64_t old =
            isa::extendFromWidth(memory_.read(addr, insn.width), insn.width,
                                 false);
        const uint64_t neu =
            isa::evalAlu(insn.alu, old, readReg(t, insn.src)).value;
        cost += reportStore(t, core, index, addr, insn.width, true);
        memory_.write(addr, isa::truncateToWidth(neu, insn.width),
                      insn.width);
        t.regs.set(insn.dst, old);
        cost += 10; // lock-prefix penalty
        break;
      }

      case Op::kCas: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportLoad(t, core, index, addr, insn.width, true);
        const uint64_t old =
            isa::extendFromWidth(memory_.read(addr, insn.width), insn.width,
                                 false);
        const uint64_t expected =
            isa::truncateToWidth(readReg(t, insn.dst), insn.width);
        if (old == expected) {
            cost += reportStore(t, core, index, addr, insn.width, true);
            memory_.write(addr,
                          isa::truncateToWidth(readReg(t, insn.src),
                                               insn.width), insn.width);
            t.flags.zf = true;
        } else {
            t.regs.set(insn.dst, old);
            t.flags.zf = false;
        }
        cost += 10;
        break;
      }

      case Op::kLock: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        MutexState &m = mutexes_[addr];
        if (lock_granted_[t.tid] &&
            m.owner == static_cast<int64_t>(t.tid)) {
            // Wake-up path: ownership was transferred while blocked.
            lock_granted_[t.tid] = false;
            cost += reportSync(t, core, SyncKind::kLock, addr, 0, index);
            cost += 20;
        } else if (m.owner < 0) {
            m.owner = t.tid;
            cost += reportSync(t, core, SyncKind::kLock, addr, 0, index);
            cost += 20;
        } else {
            // Mutexes are non-recursive: a re-acquisition by the owner
            // self-deadlocks, as PTHREAD_MUTEX_NORMAL does.
            m.waiters.push_back(t.tid);
            block(ThreadState::kBlockedMutex, addr);
        }
        break;
      }

      case Op::kUnlock: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportSync(t, core, SyncKind::kUnlock, addr, 0, index);
        releaseMutex(addr, t, core.clock + cost);
        cost += 20;
        break;
      }

      case Op::kCondWait: {
        const uint64_t cv = effectiveAddr(t, insn.mem);
        const uint64_t mtx = readReg(t, insn.src);
        if (cond_resuming_[t.tid]) {
            // Woken and holding the mutex again: the wait retires now.
            PRORACE_ASSERT(mutexes_[mtx].owner ==
                           static_cast<int64_t>(t.tid),
                           "cond wake without mutex ownership");
            cond_resuming_[t.tid] = false;
            lock_granted_[t.tid] = false;
            cost += reportSync(t, core, SyncKind::kCondWake, cv, mtx,
                               index);
            cost += 30;
        } else {
            cost += reportSync(t, core, SyncKind::kCondWaitBegin, cv, mtx,
                               index);
            releaseMutex(mtx, t, core.clock + cost);
            t.cond_mutex = mtx;
            condvars_[cv].waiters.push_back(t.tid);
            block(ThreadState::kBlockedCond, cv);
        }
        break;
      }

      case Op::kCondSignal: {
        const uint64_t cv = effectiveAddr(t, insn.mem);
        cost += reportSync(t, core, SyncKind::kCondSignal, cv, 0, index);
        CondVarState &c = condvars_[cv];
        if (!c.waiters.empty()) {
            const uint32_t w = c.waiters.front();
            c.waiters.pop_front();
            wakeFromCond(w, threads_[w].cond_mutex, core.clock + cost);
        }
        cost += 25;
        break;
      }

      case Op::kCondBcast: {
        const uint64_t cv = effectiveAddr(t, insn.mem);
        cost += reportSync(t, core, SyncKind::kCondBroadcast, cv, 0, index);
        CondVarState &c = condvars_[cv];
        while (!c.waiters.empty()) {
            const uint32_t w = c.waiters.front();
            c.waiters.pop_front();
            wakeFromCond(w, threads_[w].cond_mutex, core.clock + cost);
        }
        cost += 25;
        break;
      }

      case Op::kBarrier: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        BarrierState &b = barriers_[addr];
        if (barrier_resuming_[t.tid]) {
            barrier_resuming_[t.tid] = false;
            cost += reportSync(t, core, SyncKind::kBarrierExit, addr, 0,
                               index);
        } else {
            cost += reportSync(t, core, SyncKind::kBarrierEnter, addr, 0,
                               index);
            ++b.arrived;
            if (b.arrived >= static_cast<uint32_t>(insn.imm)) {
                // Last arrival releases everyone.
                b.arrived = 0;
                while (!b.waiters.empty()) {
                    const uint32_t w = b.waiters.front();
                    b.waiters.pop_front();
                    barrier_resuming_[w] = true;
                    makeRunnable(w, core.clock + cost);
                }
                cost += reportSync(t, core, SyncKind::kBarrierExit, addr, 0,
                                   index);
            } else {
                b.waiters.push_back(t.tid);
                block(ThreadState::kBlockedBarrier, addr);
            }
        }
        break;
      }

      case Op::kSpawn: {
        const uint64_t arg = readReg(t, insn.src);
        const uint32_t child = addThread(insn.target, arg);
        parent_[child] = t.tid;
        threads_[child].ready_time = core.clock + cost;
        t.regs.set(insn.dst, child);
        cost += reportSync(t, core, SyncKind::kSpawn, 0, child, index);
        cost += 100; // thread-creation expense
        break;
      }

      case Op::kJoin: {
        const uint32_t target = static_cast<uint32_t>(readReg(t, insn.src));
        PRORACE_ASSERT(target < threads_.size(), "join of unknown tid ",
                       target);
        if (threads_[target].state == ThreadState::kDone) {
            cost += reportSync(t, core, SyncKind::kJoin, 0, target, index);
        } else {
            block(ThreadState::kBlockedJoin, target);
        }
        break;
      }

      case Op::kMalloc: {
        const uint64_t size = readReg(t, insn.src);
        const uint64_t addr = heapAlloc(size);
        t.regs.set(insn.dst, addr);
        cost += reportSync(t, core, SyncKind::kMalloc, addr, size, index);
        cost += 30;
        break;
      }

      case Op::kFree: {
        const uint64_t addr = readReg(t, insn.src);
        cost += reportSync(t, core, SyncKind::kFree, addr, 0, index);
        heapFree(addr);
        cost += 30;
        break;
      }

      case Op::kRwRdLock: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        RwLockState &rw = rwlocks_[addr];
        if (rw_granted_[t.tid]) {
            // Wake-up path: admitted while blocked (readers/writer
            // already updated by drainRwWaiters).
            rw_granted_[t.tid] = false;
            cost += reportSync(t, core, SyncKind::kRwRdLock, addr, 0,
                               index);
            cost += 20;
        } else if (rw.writer < 0 && rw.waiters.empty()) {
            ++rw.readers;
            cost += reportSync(t, core, SyncKind::kRwRdLock, addr, 0,
                               index);
            cost += 20;
        } else {
            // A pending writer blocks new readers (writer preference
            // keeps the FIFO fair).
            rw.waiters.emplace_back(t.tid, false);
            block(ThreadState::kBlockedRwLock, addr);
        }
        break;
      }

      case Op::kRwWrLock: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        RwLockState &rw = rwlocks_[addr];
        if (rw_granted_[t.tid]) {
            rw_granted_[t.tid] = false;
            cost += reportSync(t, core, SyncKind::kRwWrLock, addr, 0,
                               index);
            cost += 20;
        } else if (rw.writer < 0 && rw.readers == 0 &&
                   rw.waiters.empty()) {
            rw.writer = t.tid;
            cost += reportSync(t, core, SyncKind::kRwWrLock, addr, 0,
                               index);
            cost += 20;
        } else {
            rw.waiters.emplace_back(t.tid, true);
            block(ThreadState::kBlockedRwLock, addr);
        }
        break;
      }

      case Op::kRwUnlock: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        RwLockState &rw = rwlocks_[addr];
        const bool was_writer = rw.writer == static_cast<int64_t>(t.tid);
        if (was_writer) {
            rw.writer = -1;
        } else {
            PRORACE_ASSERT(rw.readers > 0, "thread ", t.tid,
                           " releasing rwlock it does not hold");
            --rw.readers;
        }
        cost += reportSync(t, core, SyncKind::kRwUnlock, addr,
                           was_writer ? 1 : 0, index);
        drainRwWaiters(rw, core.clock + cost);
        cost += 20;
        break;
      }

      case Op::kSemInit: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        semaphores_[addr].value = insn.imm;
        cost += reportSync(t, core, SyncKind::kSemInit, addr,
                           static_cast<uint64_t>(insn.imm), index);
        cost += 20;
        break;
      }

      case Op::kSemWait: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        SemState &s = semaphores_[addr];
        if (sem_granted_[t.tid]) {
            // A post handed this thread its count directly.
            sem_granted_[t.tid] = false;
            cost += reportSync(t, core, SyncKind::kSemWait, addr, 0,
                               index);
            cost += 20;
        } else if (s.value > 0) {
            --s.value;
            cost += reportSync(t, core, SyncKind::kSemWait, addr, 0,
                               index);
            cost += 20;
        } else {
            s.waiters.push_back(t.tid);
            block(ThreadState::kBlockedSem, addr);
        }
        break;
      }

      case Op::kSemPost: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        SemState &s = semaphores_[addr];
        cost += reportSync(t, core, SyncKind::kSemPost, addr, 0, index);
        if (!s.waiters.empty()) {
            const uint32_t w = s.waiters.front();
            s.waiters.pop_front();
            sem_granted_[w] = true;
            makeRunnable(w, core.clock + cost);
        } else {
            ++s.value;
        }
        cost += 20;
        break;
      }

      case Op::kSpinLock: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        MutexState &m = spinlocks_[addr];
        if (spin_granted_[t.tid] &&
            m.owner == static_cast<int64_t>(t.tid)) {
            spin_granted_[t.tid] = false;
            cost += reportSync(t, core, SyncKind::kSpinLock, addr, 0,
                               index);
            cost += 5;
        } else if (m.owner < 0) {
            m.owner = t.tid;
            cost += reportSync(t, core, SyncKind::kSpinLock, addr, 0,
                               index);
            cost += 5;
        } else {
            // Spinning is modeled as blocking with handoff: the cycles a
            // real spinner would burn are charged as contention latency
            // without flooding the trace with retried CAS loops.
            m.waiters.push_back(t.tid);
            block(ThreadState::kBlockedSpin, addr);
        }
        break;
      }

      case Op::kSpinUnlock: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        MutexState &m = spinlocks_[addr];
        PRORACE_ASSERT(m.owner == static_cast<int64_t>(t.tid), "thread ",
                       t.tid, " releasing spinlock it does not own");
        cost += reportSync(t, core, SyncKind::kSpinUnlock, addr, 0,
                           index);
        if (!m.waiters.empty()) {
            const uint32_t next = m.waiters.front();
            m.waiters.pop_front();
            m.owner = next;
            spin_granted_[next] = true;
            makeRunnable(next, core.clock + cost);
        } else {
            m.owner = -1;
        }
        cost += 5;
        break;
      }

      case Op::kLoadAcq: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportSync(t, core, SyncKind::kAtomicAcquire, addr, 0,
                           index);
        cost += reportLoad(t, core, index, addr, insn.width, true);
        const uint64_t raw = memory_.read(addr, insn.width);
        t.regs.set(insn.dst, isa::extendFromWidth(raw, insn.width, false));
        cost += 2; // acquire fence
        break;
      }

      case Op::kStoreRel: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportStore(t, core, index, addr, insn.width, true);
        memory_.write(addr, isa::truncateToWidth(readReg(t, insn.src),
                                                 insn.width), insn.width);
        cost += reportSync(t, core, SyncKind::kAtomicRelease, addr, 0,
                           index);
        cost += 2; // release fence
        break;
      }

      case Op::kAtomicRmwAcqRel: {
        const uint64_t addr = effectiveAddr(t, insn.mem);
        cost += reportLoad(t, core, index, addr, insn.width, true);
        const uint64_t old =
            isa::extendFromWidth(memory_.read(addr, insn.width), insn.width,
                                 false);
        const uint64_t neu =
            isa::evalAlu(insn.alu, old, readReg(t, insn.src)).value;
        cost += reportStore(t, core, index, addr, insn.width, true);
        memory_.write(addr, isa::truncateToWidth(neu, insn.width),
                      insn.width);
        t.regs.set(insn.dst, old);
        cost += reportSync(t, core, SyncKind::kAtomicAcqRel, addr, 0,
                           index);
        cost += 10; // lock-prefix penalty
        break;
      }

      case Op::kSyscall: {
        t.regs.set(Reg::rax, static_cast<uint64_t>(insn.imm));
        switch (insn.sysno) {
          case SyscallNo::kYield:
            core.quantum_left = 1;
            cost += 50;
            break;
          case SyscallNo::kNone:
            cost += 50;
            break;
          case SyscallNo::kRead:
          case SyscallNo::kWrite: {
            uint64_t latency = static_cast<uint64_t>(insn.imm);
            if (observer_) {
                latency += observer_->onIoSyscall(t.tid, insn.sysno,
                                                  latency);
            }
            t.state = ThreadState::kBlockedIo;
            t.wake_time = core.clock + cost + latency;
            t.ready_time = t.wake_time;
            core.current = -1;
            break;
          }
          case SyscallNo::kNetSend:
          case SyscallNo::kNetRecv:
          case SyscallNo::kSleep: {
            const uint64_t latency = static_cast<uint64_t>(insn.imm);
            t.state = ThreadState::kBlockedIo;
            t.wake_time = core.clock + cost + latency;
            t.ready_time = t.wake_time;
            core.current = -1;
            break;
          }
        }
        break;
      }
    }

    if (retire) {
        t.ip = next_ip;
        ++t.retired_insns;
        ++total_insns_;
        if (config_.record_path_log)
            path_log_.emplace_back(t.tid, index);
    }
    return cost;
}

} // namespace prorace::vm
