/**
 * @file
 * The simulated multicore machine: scheduler, sync objects, heap, I/O
 * timing, and the interpreter loop with tracing hooks.
 */

#ifndef PRORACE_VM_MACHINE_HH
#define PRORACE_VM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "asmkit/program.hh"
#include "support/rng.hh"
#include "vm/cpu.hh"
#include "vm/hooks.hh"
#include "vm/memory.hh"

namespace prorace::vm {

/** Machine configuration. */
struct MachineConfig {
    unsigned num_cores = 4;       ///< evaluation machine: quad-core Skylake
    uint64_t seed = 1;            ///< scheduler randomness seed
    uint64_t max_instructions = 500'000'000; ///< runaway-loop safety stop
    uint64_t quantum_min = 64;    ///< min scheduling quantum (instructions)
    uint64_t quantum_max = 512;   ///< max scheduling quantum
    uint64_t context_switch_cost = 400; ///< cycles per context switch
    bool timing_jitter = true;    ///< model cache-miss-like timing noise
    bool record_memory_log = false; ///< keep the oracle access log
    bool record_path_log = false; ///< keep the oracle instruction path
};

/** One entry of the oracle memory-access log (testing/ground truth). */
struct MemoryLogEntry {
    uint32_t tid = 0;
    uint64_t retire_index = 0; ///< per-thread retirement position
    uint32_t insn_index = 0;
    uint64_t addr = 0;
    uint8_t width = 8;
    bool is_write = false;
    bool is_atomic = false;
    uint64_t tsc = 0;
};

/** Terminal status of a run. */
enum class RunStatus : uint8_t {
    kFinished,        ///< every thread halted
    kDeadlock,        ///< live threads, none can make progress
    kInsnLimit,       ///< hit max_instructions
};

/**
 * A deterministic multicore interpreter for assembled programs.
 *
 * Cores have private clocks advanced by instruction and tracing costs;
 * the run loop always steps the laggard core, which keeps the clocks
 * (our invariant-TSC model) closely synchronized. Threads are pinned
 * round-robin to cores and scheduled with seeded random quanta, so data
 * races manifest through genuine interleavings that vary with the seed.
 */
class Machine
{
  public:
    Machine(const asmkit::Program &program, const MachineConfig &config);

    /** Attach the tracing observer (may be null). */
    void setObserver(ExecutionObserver *observer) { observer_ = observer; }

    /** Create a thread before run(); @return its tid. */
    uint32_t addThread(uint32_t entry_index, uint64_t arg = 0);

    /** Create a thread at a named label. */
    uint32_t addThread(const std::string &entry_label, uint64_t arg = 0);

    /** Execute until every thread halts (or deadlock / insn limit). */
    RunStatus run();

    /** Wall time of the run: the maximum core clock, in cycles. */
    uint64_t wallTime() const;

    /** Total retired instructions across all threads. */
    uint64_t totalInstructions() const { return total_insns_; }

    /** Total retired loads+stores across all threads. */
    uint64_t totalMemOps() const { return total_mem_ops_; }

    /** The oracle access log (empty unless record_memory_log). */
    const std::vector<MemoryLogEntry> &memoryLog() const { return mem_log_; }

    /** The oracle retirement path (empty unless record_path_log). */
    const std::vector<std::pair<uint32_t, uint32_t>> &pathLog() const
    {
        return path_log_;
    }

    /** Data memory (inspectable after the run). */
    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }

    /** Thread context by tid. */
    const ThreadContext &thread(uint32_t tid) const;

    /** Number of threads ever created. */
    uint32_t numThreads() const
    {
        return static_cast<uint32_t>(threads_.size());
    }

    /** The program being executed. */
    const asmkit::Program &program() const { return program_; }

    /** The configuration this machine was built with. */
    const MachineConfig &config() const { return config_; }

  private:
    struct MutexState {
        int64_t owner = -1;
        std::deque<uint32_t> waiters;
    };
    struct RwLockState {
        int64_t writer = -1;            ///< exclusive holder or -1
        uint32_t readers = 0;           ///< live shared holders
        std::deque<std::pair<uint32_t, bool>> waiters; ///< (tid, wants write)
    };
    struct SemState {
        int64_t value = 0;
        std::deque<uint32_t> waiters;
    };
    struct CondVarState {
        std::deque<uint32_t> waiters;
    };
    struct BarrierState {
        uint32_t arrived = 0;
        std::deque<uint32_t> waiters;
    };
    struct Core {
        uint64_t clock = 0;
        int64_t current = -1;        ///< running tid or -1
        int64_t last_tid = -1;       ///< last tid that ran here
        uint64_t quantum_left = 0;
        std::vector<uint32_t> threads; ///< tids pinned here
        bool executed_anything = false;
    };

    /** Pick and run one instruction on core @p core_id. */
    bool stepCore(unsigned core_id);

    /** Choose the next runnable thread on a core; -1 if none. */
    int64_t pickThread(Core &core);

    /** Execute one instruction of @p t; returns cycles consumed. */
    uint64_t executeInsn(ThreadContext &t, Core &core);

    uint64_t readReg(const ThreadContext &t, isa::Reg r) const;
    uint64_t effectiveAddr(const ThreadContext &t,
                           const isa::MemOperand &mem) const;

    uint64_t reportLoad(ThreadContext &t, Core &core, uint32_t index,
                        uint64_t addr, uint8_t width, bool atomic);
    uint64_t reportStore(ThreadContext &t, Core &core, uint32_t index,
                         uint64_t addr, uint8_t width, bool atomic);
    uint64_t reportSync(ThreadContext &t, Core &core, SyncKind kind,
                        uint64_t object, uint64_t aux, uint32_t index);

    void makeRunnable(uint32_t tid, uint64_t at_time);
    void grantMutex(MutexState &m, uint32_t tid, uint64_t at_time);
    void releaseMutex(uint64_t addr, ThreadContext &t, uint64_t now);
    void wakeFromCond(uint32_t tid, uint64_t mutex_addr, uint64_t now);
    void drainRwWaiters(RwLockState &rw, uint64_t at_time);

    uint64_t heapAlloc(uint64_t size);
    void heapFree(uint64_t addr);

    const asmkit::Program &program_;
    MachineConfig config_;
    Rng rng_;
    Memory memory_;
    ExecutionObserver *observer_ = nullptr;

    // A deque keeps ThreadContext references stable while kSpawn adds
    // threads mid-execution.
    std::deque<ThreadContext> threads_;
    std::vector<Core> cores_;
    std::vector<bool> lock_granted_;    ///< per-tid: mutex handed over
    std::vector<bool> cond_resuming_;   ///< per-tid: waking from cond wait
    std::vector<bool> barrier_resuming_;///< per-tid: released from barrier
    std::vector<bool> rw_granted_;      ///< per-tid: rwlock handed over
    std::vector<bool> sem_granted_;     ///< per-tid: semaphore count handed
    std::vector<bool> spin_granted_;    ///< per-tid: spinlock handed over
    std::vector<bool> started_;         ///< per-tid: ThreadStart emitted
    std::vector<uint32_t> parent_;      ///< per-tid: spawning thread

    std::map<uint64_t, MutexState> mutexes_;
    std::map<uint64_t, CondVarState> condvars_;
    std::map<uint64_t, BarrierState> barriers_;
    std::map<uint64_t, RwLockState> rwlocks_;
    std::map<uint64_t, SemState> semaphores_;
    std::map<uint64_t, MutexState> spinlocks_;

    uint64_t heap_cursor_ = 0;
    std::map<uint64_t, std::vector<uint64_t>> free_lists_; ///< size -> LIFO
    std::unordered_map<uint64_t, uint64_t> alloc_sizes_;

    uint64_t total_insns_ = 0;
    uint64_t total_mem_ops_ = 0;
    uint32_t live_threads_ = 0;
    std::vector<MemoryLogEntry> mem_log_;
    std::vector<std::pair<uint32_t, uint32_t>> path_log_; ///< (tid, insn)
};

} // namespace prorace::vm

#endif // PRORACE_VM_MACHINE_HH
