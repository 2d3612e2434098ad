/**
 * @file
 * A thread-pool executor for the offline-analysis engine.
 *
 * Workers take tasks from one FIFO queue guarded by one mutex, so tasks
 * start in submission order. Submission and the worker's sleep share
 * that mutex: a worker tests for work and waits under the same lock a
 * submitter holds to push, so no wakeup can fall between the test and
 * the wait. Results travel through exec::Future, which also carries
 * exceptions: a task that throws never kills a worker thread — the
 * error is rethrown on whichever thread calls get() (panic-safe
 * shutdown).
 *
 * The destructor drains the queue: workers run every task already
 * submitted, then exit and are joined. Callers that care about results
 * hold the futures.
 *
 * Per-stage observability: ExecutorStats counts submissions,
 * executions and the queue-depth high-water, and aggregates task
 * latency into a support::RunningStat (steady-clock based, like every
 * timer in the offline pipeline).
 */

#ifndef PRORACE_EXEC_EXECUTOR_HH
#define PRORACE_EXEC_EXECUTOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "exec/future.hh"
#include "support/stats.hh"

namespace prorace::exec {

/** Executor counters. */
struct ExecutorStats {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t max_queue_depth = 0; ///< high-water mark of the task queue
    RunningStat task_seconds;     ///< per-task execution latency
};

class Executor
{
  public:
    /**
     * Start @p num_threads workers. 0 asks for
     * std::thread::hardware_concurrency() (at least 1).
     */
    explicit Executor(unsigned num_threads);

    /** Runs every queued task, then joins every worker. */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** What workerIndex() returns on a thread outside every pool. */
    static constexpr unsigned kNotAWorker = ~0u;

    /**
     * Index in [0, numThreads()) of the pool worker running the caller,
     * or kNotAWorker off the pool. Callers keep per-worker state (one
     * slot per worker) indexed by it.
     */
    static unsigned workerIndex();

    /**
     * Submit a callable; returns a Future of its result. The callable
     * runs exactly once on some worker thread.
     */
    template <typename Fn, typename R = std::invoke_result_t<Fn>>
    Future<R>
    submit(Fn fn)
    {
        Promise<R> promise;
        Future<R> future = promise.future();
        // The latency is recorded before the promise resolves, so a
        // stats() call after Future::get() always sees this task.
        enqueue([this, promise = std::move(promise),
                 fn = std::move(fn)]() mutable {
            const auto t0 = std::chrono::steady_clock::now();
            try {
                if constexpr (std::is_void_v<R>) {
                    fn();
                    recordTaskSeconds(t0);
                    promise.setValue();
                } else {
                    R result = fn();
                    recordTaskSeconds(t0);
                    promise.setValue(std::move(result));
                }
            } catch (...) {
                recordTaskSeconds(t0);
                promise.setError(std::current_exception());
            }
        });
        return future;
    }

    /** Snapshot of the counters. */
    ExecutorStats stats() const;

  private:
    void enqueue(std::function<void()> task);
    void workerLoop(unsigned index);
    void recordTaskSeconds(std::chrono::steady_clock::time_point t0);

    mutable std::mutex mu_; ///< guards the four members below
    std::condition_variable wake_cv_;
    std::deque<std::function<void()>> tasks_;
    bool shutdown_ = false;
    ExecutorStats stats_;
    // Last, after everything the workers use.
    std::vector<std::thread> workers_;
};

} // namespace prorace::exec

#endif // PRORACE_EXEC_EXECUTOR_HH
