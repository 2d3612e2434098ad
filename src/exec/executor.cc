#include "exec/executor.hh"

#include <algorithm>
#include <chrono>

#include "support/log.hh"

namespace prorace::exec {

namespace {

thread_local unsigned t_worker_index = Executor::kNotAWorker;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - t0).count();
}

} // namespace

Executor::Executor(unsigned num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
Executor::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        PRORACE_ASSERT(!shutdown_, "submit() on a shut-down executor");
        tasks_.push_back(std::move(task));
        ++stats_.submitted;
        stats_.max_queue_depth =
            std::max<uint64_t>(stats_.max_queue_depth, tasks_.size());
    }
    wake_cv_.notify_one();
}

void
Executor::recordTaskSeconds(std::chrono::steady_clock::time_point t0)
{
    const double seconds = secondsSince(t0);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.task_seconds.add(seconds);
}

unsigned
Executor::workerIndex()
{
    return t_worker_index;
}

void
Executor::workerLoop(unsigned index)
{
    t_worker_index = index;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        wake_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
        if (tasks_.empty())
            return; // shut down and drained
        std::function<void()> task = std::move(tasks_.front());
        tasks_.pop_front();
        // Count before running: the task resolves its future, and a
        // stats() reader synchronized by that future must see this task.
        ++stats_.executed;
        lock.unlock();
        task();
        task = nullptr; // release the task's captures outside the lock
        lock.lock();
    }
}

ExecutorStats
Executor::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace prorace::exec
