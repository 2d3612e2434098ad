#include "exec/executor.hh"

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
        workers_.push_back(std::make_unique<Worker>());
    for (unsigned i = 0; i < num_threads; ++i)
        workers_[i]->thread = std::thread([this, i] { workerLoop(i); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(wake_mu_);
        shutdown_.store(true, std::memory_order_release);
    }
    wake_cv_.notify_all();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

void
Executor::enqueue(std::function<void()> task)
{
    PRORACE_ASSERT(!shutdown_.load(std::memory_order_acquire),
                   "submit() on a shut-down executor");
    const uint64_t n = next_worker_.fetch_add(1, std::memory_order_relaxed);
    Worker &w = *workers_[n % workers_.size()];
    pending_.fetch_add(1, std::memory_order_release);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    const size_t depth = w.queue.push(std::move(task));
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (depth > w.max_queue_depth)
            w.max_queue_depth = depth;
    }
    // A worker checks pending_ under wake_mu_ and then sleeps. Passing
    // through the mutex orders this notify after any such check, so it
    // cannot fall between the check and the sleep and be lost.
    { std::lock_guard<std::mutex> lock(wake_mu_); }
    wake_cv_.notify_one();
}

bool
Executor::runOneTask(unsigned index)
{
    Worker &self = *workers_[index];
    std::optional<std::function<void()>> task = self.queue.pop();
    bool was_steal = false;
    if (!task) {
        // Steal the oldest task of the deepest victim, so the pool
        // retires work roughly in submission order when idle.
        size_t best_depth = 0;
        size_t victim = index;
        for (size_t v = 0; v < workers_.size(); ++v) {
            if (v == index)
                continue;
            const size_t depth = workers_[v]->queue.size();
            if (depth > best_depth) {
                best_depth = depth;
                victim = v;
            }
        }
        if (victim != index) {
            task = workers_[victim]->queue.steal();
            was_steal = task.has_value();
        }
    }
    if (!task)
        return false;

    pending_.fetch_sub(1, std::memory_order_acq_rel);
    // Count before running: the task resolves its future, and a
    // stats() reader synchronized by that future must see this task.
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++self.executed;
        if (was_steal)
            ++self.stolen;
    }
    (*task)();
    return true;
}

void
Executor::recordTaskSeconds(std::chrono::steady_clock::time_point t0)
{
    const double seconds = secondsSince(t0);
    std::lock_guard<std::mutex> lock(stats_mu_);
    task_seconds_.add(seconds);
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
    for (;;) {
        if (runOneTask(index))
            continue;
        std::unique_lock<std::mutex> lock(wake_mu_);
        if (shutdown_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0) {
            return;
        }
        if (pending_.load(std::memory_order_acquire) != 0)
            continue; // raced with a submit; retry before sleeping
        wake_cv_.wait(lock, [this] {
            return shutdown_.load(std::memory_order_acquire) ||
                pending_.load(std::memory_order_acquire) != 0;
        });
    }
}

void
Executor::parallelFor(uint64_t count,
                      const std::function<void(uint64_t)> &fn)
{
    std::vector<Future<void>> futures;
    futures.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        futures.push_back(submit([&fn, i] { fn(i); }));
    std::exception_ptr first_error;
    for (auto &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

ExecutorStats
Executor::stats() const
{
    ExecutorStats out;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto &w : workers_) {
        out.executed += w->executed;
        out.stolen += w->stolen;
        if (w->max_queue_depth > out.max_queue_depth)
            out.max_queue_depth = w->max_queue_depth;
    }
    out.task_seconds = task_seconds_;
    return out;
}

} // namespace prorace::exec
