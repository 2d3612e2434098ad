/**
 * @file
 * A minimal future/promise pair for executor tasks.
 *
 * std::future would do, but a self-contained shared state keeps the
 * executor dependency-light, lets the worker loop observe task
 * completion uniformly for its latency counters, and gives us a void
 * specialization without packaged_task indirection. Exceptions thrown
 * by a task are captured and rethrown from get() on the waiting thread
 * (panic-safe: a throwing task never takes down a worker).
 */

#ifndef PRORACE_EXEC_FUTURE_HH
#define PRORACE_EXEC_FUTURE_HH

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace prorace::exec {

namespace detail {

template <typename T> struct SharedState {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<T> value;
    std::exception_ptr error;
    bool ready = false;
};

template <> struct SharedState<void> {
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
    bool ready = false;
};

} // namespace detail

template <typename T> class Promise;

/** The consumer half: wait for and take a task's result. */
template <typename T> class Future
{
  public:
    Future() = default;

    /** Block for the result; rethrows the task's exception, if any. */
    T
    get()
    {
        std::unique_lock<std::mutex> lock(state_->mu);
        state_->cv.wait(lock, [this] { return state_->ready; });
        if (state_->error)
            std::rethrow_exception(state_->error);
        if constexpr (!std::is_void_v<T>)
            return std::move(*state_->value);
    }

  private:
    friend class Promise<T>;
    explicit Future(std::shared_ptr<detail::SharedState<T>> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<detail::SharedState<T>> state_;
};

/** The producer half, held by the task wrapper. */
template <typename T> class Promise
{
  public:
    Promise() : state_(std::make_shared<detail::SharedState<T>>()) {}

    Future<T> future() const { return Future<T>(state_); }

    template <typename U>
    void
    setValue(U &&value)
    {
        {
            std::lock_guard<std::mutex> lock(state_->mu);
            state_->value.emplace(std::forward<U>(value));
            state_->ready = true;
        }
        state_->cv.notify_all();
    }

    void
    setError(std::exception_ptr error)
    {
        {
            std::lock_guard<std::mutex> lock(state_->mu);
            state_->error = error;
            state_->ready = true;
        }
        state_->cv.notify_all();
    }

  private:
    std::shared_ptr<detail::SharedState<T>> state_;
};

template <> class Promise<void>
{
  public:
    Promise() : state_(std::make_shared<detail::SharedState<void>>()) {}

    Future<void> future() const { return Future<void>(state_); }

    void
    setValue()
    {
        {
            std::lock_guard<std::mutex> lock(state_->mu);
            state_->ready = true;
        }
        state_->cv.notify_all();
    }

    void
    setError(std::exception_ptr error)
    {
        {
            std::lock_guard<std::mutex> lock(state_->mu);
            state_->error = error;
            state_->ready = true;
        }
        state_->cv.notify_all();
    }

  private:
    std::shared_ptr<detail::SharedState<void>> state_;
};

} // namespace prorace::exec

#endif // PRORACE_EXEC_FUTURE_HH
