/**
 * @file
 * Bounded reorder buffer: the ordered-commit stage of the parallel
 * offline pipeline.
 *
 * Producers finish sequence-numbered work items in any order and
 * commit() them; a single consumer pop()s them strictly in sequence
 * order. The capacity bounds how far ahead of the commit frontier a
 * producer may run: commit(seq) blocks while seq >= frontier +
 * capacity, which caps memory held for out-of-order completions.
 *
 * The offline analyzer's parallel path additionally throttles
 * *submission* to the capacity, so under the work-stealing executor
 * (whose owners pop LIFO) a late-sequence task can never occupy every
 * worker while an early-sequence task is still queued — the blocking commit path is a
 * genuine bound, not a liveness hazard.
 */

#ifndef PRORACE_EXEC_REORDER_BUFFER_HH
#define PRORACE_EXEC_REORDER_BUFFER_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>

#include "support/log.hh"

namespace prorace::exec {

template <typename T> class ReorderBuffer
{
  public:
    explicit ReorderBuffer(uint64_t capacity) : capacity_(capacity)
    {
        PRORACE_ASSERT(capacity >= 1, "reorder buffer needs capacity");
    }

    /** Producer: deliver item @p seq; blocks while the buffer is full. */
    void
    commit(uint64_t seq, T value)
    {
        std::unique_lock<std::mutex> lock(mu_);
        PRORACE_ASSERT(seq >= next_, "reorder buffer sequence reused");
        space_cv_.wait(lock,
                       [&] { return seq < next_ + capacity_; });
        held_.emplace(seq, std::move(value));
        if (seq == next_)
            ready_cv_.notify_one();
    }

    /** Consumer: take the next item in sequence order. */
    T
    pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        ready_cv_.wait(lock, [&] {
            return !held_.empty() && held_.begin()->first == next_;
        });
        auto it = held_.begin();
        T value = std::move(it->second);
        held_.erase(it);
        ++next_;
        space_cv_.notify_all();
        return value;
    }

    /** Sequence number the consumer will pop next. */
    uint64_t
    frontier() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return next_;
    }

    /** Items currently parked out of order. */
    uint64_t
    held() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return held_.size();
    }

  private:
    const uint64_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable ready_cv_;
    std::condition_variable space_cv_;
    std::map<uint64_t, T> held_;
    uint64_t next_ = 0;
};

} // namespace prorace::exec

#endif // PRORACE_EXEC_REORDER_BUFFER_HH
