/**
 * @file
 * Tests for the executor subsystem: futures and the executor itself
 * (completion, FIFO start order, exception propagation, stats, and the
 * worker index that per-worker state is keyed by).
 */

#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.hh"
#include "exec/future.hh"

namespace prorace::exec {
namespace {

TEST(Future, DeliversValueAcrossThreads)
{
    Promise<int> promise;
    Future<int> future = promise.future();
    std::thread producer([&promise] { promise.setValue(17); });
    EXPECT_EQ(future.get(), 17);
    producer.join();
}

TEST(Future, RethrowsProducerException)
{
    Promise<int> promise;
    Future<int> future = promise.future();
    promise.setError(
        std::make_exception_ptr(std::runtime_error("boom")));
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(Executor, RunsEveryTaskExactlyOnce)
{
    constexpr int kTasks = 500;
    Executor ex(4);
    std::atomic<int> hits{0};
    std::vector<Future<int>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        futures.push_back(ex.submit([&hits, i] {
            hits.fetch_add(1, std::memory_order_relaxed);
            return i * i;
        }));
    }
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
    EXPECT_EQ(hits.load(), kTasks);
    EXPECT_EQ(ex.stats().executed, static_cast<uint64_t>(kTasks));
}

TEST(Executor, PropagatesTaskExceptionThroughFuture)
{
    Executor ex(2);
    Future<int> bad =
        ex.submit([]() -> int { throw std::logic_error("task failed"); });
    Future<int> good = ex.submit([] { return 5; });
    EXPECT_THROW(bad.get(), std::logic_error);
    EXPECT_EQ(good.get(), 5); // one failure doesn't poison the pool
}

TEST(Executor, NestedSubmissionFromWorkers)
{
    // Tasks may submit follow-up tasks from a worker thread (but must
    // not block on them there: with every worker inside a blocking
    // parent, nobody would be left to run the children). The main
    // thread collects the child futures and joins them.
    Executor ex(3);
    std::atomic<int> leaves{0};
    std::mutex mu;
    std::vector<Future<void>> children;
    std::vector<Future<void>> roots;
    for (int i = 0; i < 8; ++i) {
        roots.push_back(ex.submit([&ex, &leaves, &mu, &children] {
            for (int j = 0; j < 8; ++j) {
                Future<void> child = ex.submit([&leaves] {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                });
                std::lock_guard<std::mutex> lock(mu);
                children.push_back(std::move(child));
            }
        }));
    }
    for (auto &f : roots)
        f.get();
    for (auto &f : children)
        f.get();
    EXPECT_EQ(leaves.load(), 64);
}

TEST(Executor, OneWorkerRunsTasksInSubmissionOrder)
{
    // The plan-order commit waits on the oldest outstanding task, so
    // the queue must hand out tasks oldest first: with one worker held
    // busy while 8 tasks queue up, they must then run as 0..7.
    Executor ex(1);
    Promise<void> started;
    Promise<void> gate;
    Future<void> started_f = started.future();
    Future<void> gate_f = gate.future();
    Future<void> blocker = ex.submit([&started, &gate_f] {
        started.setValue();
        gate_f.get();
    });
    started_f.get();
    std::vector<int> order;
    std::vector<Future<void>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(ex.submit([&order, i] { order.push_back(i); }));
    gate.setValue();
    blocker.get();
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Executor, StatsCountEveryTask)
{
    // Long and short tasks mixed across 4 workers: every task is
    // counted once, whichever worker runs it.
    Executor ex(4);
    std::atomic<int> done{0};
    constexpr int kTasks = 256;
    std::vector<Future<void>> futures;
    for (int i = 0; i < kTasks; ++i) {
        futures.push_back(ex.submit([&done, i] {
            volatile uint64_t sink = 0;
            const int spin = (i % 4 == 0) ? 20000 : 50;
            for (int j = 0; j < spin; ++j)
                sink = sink + static_cast<uint64_t>(j);
            done.fetch_add(1, std::memory_order_relaxed);
        }));
    }
    for (auto &f : futures)
        f.get();
    const ExecutorStats stats = ex.stats();
    EXPECT_EQ(done.load(), kTasks);
    EXPECT_EQ(stats.executed, static_cast<uint64_t>(kTasks));
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kTasks));
    EXPECT_GE(stats.max_queue_depth, 1u);
    EXPECT_EQ(stats.task_seconds.count(), static_cast<size_t>(kTasks));
}

TEST(Executor, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        Executor ex(2);
        for (int i = 0; i < 100; ++i) {
            ex.submit([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        }
        // No get(): shutdown must still run everything already queued.
    }
    EXPECT_EQ(ran.load(), 100);
}

TEST(Executor, WorkerIndexNamesTheRunningWorker)
{
    // Per-worker state is safe only if each worker thread has one index
    // of its own: a function of the thread, and no two threads share it.
    EXPECT_EQ(Executor::workerIndex(), Executor::kNotAWorker);
    Executor ex(3);
    std::vector<Future<std::pair<std::thread::id, unsigned>>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(ex.submit([] {
            return std::make_pair(std::this_thread::get_id(),
                                  Executor::workerIndex());
        }));
    }
    std::map<std::thread::id, unsigned> index_of;
    std::set<unsigned> indices;
    for (auto &f : futures) {
        const auto [thread, index] = f.get();
        EXPECT_LT(index, ex.numThreads());
        const auto [it, fresh] = index_of.emplace(thread, index);
        EXPECT_EQ(it->second, index);
        if (fresh) {
            EXPECT_TRUE(indices.insert(index).second);
        }
    }
    EXPECT_EQ(Executor::workerIndex(), Executor::kNotAWorker);
    unsigned off_pool = 0;
    std::thread outsider([&off_pool] { off_pool = Executor::workerIndex(); });
    outsider.join();
    EXPECT_EQ(off_pool, Executor::kNotAWorker);
}

} // namespace
} // namespace prorace::exec
