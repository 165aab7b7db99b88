#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace mqa {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenZeroRequested) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  auto f = pool.Submit([] {});
  f.get();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&touched](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForSmallerThanThreadCount) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, [&sum](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 3);  // 0 + 1 + 2
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // Pool still usable afterwards.
  auto g = pool.Submit([] {});
  g.get();
}

TEST(ThreadPoolTest, PendingTasksExecuteBeforeShutdown) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Post([&counter] { ++counter; });
    }
  }  // destructor drains
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, PostRunsDetachedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Post([&counter] { ++counter; });
  }
  // Post has no completion channel; rendezvous through a submitted fence
  // per worker is not enough (workers race), so spin on the counter.
  while (counter.load() < 50) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, PostSwallowsExceptions) {
  std::atomic<bool> after{false};
  {
    ThreadPool pool(1);
    pool.Post([] { throw std::runtime_error("detached boom"); });
    pool.Post([&after] { after = true; });
  }  // drains; the throwing task must not take down the worker
  EXPECT_TRUE(after.load());
}

}  // namespace
}  // namespace mqa
