#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/logging.h"

namespace mqa {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::unique_ptr<Task> task) {
  {
    MutexLock lock(&mu_);
    queue_.push(std::move(task));
  }
  cv_.NotifyOne();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto t = std::make_unique<Task>();
  t->fn = std::move(task);
  std::future<void> fut = t->done.get_future();
  Enqueue(std::move(t));
  return fut;
}

void ThreadPool::Post(std::function<void()> task) {
  auto t = std::make_unique<Task>();
  t->fn = std::move(task);
  t->detached = true;
  Enqueue(std::move(t));
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t num_chunks = std::min(n, num_threads() * 4);
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    futs.push_back(Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  // Wait for EVERY chunk before propagating any exception: the chunks hold
  // `fn` by reference, so unwinding while siblings still run would let them
  // touch a destroyed callable. The first chunk failure (in completion
  // order) is rethrown once all chunks have finished.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Task> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      task->fn();
      if (!task->detached) task->done.set_value();
    } catch (...) {
      if (task->detached) {
        // Post()ed tasks have no future to carry the exception.
        MQA_LOG(Error) << "detached pool task threw; exception dropped";
      } else {
        task->done.set_exception(std::current_exception());
      }
    }
  }
}

}  // namespace mqa
