#include "src/sim/worker_pool.h"

#include <algorithm>

namespace tempo {

WorkerPool::WorkerPool(size_t width) : width_(std::max<size_t>(width, 1)) {
  threads_.reserve(width_ - 1);
  for (size_t w = 1; w < width_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    ++generation_;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void WorkerPool::Run(size_t tasks, const std::function<void(size_t)>& fn) {
  if (width_ == 1 || tasks <= 1) {
    for (size_t task = 0; task < tasks; ++task) {
      fn(task);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_ = tasks;
    fn_ = &fn;
    pending_ = std::min(tasks, width_);
    failure_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  RunShare(0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  if (failure_ != nullptr) {
    std::rethrow_exception(failure_);
  }
}

void WorkerPool::RunShare(size_t w) {
  std::exception_ptr failure;
  try {
    for (size_t task = w; task < tasks_; task += width_) {
      (*fn_)(task);
    }
  } catch (...) {
    failure = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (failure_ == nullptr) {
    failure_ = failure;
  }
  if (--pending_ == 0) {
    done_cv_.notify_one();
  }
}

void WorkerPool::WorkerLoop(size_t w) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (shutdown_) {
        return;
      }
      if (w >= tasks_) {
        continue;  // no share in this batch, so nothing to report
      }
    }
    RunShare(w);
  }
}

}  // namespace tempo
