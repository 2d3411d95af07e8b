// WorkerPool: the one fan-out behind every parallel path in tempo (the
// windowed simulator, the analysis pipeline, the C10M lanes and the fleet
// rounds). WorkerPool(width) keeps width - 1 persistent threads, and the
// thread calling Run is participant 0. Run(tasks, fn) gives participant w
// the tasks w, w + width, ... in order, so a task index always lands on
// the same participant, and returns once every task has run: every write
// a task made happens-before that return (a mutex/condvar hand-off).
// Width 1, or at most one task, runs inline on the caller. An exception a
// task throws is rethrown from Run once every participant has finished.
// One caller drives a pool at a time.

#ifndef TEMPO_SRC_SIM_WORKER_POOL_H_
#define TEMPO_SRC_SIM_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tempo {

class WorkerPool {
 public:
  // `width` participants, counting the caller; 0 is treated as 1.
  explicit WorkerPool(size_t width);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  size_t width() const { return width_; }

  // Runs fn(i) for every i in [0, tasks); returns when all are done.
  void Run(size_t tasks, const std::function<void(size_t)>& fn);

 private:
  // Runs participant `w`'s share of the current batch, then reports it.
  void RunShare(size_t w);
  void WorkerLoop(size_t w);

  const size_t width_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // The current batch; written under mu_ only while no share is running.
  uint64_t generation_ = 0;
  size_t tasks_ = 0;
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t pending_ = 0;  // participants whose share is not yet reported
  std::exception_ptr failure_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;  // last: started after the state above
};

}  // namespace tempo

#endif  // TEMPO_SRC_SIM_WORKER_POOL_H_
