// Tests for WorkerPool, the fan-out behind the windowed simulator, the
// analysis pipeline, the C10M lanes and the fleet rounds.

#include "src/sim/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tempo {
namespace {

// Threads of this process, or 0 where /proc/self/task is not available.
size_t ProcessThreadCount() {
  std::error_code ec;
  size_t count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++count;
  }
  return ec ? 0 : count;
}

TEST(WorkerPoolTest, EveryTaskRunsExactlyOnceOnItsParticipant) {
  for (size_t width = 1; width <= 8; ++width) {
    WorkerPool pool(width);
    EXPECT_EQ(pool.width(), width);
    for (size_t tasks = 0; tasks <= 3 * width; ++tasks) {
      std::vector<std::atomic<int>> runs(tasks);
      std::vector<std::thread::id> ran_on(tasks);
      pool.Run(tasks, [&](size_t task) {
        runs[task].fetch_add(1, std::memory_order_relaxed);
        ran_on[task] = std::this_thread::get_id();
      });
      for (size_t task = 0; task < tasks; ++task) {
        EXPECT_EQ(runs[task].load(), 1) << "width " << width << " task " << task;
        // Static round-robin: tasks congruent modulo the width share a
        // participant, and participant 0 is the caller.
        if (task >= width) {
          EXPECT_EQ(ran_on[task], ran_on[task % width]);
        }
        if (task % width == 0 || tasks == 1) {
          EXPECT_EQ(ran_on[task], std::this_thread::get_id());
        }
      }
    }
  }
}

TEST(WorkerPoolTest, WidthOneRunsInlineAndStartsNoThread) {
  const size_t before = ProcessThreadCount();
  const std::thread::id caller = std::this_thread::get_id();
  WorkerPool pool(1);
  size_t during = 0;
  std::vector<size_t> order;
  pool.Run(5, [&](size_t task) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    during = ProcessThreadCount();
    order.push_back(task);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(during, before);
  EXPECT_EQ(WorkerPool(0).width(), 1u);
}

TEST(WorkerPoolTest, SingleTaskRunsOnTheCaller) {
  WorkerPool pool(4);
  std::thread::id ran_on;
  pool.Run(1, [&](size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(WorkerPoolTest, BackToBackRunsSeeEachRoundsWrites) {
  // Plain (non-atomic) per-task cells: each round reads what the previous
  // round wrote on whichever participant, which only the pool's
  // happens-before edges make well defined.
  constexpr size_t kWidth = 4;
  constexpr size_t kTasks = 6;
  WorkerPool pool(kWidth);
  std::vector<uint64_t> cells(kTasks, 0);
  uint64_t caller_sum = 0;
  for (uint64_t round = 1; round <= 10'000; ++round) {
    pool.Run(kTasks, [&](size_t task) {
      const size_t from = (task + 1) % kTasks;  // written by another participant
      EXPECT_EQ(cells[from], round - 1);
    });
    pool.Run(kTasks, [&](size_t task) { cells[task] = round; });
    for (const uint64_t cell : cells) {
      caller_sum += cell;
    }
  }
  EXPECT_EQ(caller_sum, kTasks * (10'000ull * 10'001ull / 2));
}

TEST(WorkerPoolTest, DestroyingAPoolThatNeverRanJoinsCleanly) {
  for (size_t width = 1; width <= 8; ++width) {
    WorkerPool pool(width);
    EXPECT_EQ(pool.width(), width);
  }
}

TEST(WorkerPoolTest, TaskExceptionIsRethrownAfterEveryTaskFinished) {
  WorkerPool pool(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.Run(9,
                        [&](size_t task) {
                          finished.fetch_add(1);
                          if (task == 4) {
                            throw std::runtime_error("task 4");
                          }
                        }),
               std::runtime_error);
  // Participant 1 stops its share at the throw (tasks 1, 4); the others
  // finish theirs, and the pool stays usable.
  EXPECT_EQ(finished.load(), 8);
  std::atomic<int> again{0};
  pool.Run(6, [&](size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 6);
}

}  // namespace
}  // namespace tempo
