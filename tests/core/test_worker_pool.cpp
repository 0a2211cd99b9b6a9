// core::WorkerPool: per-worker FIFO order, bounded queues with counted
// backpressure, wait_idle, first-error capture and rethrow, no deadlock when
// a worker dies under a blocked producer, and the inline one-thread pool.
#include "core/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace fbm {
namespace {

using namespace std::chrono_literals;

/// Spins (with short sleeps) until `done` holds or `limit` passes.
template <typename Pred>
bool eventually(Pred done, std::chrono::milliseconds limit = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Occupies worker `w` until `release` is set, then fills its queue to
/// capacity with no-op tasks: the next submit to `w` has to wait.
void block_and_fill(core::WorkerPool& pool, std::size_t w,
                    std::atomic<bool>& release, bool throw_on_release) {
  std::atomic<bool> started{false};
  pool.submit(w, [&started, &release, throw_on_release] {
    started = true;
    while (!release) std::this_thread::sleep_for(1ms);
    if (throw_on_release) throw std::runtime_error("worker died");
  });
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  for (std::size_t i = 0; i < core::WorkerPool::kMaxQueued; ++i) {
    pool.submit(w, [] {});
  }
}

TEST(WorkerPool, EachWorkerRunsItsTasksInSubmissionOrder) {
  core::WorkerPool pool(3, "test_fifo");
  ASSERT_TRUE(pool.threaded());
  ASSERT_EQ(pool.size(), 3u);
  // Each vector is written only by its own worker.
  std::vector<std::vector<int>> seen(3);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t w = static_cast<std::size_t>(i) % 3;
    pool.submit(w, [&seen, w, i] { seen[w].push_back(i); });
  }
  pool.wait_idle();
  for (std::size_t w = 0; w < 3; ++w) {
    ASSERT_EQ(seen[w].size(), 1000u);
    for (std::size_t k = 0; k < seen[w].size(); ++k) {
      EXPECT_EQ(seen[w][k], static_cast<int>(3 * k + w)) << "worker " << w;
    }
  }
  pool.join();
}

TEST(WorkerPool, SubmitBlocksAtCapacityAndCountsOneBackpressureWait) {
  core::WorkerPool pool(2, "test_backpressure");
  const obs::Counter& waits = obs::backpressure_waits("test_backpressure");
  const std::uint64_t before = waits.value();
  std::atomic<bool> release{false};
  block_and_fill(pool, 0, release, false);

  std::atomic<bool> submitted{false};
  std::thread producer([&] {
    pool.submit(0, [] {});
    submitted = true;
  });
  if (obs::enabled()) {
    // The producer counts the wait just before it blocks.
    EXPECT_TRUE(eventually([&] { return waits.value() == before + 1; }));
  } else {
    std::this_thread::sleep_for(50ms);
  }
  // Worker 1 is unaffected by worker 0's full queue.
  std::atomic<bool> other_ran{false};
  pool.submit(1, [&] { other_ran = true; });
  EXPECT_TRUE(eventually([&] { return other_ran.load(); }));
  EXPECT_FALSE(submitted) << "submit must wait for space in a full queue";

  release = true;
  producer.join();
  EXPECT_TRUE(submitted);
  pool.wait_idle();
  if (obs::enabled()) {
    EXPECT_EQ(waits.value(), before + 1);
  }
  pool.join();
}

TEST(WorkerPool, WaitIdleReturnsOnlyAfterEveryQueuedTaskRan) {
  core::WorkerPool pool(2, "test_idle");
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit(static_cast<std::size_t>(i) % 2, [&ran] {
      std::this_thread::sleep_for(50us);
      ++ran;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 200);
  // The pool stays usable after a wait.
  pool.submit(1, [&ran] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 201);
  pool.join();
}

TEST(WorkerPool, ThrowingTaskSurfacesAtNextSubmitAndAtJoin) {
  core::WorkerPool pool(2, "test_error");
  // The error is captured on the worker; the next submit after that — to
  // any worker — rethrows it on the caller. That can be this very submit,
  // when the worker runs the task before submit() returns.
  std::string caught;
  try {
    pool.submit(0, [] { throw std::runtime_error("boom"); });
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  ASSERT_TRUE(eventually([&] {
    if (!caught.empty()) return true;
    try {
      pool.submit(1, [] {});
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    return !caught.empty();
  }));
  EXPECT_EQ(caught, "boom");
  EXPECT_THROW(pool.submit(1, [] {}), std::runtime_error) << "sticky";
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_THROW(pool.join(), std::runtime_error);
  EXPECT_THROW(pool.join(), std::runtime_error) << "join stays idempotent";
}

TEST(WorkerPool, ProducerBlockedOnADyingWorkerRethrowsInsteadOfHanging) {
  core::WorkerPool pool(2, "test_dying");
  const obs::Counter& waits = obs::backpressure_waits("test_dying");
  const std::uint64_t before = waits.value();
  std::atomic<bool> release{false};
  block_and_fill(pool, 0, release, true);

  auto producer = std::async(std::launch::async, [&] {
    try {
      pool.submit(0, [] {});
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("submit returned normally");
  });
  if (obs::enabled()) {
    EXPECT_TRUE(eventually([&] { return waits.value() == before + 1; }));
  } else {
    std::this_thread::sleep_for(50ms);
  }
  release = true;  // the worker throws and exits with a full queue
  ASSERT_EQ(producer.wait_for(10s), std::future_status::ready)
      << "producer deadlocked on the dead worker's queue";
  EXPECT_EQ(producer.get(), "worker died");
  EXPECT_THROW(pool.join(), std::runtime_error);
}

TEST(WorkerPool, OneThreadPoolRunsTasksOnTheCaller) {
  core::WorkerPool pool(1, "test_inline");
  EXPECT_FALSE(pool.threaded());
  EXPECT_EQ(pool.size(), 1u);
  std::thread::id ran_on;
  pool.submit(0, [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id())
      << "ran before submit returned";
  // A task's exception propagates straight out of submit.
  EXPECT_THROW(pool.submit(0, [] { throw std::runtime_error("inline"); }),
               std::runtime_error);
  pool.wait_idle();
  pool.join();
  EXPECT_THROW(pool.submit(0, [] {}), std::logic_error) << "after join";
}

}  // namespace
}  // namespace fbm
