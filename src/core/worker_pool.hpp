// Fixed-size worker pool with per-worker FIFO queues (fbm::core).
//
// The one threading primitive in the tree: api::AnalysisPipeline runs its
// flow-hashed shards on it and engine::Engine its per-link sessions. Work is
// pinned, not stolen — a caller that submits everything for one piece of
// state to the same worker gets that state's tasks run in submission order,
// which is what keeps sharded and multi-link output bit-for-bit identical
// to a single-threaded run.
//
//   - Each queue is bounded (kMaxQueued tasks): a producer that outruns a
//     worker blocks in submit(), so memory stays bounded, and every block
//     counts one fbm_backpressure_waits_total{pool} event. Each worker's
//     queue length is exported as fbm_worker_queue_depth{pool,worker}.
//   - The first exception a task throws is captured; that worker stops,
//     and every later submit(), wait_idle() and join() rethrows it on the
//     caller's thread. A producer blocked on the dead worker's full queue
//     wakes up and rethrows instead of waiting forever.
//   - A one-thread pool spawns nothing: submit() runs the task on the
//     caller, and its exceptions propagate straight out of submit().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fbm::obs {
class Counter;
class Gauge;
}  // namespace fbm::obs

namespace fbm::core {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  /// Tasks one worker may hold queued before submit() blocks. Tasks are
  /// packet batches, so a deeper queue only parks more packets in memory
  /// once a producer outruns its worker.
  static constexpr std::size_t kMaxQueued = 32;

  /// `threads` workers (0 is treated as 1); `name` is the metrics' pool
  /// label. Spawns the threads unless `threads` <= 1.
  WorkerPool(std::size_t threads, const std::string& name);
  /// Runs what is still queued, then joins; a captured error is dropped.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Worker count (1 for an inline pool).
  [[nodiscard]] std::size_t size() const {
    return workers_.empty() ? 1 : workers_.size();
  }
  /// True when tasks run on worker threads, false when submit() runs them
  /// on the caller.
  [[nodiscard]] bool threaded() const { return !workers_.empty(); }

  /// Appends `task` to worker `worker`'s queue (worker < size()), blocking
  /// while the queue is full. Throws std::logic_error after join().
  void submit(std::size_t worker, Task task);

  /// Blocks until every task submitted so far has run, then rethrows a
  /// captured error.
  void wait_idle();

  /// Runs every queued task, stops and joins the workers, then rethrows a
  /// captured error. Idempotent.
  void join();

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable work_cv;   ///< worker waits for tasks or stop
    std::condition_variable space_cv;  ///< producer waits for queue space
    std::condition_variable idle_cv;   ///< wait_idle waits for the drain
    std::deque<Task> queue;
    bool busy = false;      ///< a popped task is running
    bool stopping = false;  ///< exit once the queue is empty
    bool exited = false;    ///< the thread has left run() (done or failed)
    obs::Gauge* depth = nullptr;
    std::thread thread;
  };

  void run(Worker& w);
  void stop();
  void rethrow_if_failed();

  std::vector<std::unique_ptr<Worker>> workers_;  ///< empty when inline
  obs::Counter* backpressure_ = nullptr;
  std::atomic<bool> failed_{false};  ///< set once error_ holds an error
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< first captured task error (error_mu_)
  bool joined_ = false;
};

}  // namespace fbm::core
