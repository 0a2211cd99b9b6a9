#include "core/worker_pool.hpp"

#include <stdexcept>
#include <utility>

#include "obs/catalog.hpp"

namespace fbm::core {

WorkerPool::WorkerPool(std::size_t threads, const std::string& name) {
  if (threads <= 1) return;
  backpressure_ = &obs::backpressure_waits(name);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_[i]->depth = &obs::worker_queue_depth(name, i);
  }
  // Spawn after the vector is fully built so a throwing allocation never
  // leaves a thread pointing at a half-built pool.
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { run(*worker); });
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::run(Worker& w) {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(w.mu);
      w.work_cv.wait(lock, [&] { return !w.queue.empty() || w.stopping; });
      if (w.queue.empty()) break;  // stopping, and everything has run
      task = std::move(w.queue.front());
      w.queue.pop_front();
      w.busy = true;
      if (obs::enabled()) w.depth->set(static_cast<double>(w.queue.size()));
    }
    w.space_cv.notify_one();
    try {
      task();
    } catch (...) {
      {
        std::lock_guard lock(error_mu_);
        if (!error_) error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_release);
      break;
    }
    {
      std::lock_guard lock(w.mu);
      w.busy = false;
    }
    w.idle_cv.notify_all();
  }
  // Set under the mutex so a producer between its predicate check and its
  // wait cannot miss the wake-up.
  {
    std::lock_guard lock(w.mu);
    w.busy = false;
    w.exited = true;
  }
  w.space_cv.notify_all();
  w.idle_cv.notify_all();
}

void WorkerPool::submit(std::size_t worker, Task task) {
  if (joined_) throw std::logic_error("WorkerPool: submit after join");
  rethrow_if_failed();
  if (workers_.empty()) {
    task();
    return;
  }
  Worker& w = *workers_.at(worker);
  {
    std::unique_lock lock(w.mu);
    const auto has_space = [&] {
      return w.queue.size() < kMaxQueued || w.exited;
    };
    if (!has_space() && obs::enabled()) backpressure_->add(1);
    w.space_cv.wait(lock, has_space);
    if (!w.exited) {
      w.queue.push_back(std::move(task));
      if (obs::enabled()) w.depth->set(static_cast<double>(w.queue.size()));
    }
  }
  w.work_cv.notify_one();
  rethrow_if_failed();  // the worker may have died while we waited
}

void WorkerPool::wait_idle() {
  for (auto& w : workers_) {
    std::unique_lock lock(w->mu);
    w->idle_cv.wait(lock, [&] {
      return (w->queue.empty() && !w->busy) || w->exited;
    });
  }
  rethrow_if_failed();
}

void WorkerPool::join() {
  stop();
  rethrow_if_failed();
}

void WorkerPool::stop() {
  if (joined_) return;
  joined_ = true;
  for (auto& w : workers_) {
    {
      std::lock_guard lock(w->mu);
      w->stopping = true;
    }
    w->work_cv.notify_one();
  }
  for (auto& w : workers_) w->thread.join();
}

void WorkerPool::rethrow_if_failed() {
  if (!failed_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(error_mu_);
  std::rethrow_exception(error_);
}

}  // namespace fbm::core
