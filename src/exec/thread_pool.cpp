#include "exec/thread_pool.h"

#include <cstdlib>
#include <string>

#include "common/error.h"
#include "obs/registry.h"

namespace mecsched::exec {

namespace {

std::atomic<std::size_t>& jobs_override() {
  static std::atomic<std::size_t> value{0};
  return value;
}

// Metric handles are function-local statics: resolved on first use, so a
// per-task update costs no registry lookup (the pool always reports into
// the global registry, whose entries outlive every pool).
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge =
      obs::Registry::global().gauge("exec.pool.queue_depth");
  return gauge;
}

}  // namespace

std::size_t ThreadPool::default_jobs() {
  const std::size_t forced = jobs_override().load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  if (const char* env = std::getenv("MECSCHED_JOBS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::set_default_jobs(std::size_t n) {
  jobs_override().store(n, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t n = workers > 0 ? workers : default_jobs();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    const MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const MutexLock lock(wake_mu_);
    MECSCHED_REQUIRE(!stop_, "ThreadPool: submit after shutdown");
  }
  const std::size_t shard =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  {
    const MutexLock lock(shards_[shard]->mu);
    shards_[shard]->queue.push_back(std::move(task));
  }
  const std::size_t depth =
      pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  static obs::Counter& tasks =
      obs::Registry::global().counter("exec.pool.tasks");
  tasks.add();
  queue_depth_gauge().set(static_cast<double>(depth));
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t id, std::function<void()>& task) {
  {
    Shard& own = *shards_[id];
    const MutexLock lock(own.mu);
    if (!own.queue.empty()) {
      task = std::move(own.queue.back());
      own.queue.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    Shard& victim = *shards_[(id + k) % shards_.size()];
    const MutexLock lock(victim.mu);
    if (!victim.queue.empty()) {
      task = std::move(victim.queue.front());
      victim.queue.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      static obs::Counter& steals =
          obs::Registry::global().counter("exec.pool.steals");
      steals.add();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(id, task)) {
      queue_depth_gauge().set(
          static_cast<double>(pending_.load(std::memory_order_relaxed)));
      try {
        task();  // packaged_task captures any exception into its future
      } catch (...) {
        // A raw enqueue()d task (or a pathological functor) must not tear
        // the worker down mid-drain: a dead worker strands the queue and
        // deadlocks every future still waiting on it. Swallow, count, keep
        // draining.
        static obs::Counter& task_exceptions =
            obs::Registry::global().counter("exec.pool.task_exceptions");
        task_exceptions.add();
      }
      continue;
    }
    // Open-coded predicate wait: the analysis sees stop_ read with
    // wake_mu_ held here, where a predicate lambda handed to a
    // condition_variable would be analyzed as a lock-free function.
    const MutexLock lock(wake_mu_);
    while (!stop_ && pending_.load(std::memory_order_relaxed) == 0) {
      wake_cv_.wait(wake_mu_);
    }
    if (stop_ && pending_.load(std::memory_order_relaxed) == 0) return;
  }
}

}  // namespace mecsched::exec
