#include "gpusim/host_executor.h"

#include <algorithm>

namespace gpm::gpusim {

HostExecutor::HostExecutor(int num_threads)
    : window_(kWindowPerThread *
              static_cast<std::size_t>(std::max(1, num_threads))),
      ready_(std::make_unique<std::atomic<uint32_t>[]>(window_)) {
  const int extra = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<std::size_t>(extra));
  try {
    for (int i = 0; i < extra; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // A thread that failed to start must not leave the others unjoined.
    StopWorkers();
    throw;
  }
}

HostExecutor::~HostExecutor() { StopWorkers(); }

void HostExecutor::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void HostExecutor::OrderedFor(std::size_t n, const Task& produce,
                              const Task& consume) {
  if (n == 0) return;
  // No worker is inside a call between calls, so the cursors and rounds
  // can be reset without the lock; publishing the call under mu_ orders
  // these stores before any worker's first claim.
  next_.store(0, std::memory_order_relaxed);
  consumed_blocks_.store(0, std::memory_order_relaxed);
  for (std::size_t s = 0; s < std::min(n, window_); ++s) {
    ready_[s].store(0, std::memory_order_relaxed);
  }
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      produce_ = &produce;
      n_ = n;
      open_ = true;
      ++generation_;
    }
    work_cv_.notify_all();
  }
  for (std::size_t c = 0; c < n; ++c) {
    std::atomic<uint32_t>& ready = ready_[c % window_];
    const uint32_t want = static_cast<uint32_t>(c / window_ + 1);
    // A slot's rounds only grow, and the window keeps task c + window()
    // from marking c's slot before c is consumed, so `< want` is "not yet
    // produced".
    for (uint32_t seen = ready.load(std::memory_order_acquire); seen < want;
         seen = ready.load(std::memory_order_acquire)) {
      // Task c is not ready: produce the next unclaimed block if its slots
      // are free (always true while c itself is unclaimed), else sleep
      // until c's producer marks it.
      std::size_t begin = next_.load(std::memory_order_relaxed);
      bool claimed = false;
      while (!claimed && begin < n && begin + kBlock <= c + window_) {
        claimed = next_.compare_exchange_weak(begin, begin + kBlock,
                                              std::memory_order_relaxed);
      }
      if (claimed) {
        ProduceBlock(begin, n, produce);
      } else {
        ready.wait(seen, std::memory_order_acquire);
      }
    }
    consume(c);
    if ((c + 1) % kBlock == 0) {
      // Stores a notify pairs with are seq_cst, so the notify's check for
      // waiters cannot be ordered before them.
      consumed_blocks_.store(static_cast<uint32_t>((c + 1) / kBlock),
                             std::memory_order_seq_cst);
      consumed_blocks_.notify_all();
    }
  }
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = false;
    }
    // Workers that joined may still be between their last claim and
    // leaving; `produce` must outlive them.
    for (int a = active_.load(std::memory_order_acquire); a != 0;
         a = active_.load(std::memory_order_acquire)) {
      active_.wait(a, std::memory_order_acquire);
    }
  }
}

void HostExecutor::ProduceBlock(std::size_t begin, std::size_t n,
                                const Task& produce) {
  const std::size_t end = std::min(begin + kBlock, n);
  for (std::size_t t = begin; t < end; ++t) {
    produce(t);
    std::atomic<uint32_t>& ready = ready_[t % window_];
    ready.store(static_cast<uint32_t>(t / window_ + 1),
                std::memory_order_seq_cst);
    ready.notify_one();
  }
}

void HostExecutor::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    const Task* produce;
    std::size_t n;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this, seen] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      if (!open_) continue;
      produce = produce_;
      n = n_;
      active_.fetch_add(1, std::memory_order_relaxed);
    }
    for (std::size_t begin = next_.fetch_add(kBlock, std::memory_order_relaxed);
         begin < n;
         begin = next_.fetch_add(kBlock, std::memory_order_relaxed)) {
      // The block may start only once its slots' previous tasks are
      // consumed: at most window_ tasks run ahead of the consume cursor.
      for (uint32_t b = consumed_blocks_.load(std::memory_order_acquire);
           begin + kBlock > b * kBlock + window_;
           b = consumed_blocks_.load(std::memory_order_acquire)) {
        consumed_blocks_.wait(b, std::memory_order_acquire);
      }
      ProduceBlock(begin, n, *produce);
    }
    if (active_.fetch_sub(1, std::memory_order_release) == 1) {
      active_.notify_all();
    }
  }
}

}  // namespace gpm::gpusim
