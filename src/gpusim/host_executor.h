#ifndef GAMMA_GPUSIM_HOST_EXECUTOR_H_
#define GAMMA_GPUSIM_HOST_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gpm::gpusim {

/// Largest `SimParams::host_threads` the command-line drivers accept: each
/// Device with N host threads starts N - 1 workers.
inline constexpr int kMaxHostThreads = 256;

/// A persistent pool of host threads that records a kernel launch's warp
/// tasks while the launching thread replays them (`SimParams::host_threads`).
///
/// `OrderedFor(n, produce, consume)` calls `produce(t)` exactly once for
/// every t in [0, n) on any pool thread, the calling thread included, and
/// `consume(t)` on the calling thread in ascending t. Workers and the caller
/// claim aligned blocks of `kBlock` tasks from one counter (dynamic
/// scheduling: warp tasks are heavily skewed). The caller consumes task c as
/// soon as it has been produced, and produces a block itself only while
/// task c is not ready. No claim runs more than `window()` tasks ahead of
/// the consume cursor, so a caller that keeps task t's state in slot
/// `t % window()` needs only `window()` slots, whatever n is.
///
/// The executor knows nothing about simulation state; determinism is the
/// caller's contract. Device::LaunchKernelAsync has each task record its
/// side effects into a reused log slot and replays the logs in ascending
/// task order on the launching thread, so the schedule this pool picks can
/// never leak into simulated results.
class HostExecutor {
 public:
  /// Tasks per claim. Claiming one task at a time made the benchmark's
  /// sm-tiny-300 passes (many small launches) about 1.3x slower at two
  /// threads than serial on a 4-vCPU x86-64 host; blocks of 16 run level
  /// with serial.
  static constexpr std::size_t kBlock = 16;
  /// Window slots per host thread.
  static constexpr std::size_t kWindowPerThread = 64;
  static_assert(kWindowPerThread % kBlock == 0,
                "block claims must tile the window");

  using Task = std::function<void(std::size_t)>;

  /// `num_threads` is the total parallelism including the calling thread;
  /// the pool spawns num_threads - 1 workers.
  explicit HostExecutor(int num_threads);
  ~HostExecutor();

  HostExecutor(const HostExecutor&) = delete;
  HostExecutor& operator=(const HostExecutor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Tasks that may be produced but not yet consumed:
  /// kWindowPerThread * num_threads().
  std::size_t window() const { return window_; }

  /// Runs `produce(t)` for every t in [0, n) and `consume(t)` on the calling
  /// thread in ascending t; returns once every task is consumed. Guarantees:
  /// produce(t) happens before consume(t), and consume(t) happens before
  /// produce(t + window()) starts. `produce` must be safe to call
  /// concurrently for distinct indices and concurrently with `consume` of
  /// lower indices. Calls from inside an OrderedFor are not supported
  /// (kernels do not nest).
  void OrderedFor(std::size_t n, const Task& produce, const Task& consume);

 private:
  void WorkerLoop();
  /// Produces tasks [begin, min(begin + kBlock, n)) and marks each ready.
  void ProduceBlock(std::size_t begin, std::size_t n, const Task& produce);
  /// Wakes every worker to exit and joins it.
  void StopWorkers();

  const std::size_t window_;
  // ready_[t % window_] holds task t's round, t / window_ + 1, once task t
  // is produced; each call starts from 0. 32-bit, so waits and notifies
  // go straight to the futex (calls stay below 2^32 rounds).
  std::unique_ptr<std::atomic<uint32_t>[]> ready_;
  std::atomic<std::size_t> next_{0};  // claim cursor (block starts)
  // Blocks consumed so far; published once per block, which is all the
  // window needs since claims are block-aligned.
  std::atomic<uint32_t> consumed_blocks_{0};
  std::atomic<int> active_{0};  // workers inside the current call
  std::mutex mu_;
  std::condition_variable work_cv_;
  // The current call, published under mu_. `open_` turns false once every
  // task is consumed, so a worker that wakes late skips the call.
  const Task* produce_ = nullptr;
  std::size_t n_ = 0;
  uint64_t generation_ = 0;
  bool open_ = false;
  bool shutdown_ = false;
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_HOST_EXECUTOR_H_
