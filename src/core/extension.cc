#include "core/extension.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "core/intersection.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

using graph::VertexId;

// Cycles charged per candidate checked against a query prefix (edge join)
// or against a level's restrictions.
constexpr double kPostFilterCycles = 4.0;

const char* KindName(TableKind kind) {
  return kind == TableKind::kVertex ? "vertex" : "edge";
}

// Rows [lo, lo + n) of a table, row-major: the functional truth a warp
// task's kernel computes over. The simulated cost of reading the columns
// is charged separately by ChargeTableRead.
struct RowBlock {
  int len = 0;
  std::size_t lo = 0;
  std::vector<Unit> data;
  // Each row's ancestor in the column being read (ReadRows' cursor).
  std::vector<RowIndex> anc;

  // Row `r` of the table, lo <= r < lo + n.
  std::span<const Unit> row(std::size_t r) const {
    return {data.data() + (r - lo) * len, static_cast<std::size_t>(len)};
  }
};

// Materializes rows [lo, hi) of `table` into `block`, reusing its storage.
// Walks column by column: each column computes every row's ancestor in one
// pass instead of chasing parents per row.
void ReadRows(const EmbeddingTable& table, std::size_t lo, std::size_t hi,
              RowBlock* block) {
  const int len = table.length();
  const std::size_t n = hi - lo;
  block->len = len;
  block->lo = lo;
  block->data.resize(n * len);
  block->anc.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    block->anc[i] = static_cast<RowIndex>(lo + i);
  }
  for (int j = len - 1; j >= 0; --j) {
    const auto& units = table.column(j).units.host_data();
    const auto& parents = table.column(j).parents.host_data();
    for (std::size_t i = 0; i < n; ++i) {
      block->data[i * len + j] = units[block->anc[i]];
      block->anc[i] = parents[block->anc[i]];
    }
  }
}

// Host-side buffers of the extension kernels, one set per host thread like
// the intersection's scratch bitmap: a thread runs one warp task at a time,
// so a task's rows and intersection lists reuse the storage of the tasks,
// launches and runs before it on that thread.
struct TaskScratch {
  RowBlock rows;
  std::vector<VertexId> merged, scratch, cands;
};

TaskScratch& ThreadScratch() {
  thread_local TaskScratch scratch;
  return scratch;
}

// Calls `fn(row)` on every row of `table` in row-major order, reading
// blocks of rows into the calling thread's block (the planner's frontier).
template <typename Fn>
void ForEachRow(const EmbeddingTable& table, Fn&& fn) {
  constexpr std::size_t kBlockRows = 4096;
  RowBlock& block = ThreadScratch().rows;
  const std::size_t rows = table.num_embeddings();
  for (std::size_t lo = 0; lo < rows; lo += kBlockRows) {
    const std::size_t hi = std::min(rows, lo + kBlockRows);
    ReadRows(table, lo, hi, &block);
    for (std::size_t r = lo; r < hi; ++r) fn(block.row(r));
  }
}

// Charges the unified-memory reads a warp performs to reconstruct rows
// [lo, hi) of the table. Ancestor rows of a contiguous row range are
// themselves contiguous (children are appended in parent order), so each
// column contributes one span.
void ChargeTableRead(gpusim::WarpCtx& warp, const EmbeddingTable& table,
                     std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  RowIndex first = static_cast<RowIndex>(lo);
  RowIndex last = static_cast<RowIndex>(hi - 1);
  for (int j = table.length() - 1; j >= 0; --j) {
    const auto& col = table.column(j);
    std::size_t span = (static_cast<std::size_t>(last) - first + 1);
    table.ChargeColumnRead(warp, j, first, span);
    first = col.parents.host_data()[first];
    last = col.parents.host_data()[last];
    if (first == kNoParent) break;
  }
}

// Generator interface: fills `out` with the accepted candidates of rows
// [lo, hi) while charging `warp`. Returns the raw candidate count (before
// filtering) for the stats.
using RowRangeGenerator = std::function<std::size_t(
    gpusim::WarpCtx& warp, std::size_t lo, std::size_t hi,
    std::vector<ExtensionEmit>* out)>;

// A kernel-granularity unit of work: either a plain row range or one
// pre-merge group.
struct WarpTask {
  std::size_t lo;
  std::size_t hi;
};

// Shared chunked driver implementing the three write strategies. The
// generator is strategy-agnostic; this function arranges passes, buffers,
// pool traffic and flushes, and appends the final column.
Result<ExtensionStats> RunExtension(
    EmbeddingTable* table, const ExtensionOptions& options, bool count_only,
    const std::vector<WarpTask>& tasks, const RowRangeGenerator& generate,
    std::size_t worst_case_per_row) {
  gpusim::Device* device = table->device();
  ExtensionStats stats;
  stats.input_rows = table->num_embeddings();

  // Double-buffered pipeline (num_streams >= 2): extension kernels for
  // chunk i+1 run on a compute stream while chunk i's result flush and
  // host-side append drain on a copy stream; events guard reuse of each
  // buffer half. Count-only extensions move no results, so there is
  // nothing to overlap — but their kernels still run on the compute
  // stream, so per-stream trace/metrics attribution is consistent across
  // every write strategy.
  const bool use_worker_streams = options.num_streams >= 2;
  const bool async = use_worker_streams && !count_only;
  const gpusim::StreamId compute_stream =
      use_worker_streams ? device->WorkerStream(0) : gpusim::kDefaultStream;
  const gpusim::StreamId copy_stream =
      async ? device->WorkerStream(1) : gpusim::kDefaultStream;
  if (use_worker_streams) {
    // The extension logically follows everything already submitted.
    device->FastForwardStream(compute_stream);
    if (async) device->FastForwardStream(copy_stream);
  }
  const bool double_buffer_pool =
      async && options.write_strategy == WriteStrategy::kDynamicAlloc;
  const std::size_t writable_pool_bytes =
      double_buffer_pool ? options.pool_bytes / 2 : options.pool_bytes;

  MemoryPool pool(
      device,
      {.pool_bytes = options.pool_bytes,
       .block_bytes = std::min(options.block_bytes, writable_pool_bytes),
       .double_buffered = double_buffer_pool});
  const std::size_t pool_entries = options.pool_bytes / kEntryBytes;
  if (options.write_strategy == WriteStrategy::kPreAlloc &&
      worst_case_per_row > pool_entries) {
    return Status::DeviceOutOfMemory(
        "prealloc write strategy cannot fit one row's worst case (" +
        std::to_string(worst_case_per_row) + " results) in the device "
        "buffer");
  }
  if (options.write_strategy != WriteStrategy::kNaiveTwoPass) {
    // The count-then-write strategy needs no staging pool — its second
    // pass writes at exact offsets ("no extra space, double compute");
    // the other strategies reserve their device write buffer up front.
    Status reserve = pool.Reserve();
    if (!reserve.ok()) return reserve;
  }

  // The results of each chunk, in arrays of their own: the column this
  // extension appends to the table is built from them at its exact size
  // once the last chunk is done.
  struct ChunkColumn {
    std::vector<Unit> units;
    std::vector<RowIndex> parents;
  };
  std::vector<ChunkColumn> chunk_columns;
  // Each task's results, in buffers reused across tasks and launches: task
  // i of a launch fills slot i % task_window(), and the slot is empty again
  // before task i + task_window() starts.
  std::vector<std::vector<ExtensionEmit>> slots(device->task_window());
  auto slot = [&slots](std::size_t i) -> std::vector<ExtensionEmit>& {
    return slots[i % slots.size()];
  };
  // Appends one task's emits to the current chunk's arrays and empties its
  // slot, keeping the capacity. Deferred, so the appends land in task order
  // (the serial schedule) at any thread count, during the launch's replay
  // rather than after it.
  auto append = [&chunk_columns](gpusim::WarpCtx& w,
                                 std::vector<ExtensionEmit>* emits) {
    w.Defer([&chunk_columns, emits](gpusim::WarpCtx&) {
      ChunkColumn& chunk = chunk_columns.back();
      for (const ExtensionEmit& e : *emits) {
        chunk.units.push_back(e.unit);
        chunk.parents.push_back(e.parent);
      }
      emits->clear();
    });
  };

  // Completion events for each buffer half's flush: chunk i must not start
  // writing into half (i % 2) before chunk i-2's flush of that half has
  // drained on the copy stream.
  gpusim::Event flush_done[2];

  // Group tasks into kernels of ~chunk_rows input rows.
  std::size_t t = 0;
  while (t < tasks.size()) {
    std::size_t chunk_begin = t;
    std::size_t rows_in_chunk = 0;
    std::size_t limit_rows = options.chunk_rows;
    if (options.write_strategy == WriteStrategy::kPreAlloc) {
      // Worst-case preallocation: shrink the kernel until rows x d_max
      // results fit in the buffer (GSI's "prealloc-combine").
      limit_rows = std::min(
          limit_rows, std::max<std::size_t>(
                          1, pool_entries / std::max<std::size_t>(
                                                1, worst_case_per_row)));
    }
    while (t < tasks.size() && rows_in_chunk < limit_rows) {
      rows_in_chunk += tasks[t].hi - tasks[t].lo;
      ++t;
    }
    std::size_t chunk_end = t;
    std::size_t chunk_tasks = chunk_end - chunk_begin;
    const std::size_t half = stats.chunks % 2;
    ++stats.chunks;
    if (async && flush_done[half].valid() &&
        !options.unsafe_skip_buffer_guard) {
      // The buffer half this chunk writes into is still flushing; the
      // compute stream stalls until the copy stream releases it.
      device->WaitEvent(compute_stream, flush_done[half]);
    }

    std::size_t chunk_results = 0;

    if (count_only) {
      // Tally survivors without writing anything: single generation pass,
      // results reduced warp-locally and atomically added to one counter.
      // Each task writes only its own tally slot (kernel lambdas may run
      // concurrently); the reduction happens after the launch, ascending.
      std::vector<std::size_t> task_candidates(chunk_tasks, 0);
      std::vector<std::size_t> task_results(chunk_tasks, 0);
      stats.kernel_cycles += device->LaunchKernelAsync(
          compute_stream, chunk_tasks,
          [&](gpusim::WarpCtx& w, std::size_t i) {
            const WarpTask& task = tasks[chunk_begin + i];
            std::vector<ExtensionEmit>& local = slot(i);
            task_candidates[i] = generate(w, task.lo, task.hi, &local);
            w.ChargeWarpScan();
            w.ChargeAtomic();
            task_results[i] = local.size();
            local.clear();
          },
          "extension-count-only");
      for (std::size_t i = 0; i < chunk_tasks; ++i) {
        stats.candidates += task_candidates[i];
        stats.results += task_results[i];
      }
      continue;
    }
    const std::vector<Unit>& chunk_units =
        chunk_columns.emplace_back().units;
    switch (options.write_strategy) {
      case WriteStrategy::kDynamicAlloc: {
        // One cursor per resident warp slot: a warp keeps filling its
        // current block across the group tasks it processes ("the results
        // are collected in the same memory block").
        std::vector<MemoryPool::WarpCursor> cursors(
            std::max(1, device->params().num_warp_slots));
        // Task-local accumulation: every task owns its tally slot and emit
        // slot; the pool write and the column append defer their
        // shared-state updates when recording. The tallies are reduced
        // after the launch.
        std::vector<std::size_t> task_candidates(chunk_tasks, 0);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<ExtensionEmit>& local = slot(i);
              task_candidates[i] = generate(w, task.lo, task.hi, &local);
              pool.WarpWrite(w, &cursors[i % cursors.size()], local.size(),
                             kEntryBytes);
              append(w, &local);
            },
            "extension-dynamic");
        for (std::size_t i = 0; i < chunk_tasks; ++i) {
          stats.candidates += task_candidates[i];
        }
        for (auto& cursor : cursors) pool.EndWarpTask(&cursor);
        chunk_results = chunk_units.size();
        if (async) {
          // The flush reads what the kernel wrote: order it after the
          // compute stream's position, then drain on the copy stream.
          device->WaitEvent(copy_stream, device->RecordEvent(compute_stream));
        }
        pool.FlushToHost(copy_stream);
        break;
      }
      case WriteStrategy::kNaiveTwoPass: {
        // Pass 1: count only (full generation cost, results discarded).
        std::vector<std::size_t> counts(chunk_tasks, 0);
        std::vector<std::size_t> task_candidates(chunk_tasks, 0);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<ExtensionEmit>& local = slot(i);
              task_candidates[i] = generate(w, task.lo, task.hi, &local);
              counts[i] = local.size();
              local.clear();
              w.DeviceWrite(sizeof(uint32_t));  // per-task count
            },
            "extension-count");
        for (std::size_t i = 0; i < chunk_tasks; ++i) {
          stats.candidates += task_candidates[i];
        }
        // Scan of per-task counts to assign exact write offsets.
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, 1, [&](gpusim::WarpCtx& w, std::size_t) {
              w.DeviceRead(chunk_tasks * sizeof(uint32_t));
              w.ChargeSimtWork(chunk_tasks);
              w.ChargeWarpScan();
              w.DeviceWrite(chunk_tasks * sizeof(uint32_t));
            },
            "extension-scan");
        // Pass 2: regenerate and write at exact offsets.
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<ExtensionEmit>& local = slot(i);
              generate(w, task.lo, task.hi, &local);
              w.DeviceWrite(local.size() * kEntryBytes);
              append(w, &local);
            },
            "extension-write");
        chunk_results = chunk_units.size();
        if (async) {
          device->WaitEvent(copy_stream, device->RecordEvent(compute_stream));
        }
        device->CopyDeviceToHostAsync(copy_stream,
                                      chunk_results * kEntryBytes);
        break;
      }
      case WriteStrategy::kPreAlloc: {
        std::vector<std::size_t> task_candidates(chunk_tasks, 0);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<ExtensionEmit>& local = slot(i);
              task_candidates[i] = generate(w, task.lo, task.hi, &local);
              // Scattered writes into the worst-case slots.
              w.DeviceWrite(local.size() * kEntryBytes);
              w.DeviceWrite((task.hi - task.lo) * sizeof(uint32_t));
              append(w, &local);
            },
            "extension-prealloc");
        for (std::size_t i = 0; i < chunk_tasks; ++i) {
          stats.candidates += task_candidates[i];
        }
        chunk_results = chunk_units.size();
        // Combine step: compact the sparse buffer. Bandwidth is paid over
        // the whole preallocated span — that is the cost of overestimation.
        std::size_t alloc_entries =
            std::min(pool_entries, rows_in_chunk * worst_case_per_row);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, std::max<std::size_t>(1, chunk_tasks),
            [&](gpusim::WarpCtx& w, std::size_t i) {
              std::size_t share = alloc_entries / std::max<std::size_t>(
                                                      1, chunk_tasks);
              w.DeviceRead(share * kEntryBytes);
              w.ChargeWarpScan();
              w.DeviceWrite(chunk_results * kEntryBytes /
                            std::max<std::size_t>(1, chunk_tasks));
              (void)i;
            },
            "extension-combine");
        if (async) {
          device->WaitEvent(copy_stream, device->RecordEvent(compute_stream));
        }
        device->CopyDeviceToHostAsync(copy_stream,
                                      chunk_results * kEntryBytes);
        break;
      }
    }

    stats.results += chunk_results;
    // Host-side append of the flushed results into the new column follows
    // the flush — it lives on the copy stream, off the compute stream's
    // critical path.
    device->ChargeHostWork(static_cast<double>(chunk_results), copy_stream);
    if (async) flush_done[half] = device->RecordEvent(copy_stream);
  }

  if (use_worker_streams) {
    // The results are complete only once every pipeline leg drains (for
    // count-only, just the compute stream).
    device->Synchronize();
  }

  if (!count_only) {
    // One array at a time, each chunk freed once copied: the chunks of
    // one array and the copy of the other are never live together.
    std::vector<Unit> units;
    units.reserve(stats.results);
    for (ChunkColumn& chunk : chunk_columns) {
      units.insert(units.end(), chunk.units.begin(), chunk.units.end());
      std::vector<Unit>().swap(chunk.units);
    }
    std::vector<RowIndex> parents;
    parents.reserve(stats.results);
    for (ChunkColumn& chunk : chunk_columns) {
      parents.insert(parents.end(), chunk.parents.begin(),
                     chunk.parents.end());
      std::vector<RowIndex>().swap(chunk.parents);
    }
    Status appended =
        table->AppendColumn(std::move(units), std::move(parents));
    if (!appended.ok()) return appended;
  }
  return stats;
}

// Splits [0, rows) into per-warp tasks; with `group_by_parent` the split
// follows runs of equal parent in the last column (Optimization 2's
// groups), otherwise fixed-size blocks.
std::vector<WarpTask> BuildTasks(const EmbeddingTable& table,
                                 bool group_by_parent,
                                 std::size_t rows_per_warp) {
  std::vector<WarpTask> tasks;
  const std::size_t rows = table.num_embeddings();
  if (rows == 0) return tasks;
  if (!group_by_parent) {
    for (std::size_t lo = 0; lo < rows; lo += rows_per_warp) {
      tasks.push_back({lo, std::min(rows, lo + rows_per_warp)});
    }
    return tasks;
  }
  const auto& parents = table.last_column().parents.host_data();
  // Oversized groups (hub parents) are split so that no single warp task
  // serializes thousands of rows; each shard still hoists its own prefix
  // intersection.
  const std::size_t max_group_rows = 4 * rows_per_warp;
  std::size_t lo = 0;
  for (std::size_t r = 1; r <= rows; ++r) {
    if (r == rows || parents[r] != parents[lo] ||
        r - lo >= max_group_rows) {
      tasks.push_back({lo, r});
      lo = r;
    }
  }
  return tasks;
}

}  // namespace

const char* WriteStrategyName(WriteStrategy strategy) {
  switch (strategy) {
    case WriteStrategy::kNaiveTwoPass:
      return "naive-two-pass";
    case WriteStrategy::kPreAlloc:
      return "prealloc";
    case WriteStrategy::kDynamicAlloc:
      return "dynamic-alloc";
  }
  return "?";
}

ExtensionOptions CompiledLevel::Resolve(
    const ExtensionOptions& engine) const {
  ExtensionOptions options = engine;
  if (write_strategy) options.write_strategy = *write_strategy;
  if (pre_merge) options.pre_merge = *pre_merge;
  return options;
}

void FilterVertexCandidates(gpusim::WarpCtx& warp, GraphAccessor* accessor,
                            const CompiledLevel& level, RowIndex row,
                            std::span<const Unit> emb,
                            std::span<const VertexId> cands,
                            std::vector<ExtensionEmit>* out) {
  const int len = static_cast<int>(emb.size());
  if (level.enforce_injective || level.require_ascending) {
    warp.ChargeSimtWork(cands.size() * len, 0.5);
  }
  const bool labeled = level.candidate_label != graph::Pattern::kAnyLabel;
  if (labeled) {
    // Warp-coalesced label fetch for the whole candidate list.
    accessor->ChargeLabelsBatch(warp, cands);
  }
  std::span<const VertexId> kept = cands;
  if (level.require_ascending) {
    // The sorted candidates above the row's largest unit: each exceeds
    // every unit of the row, so it is also distinct from all of them.
    const Unit top = *std::max_element(emb.begin(), emb.end());
    kept = cands.subspan(static_cast<std::size_t>(
        std::upper_bound(cands.begin(), cands.end(), top) - cands.begin()));
    if (!labeled && level.restrictions.empty()) {
      for (VertexId cand : kept) out->push_back({cand, row});
      return;
    }
  }
  const bool injective = level.enforce_injective && !level.require_ascending;
  const graph::Graph& g = accessor->graph();
  for (VertexId cand : kept) {
    if (injective && std::find(emb.begin(), emb.end(), cand) != emb.end()) {
      continue;
    }
    if (labeled && g.label(cand) != level.candidate_label) {
      continue;  // label traffic charged batched above
    }
    if (!level.restrictions.empty()) {
      warp.ChargeCompute(kPostFilterCycles);
      bool ordered = true;
      for (const SymmetryRestriction& r : level.restrictions) {
        if (r.larger_pos == len ? !(emb[r.smaller_pos] < cand)
                                : !(cand < emb[r.larger_pos])) {
          ordered = false;
          break;
        }
      }
      if (!ordered) continue;
    }
    out->push_back({cand, row});
  }
}

Result<ExtensionStats> VertexExtend(EmbeddingTable* table,
                                    GraphAccessor* accessor,
                                    const CompiledLevel& level,
                                    const ExtensionOptions& engine_options) {
  GAMMA_CHECK(table->kind() == TableKind::kVertex)
      << "VertexExtend on " << KindName(table->kind()) << " table";
  GAMMA_CHECK(table->length() > 0) << "extension of uninitialized table";
  const int len = table->length();
  for (int p : level.intersect_positions) {
    GAMMA_CHECK(p >= 0 && p < len) << "intersect position out of range";
  }
  // The candidate sits at position len; every restriction pairs it with a
  // matched column.
  for (const SymmetryRestriction& r : level.restrictions) {
    GAMMA_CHECK((r.larger_pos == len && r.smaller_pos >= 0 &&
                 r.smaller_pos < len) ||
                (r.smaller_pos == len && r.larger_pos >= 0 &&
                 r.larger_pos < len))
        << "restriction not anchored at the candidate position";
  }
  const ExtensionOptions options = level.Resolve(engine_options);

  const graph::Graph& g = accessor->graph();

  // Positions actually used to produce candidates.
  std::vector<int> positions = level.intersect_positions;
  const bool union_mode = positions.empty();
  if (union_mode) {
    positions.resize(len);
    for (int j = 0; j < len; ++j) positions[j] = j;
  }

  // Frontier for the self-adaptive planner: every adjacency list the
  // kernels will touch, with multiplicity, counted in row-major order.
  {
    std::unordered_map<VertexId, uint64_t> times;
    ForEachRow(*table, [&](std::span<const Unit> row) {
      for (int p : positions) ++times[row[p]];
    });
    std::vector<std::pair<VertexId, uint64_t>> frontier(times.begin(),
                                                        times.end());
    accessor->PlanExtension(frontier);
  }

  // Prefix positions are shared within a pre-merge group.
  std::vector<int> prefix_positions;
  bool last_included = false;
  for (int p : positions) {
    if (p == len - 1) {
      last_included = true;
    } else {
      prefix_positions.push_back(p);
    }
  }
  const bool grouped = options.pre_merge && !union_mode &&
                       !prefix_positions.empty() && len >= 2;

  std::vector<WarpTask> tasks =
      BuildTasks(*table, grouped, options.rows_per_warp);

  ExtensionStats group_stats;
  group_stats.groups = grouped ? tasks.size() : 0;

  RowRangeGenerator generate = [&](gpusim::WarpCtx& w, std::size_t lo,
                                   std::size_t hi,
                                   std::vector<ExtensionEmit>* out)
      -> std::size_t {
    std::size_t raw_candidates = 0;
    ChargeTableRead(w, *table, lo, hi);
    TaskScratch& s = ThreadScratch();
    ReadRows(*table, lo, hi, &s.rows);
    if (grouped) {
      // One warp per group: hoist the prefix intersection L_m. A single
      // prefix list is used as read, with its bitmap if it has one.
      std::span<const Unit> prefix = s.rows.row(lo);
      graph::VertexSet lm;
      bool first = true;
      for (int p : prefix_positions) {
        const graph::VertexSet adj = accessor->ReadAdjacency(w, prefix[p]);
        if (first) {
          lm = adj;
          first = false;
          continue;
        }
        IntersectAdaptive(w, lm, adj, &s.scratch);
        s.merged.swap(s.scratch);
        lm = s.merged;
      }
      // A multi-row group without a hub's bitmap of L_m marks L_m in the
      // host thread's bitmap once, so each row's list can probe it.
      std::optional<MarkedSet> marked;
      if (last_included && hi - lo >= 2 && lm.bits == nullptr) {
        marked.emplace(lm.ids, g.num_vertices());
        lm = marked->set();
      }
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = s.rows.row(r);
        std::span<const VertexId> row_cands = lm.ids;
        if (last_included) {
          IntersectAdaptive(w, lm, accessor->ReadAdjacency(w, emb[len - 1]),
                            &s.cands);
          row_cands = s.cands;
        } else {
          w.ChargeSimtWork(lm.ids.size(), 0.25);
        }
        raw_candidates += row_cands.size();
        FilterVertexCandidates(w, accessor, level, static_cast<RowIndex>(r),
                               emb, row_cands, out);
      }
    } else {
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = s.rows.row(r);
        graph::VertexSet set;
        bool first = true;
        for (int p : positions) {
          const graph::VertexSet adj = accessor->ReadAdjacency(w, emb[p]);
          if (first) {
            set = adj;
            first = false;
            continue;
          }
          if (union_mode) {
            UnionSorted(w, set.ids, adj.ids, &s.scratch);
          } else {
            IntersectAdaptive(w, set, adj, &s.scratch);
          }
          s.merged.swap(s.scratch);
          set = s.merged;
        }
        raw_candidates += set.ids.size();
        FilterVertexCandidates(w, accessor, level, static_cast<RowIndex>(r),
                               emb, set.ids, out);
      }
    }
    return raw_candidates;
  };

  auto result = RunExtension(table, options, level.count_only, tasks,
                             generate, g.max_degree());
  if (result.ok()) {
    result.value().groups = group_stats.groups;
  }
  return result;
}

bool IsCanonicalEdgeExtension(const graph::Graph& g,
                              std::span<const Unit> edges, Unit e) {
  // Canonical sequence of a connected edge set: start at the smallest edge
  // id; repeatedly append the smallest id adjacent (sharing a vertex) to
  // the prefix. The extension is canonical iff that sequence equals
  // (edges..., e).
  const std::size_t k = edges.size() + 1;
  std::vector<Unit> want(edges.begin(), edges.end());
  want.push_back(e);

  std::vector<Unit> pool = want;
  std::sort(pool.begin(), pool.end());
  if (pool.front() != want.front()) return false;

  auto touches = [&g](Unit edge_id, const std::vector<VertexId>& verts) {
    const graph::Edge& ed = g.edge_list()[edge_id];
    for (VertexId v : verts) {
      if (ed.u == v || ed.v == v) return true;
    }
    return false;
  };

  std::vector<VertexId> verts;
  std::vector<bool> used(k, false);
  // Seed with the smallest edge (must be want[0]).
  used[std::find(pool.begin(), pool.end(), want[0]) - pool.begin()] = true;
  verts.push_back(g.edge_list()[want[0]].u);
  verts.push_back(g.edge_list()[want[0]].v);

  for (std::size_t step = 1; step < k; ++step) {
    // Smallest unused edge adjacent to the prefix.
    Unit pick = graph::Graph::kInvalidEdge;
    std::size_t pick_idx = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (used[i]) continue;
      if (touches(pool[i], verts)) {
        pick = pool[i];
        pick_idx = i;
        break;  // pool is sorted, the first hit is the smallest.
      }
    }
    if (pick == graph::Graph::kInvalidEdge) return false;  // disconnected
    if (pick != want[step]) return false;
    used[pick_idx] = true;
    const graph::Edge& ed = g.edge_list()[pick];
    if (std::find(verts.begin(), verts.end(), ed.u) == verts.end())
      verts.push_back(ed.u);
    if (std::find(verts.begin(), verts.end(), ed.v) == verts.end())
      verts.push_back(ed.v);
  }
  return true;
}

void CanonicalRowContext::Reset(std::span<const Unit> row) {
  len_ = static_cast<int>(row.size());
  canonical_ = !row.empty() &&
               IsCanonicalEdgeExtension(*g_, row.first(row.size() - 1),
                                        row.back());
  if (!canonical_) return;
  first_ = row[0];
  first_seen_.clear();
  for (int t = 0; t < len_; ++t) {
    const graph::Edge& ed = g_->edge_list()[row[t]];
    for (VertexId v : {ed.u, ed.v}) {
      if (FirstSeen(v) > len_) first_seen_.emplace_back(v, t + 1);
    }
  }
  suffix_max_.assign(len_ + 1, 0);
  for (int s = len_ - 1; s >= 1; --s) {
    suffix_max_[s] = std::max(row[s], suffix_max_[s + 1]);
  }
}

int CanonicalRowContext::FirstSeen(VertexId v) const {
  for (const auto& [u, s] : first_seen_) {
    if (u == v) return s;
  }
  return len_ + 1;
}

bool CanonicalRowContext::Accepts(Unit c) const {
  if (!canonical_ || c <= first_) return false;
  const graph::Edge& ed = g_->edge_list()[c];
  const int s = std::min(FirstSeen(ed.u), FirstSeen(ed.v));
  if (s > len_) return false;  // touches no row vertex
  return c > suffix_max_[s];
}

Result<ExtensionStats> EdgeExtend(EmbeddingTable* table,
                                  GraphAccessor* accessor,
                                  const EdgeExtensionSpec& spec,
                                  const ExtensionOptions& options) {
  GAMMA_CHECK(table->kind() == TableKind::kEdge)
      << "EdgeExtend on " << KindName(table->kind()) << " table";
  GAMMA_CHECK(table->length() > 0) << "extension of uninitialized table";
  const graph::Graph& g = accessor->graph();
  GAMMA_CHECK(!g.edge_list().empty()) << "edge index required";
  const int len = table->length();

  // Vertex set of each embedding (host-side truth; charged reads happen in
  // the kernel via ReadEdgeEndpoints).
  auto verts_of = [&g](std::span<const Unit> edges,
                       std::vector<VertexId>* out) {
    out->clear();
    for (Unit e : edges) {
      const graph::Edge& ed = g.edge_list()[e];
      if (std::find(out->begin(), out->end(), ed.u) == out->end())
        out->push_back(ed.u);
      if (std::find(out->begin(), out->end(), ed.v) == out->end())
        out->push_back(ed.v);
    }
  };

  // Frontier: adjacency of every embedding vertex, in row-major order.
  {
    std::unordered_map<VertexId, uint64_t> times;
    std::vector<VertexId> verts;
    ForEachRow(*table, [&](std::span<const Unit> row) {
      verts_of(row, &verts);
      for (VertexId v : verts) ++times[v];
    });
    std::vector<std::pair<VertexId, uint64_t>> frontier(times.begin(),
                                                        times.end());
    accessor->PlanExtension(frontier);
  }

  const bool grouped = options.pre_merge && len >= 2;
  std::vector<WarpTask> tasks =
      BuildTasks(*table, grouped, options.rows_per_warp);

  // `canon` and `joined` are the calling task's own; both are reset once
  // per row. `joined` holds the row with a trailing slot for the candidate
  // a query-prefix check tries.
  auto filter_and_emit = [&](gpusim::WarpCtx& w, std::size_t row,
                             std::span<const Unit> emb,
                             const std::vector<graph::EdgeId>& cands,
                             CanonicalRowContext& canon,
                             std::vector<graph::EdgeId>& joined,
                             std::vector<ExtensionEmit>* out) {
    if (spec.canonical_only) canon.Reset(emb);
    if (spec.query != nullptr) {
      joined.assign(emb.begin(), emb.end());
      joined.push_back(0);
    }
    for (graph::EdgeId cand : cands) {
      bool fresh = true;
      for (Unit u : emb) {
        if (u == cand) {
          fresh = false;
          break;
        }
      }
      if (!fresh) continue;
      if (spec.canonical_only) {
        w.ChargeCompute(static_cast<double>(len * len));
        if (!canon.Accepts(cand)) continue;
      }
      if (spec.query != nullptr) {
        w.ChargeCompute(kPostFilterCycles);
        joined.back() = cand;
        if (!graph::MatchesQueryPrefix(g, joined, *spec.query,
                                       spec.query_edges)) {
          continue;
        }
      }
      out->push_back({cand, static_cast<RowIndex>(row)});
    }
  };

  // Gathers candidate edge ids adjacent to `verts` into `out` (sorted,
  // deduplicated), charging the adjacency reads.
  auto gather = [&](gpusim::WarpCtx& w, const std::vector<VertexId>& verts,
                    std::vector<graph::EdgeId>* out) {
    out->clear();
    for (VertexId v : verts) {
      auto [nbrs, eids] = accessor->ReadAdjacencyWithEids(w, v);
      (void)nbrs;
      out->insert(out->end(), eids.begin(), eids.end());
    }
    w.ChargeSimtWork(out->size() ? out->size() *
                                       static_cast<std::size_t>(std::log2(
                                           out->size() + 1))
                                 : 0,
                     0.25);
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  };

  RowRangeGenerator generate = [&](gpusim::WarpCtx& w, std::size_t lo,
                                   std::size_t hi,
                                   std::vector<ExtensionEmit>* out)
      -> std::size_t {
    std::size_t raw_candidates = 0;
    ChargeTableRead(w, *table, lo, hi);
    RowBlock& block = ThreadScratch().rows;
    ReadRows(*table, lo, hi, &block);
    std::vector<VertexId> verts, last_verts;
    std::vector<graph::EdgeId> base, extra, cands, joined;
    CanonicalRowContext canon(g);
    if (grouped) {
      // Hoist the shared prefix's incident edges.
      std::span<const Unit> prefix = block.row(lo);
      verts_of(prefix.subspan(0, len - 1), &verts);
      for (int j = 0; j + 1 < len; ++j) {
        (void)accessor->ReadEdgeEndpoints(w, prefix[j]);
      }
      gather(w, verts, &base);
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = block.row(r);
        const graph::Edge& last = g.edge_list()[emb[len - 1]];
        (void)accessor->ReadEdgeEndpoints(w, emb[len - 1]);
        last_verts.clear();
        if (std::find(verts.begin(), verts.end(), last.u) == verts.end())
          last_verts.push_back(last.u);
        if (std::find(verts.begin(), verts.end(), last.v) == verts.end())
          last_verts.push_back(last.v);
        gather(w, last_verts, &extra);
        cands.clear();
        cands.reserve(base.size() + extra.size());
        std::set_union(base.begin(), base.end(), extra.begin(), extra.end(),
                       std::back_inserter(cands));
        w.ChargeSimtWork(base.size() + extra.size(), 0.25);
        raw_candidates += cands.size();
        filter_and_emit(w, r, emb, cands, canon, joined, out);
      }
    } else {
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = block.row(r);
        accessor->ChargeEdgeEndpointsBatch(w, emb[0], emb.size());
        verts_of(emb, &verts);
        gather(w, verts, &cands);
        raw_candidates += cands.size();
        filter_and_emit(w, r, emb, cands, canon, joined, out);
      }
    }
    return raw_candidates;
  };

  // Worst case new edges per row: every incident edge of every endpoint.
  std::size_t worst = static_cast<std::size_t>(g.max_degree()) *
                      static_cast<std::size_t>(len + 1);
  auto result = RunExtension(table, options, /*count_only=*/false, tasks,
                             generate, std::max<std::size_t>(1, worst));
  if (result.ok() && grouped) result.value().groups = tasks.size();
  return result;
}

}  // namespace gpm::core
