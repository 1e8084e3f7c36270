#include "core/aggregation.h"

#include <mutex>
#include <unordered_map>

#include "common/logging.h"
#include "graph/canonical.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

constexpr std::size_t kRowsPerWarp = 256;
// Cycles charged per embedding unit for the map function (canonical coding
// of a k-unit embedding costs ~O(k^2) table lookups on device).
constexpr double kMapCyclesPerUnit = 8.0;

struct RawCodeHash {
  std::size_t operator()(const graph::Pattern& p) const {
    return graph::RawCode(p);
  }
};
// Memo from an exact pattern (as numbered) to its canonical code.
using PatternMemo = std::unordered_map<graph::Pattern, uint64_t, RawCodeHash>;

}  // namespace

Result<AggregationResult> Aggregate(const EmbeddingTable& table,
                                    GraphAccessor* accessor,
                                    PatternTable* pt, bool use_labels,
                                    const SortOptions& sort) {
  AggregationResult result;
  const std::size_t rows = table.num_embeddings();
  const int len = table.length();
  if (rows == 0) return result;

  gpusim::Device* device = table.device();
  const graph::Graph& g = accessor->graph();

  // Map phase: one warp per row block; each row is read by walking its
  // parents, its pattern built and canonically coded, and the code written
  // out. Tasks may run concurrently: every row writes only its own code
  // slot, and each task keeps a memo from the exact patterns it has coded
  // to their codes, so a row whose pattern the task has seen costs one hash
  // lookup and allocates nothing. Only a task-local miss reaches the shared
  // memo, the one piece of shared mutable state, behind a mutex; its values
  // are content-derived and thus interleaving-independent. The permutation
  // search runs outside the lock (codes are pure functions of the pattern,
  // so a rare duplicate search computes the same value), keeping the
  // dominant cost parallel. A task's first row with a given code is always
  // a local miss, so each task collects its first-seen exemplars there;
  // they are merged after the launch in ascending task order, reproducing
  // the serial first-wins choice.
  result.codes.resize(rows);
  std::mutex cache_mu;
  PatternMemo canon_memo;
  auto canonical_of = [&cache_mu, &canon_memo](const graph::Pattern& p) {
    {
      std::lock_guard<std::mutex> lock(cache_mu);
      auto it = canon_memo.find(p);
      if (it != canon_memo.end()) return it->second;
    }
    const uint64_t canon = graph::CanonicalCode(p);
    std::lock_guard<std::mutex> lock(cache_mu);
    canon_memo.try_emplace(p, canon);
    return canon;
  };
  std::vector<const Unit*> units(len);
  std::vector<const RowIndex*> parents(len);
  for (int j = 0; j < len; ++j) {
    units[j] = table.column(j).units.host_data().data();
    parents[j] = table.column(j).parents.host_data().data();
  }
  std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
  std::vector<std::unordered_map<uint64_t, graph::Pattern>> task_exemplars(
      tasks);
  result.kernel_cycles += device->LaunchKernel(
      tasks, [&](gpusim::WarpCtx& w, std::size_t t) {
        std::size_t lo = t * kRowsPerWarp;
        std::size_t hi = std::min(rows, lo + kRowsPerWarp);
        table.ChargeColumnRead(w, len - 1, lo, hi - lo);
        w.ChargeSimtWork((hi - lo) * len,
                         kMapCyclesPerUnit * len);
        std::vector<Unit> emb(len);
        PatternMemo local;
        for (std::size_t r = lo; r < hi; ++r) {
          RowIndex at = static_cast<RowIndex>(r);
          for (int j = len - 1; j >= 0; --j) {
            emb[j] = units[j][at];
            at = parents[j][at];
          }
          const graph::Pattern p =
              table.kind() == TableKind::kEdge
                  ? graph::PatternOfEdges(g, emb, use_labels)
                  : graph::PatternOfVertices(g, emb, use_labels);
          auto [it, miss] = local.try_emplace(p, 0);
          if (miss) {
            it->second = canonical_of(p);
            task_exemplars[t].try_emplace(it->second, p);
          }
          result.codes[r] = it->second;
        }
        w.DeviceWrite((hi - lo) * sizeof(uint64_t));
      },
      "aggregation-map");
  std::unordered_map<uint64_t, graph::Pattern> exemplars;
  for (auto& te : task_exemplars) {
    for (auto& [code, p] : te) exemplars.try_emplace(code, p);
  }

  // Sort the code column (out-of-core capable) and count runs.
  std::vector<uint64_t> sorted = result.codes;
  auto sort_stats = SortKeys(device, &sorted, sort);
  if (!sort_stats.ok()) return sort_stats.status();
  result.sort_stats = sort_stats.value();

  // Run-length count over the sorted codes (single scan kernel).
  std::unordered_map<uint64_t, uint64_t> counts;
  result.kernel_cycles += device->LaunchKernel(
      std::max<std::size_t>(1, rows / 4096),
      [&](gpusim::WarpCtx& w, std::size_t) {
        w.ZeroCopyRead(4096 * sizeof(uint64_t));
        w.ChargeSimtWork(4096);
      },
      "aggregation-count");
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    counts[sorted[i]] = j - i;
    i = j;
  }
  result.distinct_patterns = counts.size();

  for (auto& [code, count] : counts) {
    pt->Accumulate(code, exemplars.at(code), count);
  }
  return result;
}

}  // namespace gpm::core
