#include "core/compiled_engine.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
#include "graph/isomorphism.h"

namespace gpm::core {

Result<CompiledRunResult> CompiledEngine::Run(const CompiledPlan& plan) {
  // Mandatory admission gate: no plan reaches the interpreter without a
  // VerifiedPlan witness. Pure host analysis — no simulated cycles.
  auto verified = VerifiedPlan::Make(plan, MakeVerifyOptions());
  if (!verified.ok()) return verified.status();
  return Run(verified.value());
}

VerifyOptions CompiledEngine::MakeVerifyOptions() const {
  VerifyOptions options;
  options.graph = &engine_->graph();
  options.engine_extension = &engine_->options().extension;
  return options;
}

Result<CompiledRunResult> CompiledEngine::Run(const VerifiedPlan& verified) {
  const CompiledPlan& plan = verified.plan();
  switch (plan.kind) {
    case PlanKind::kSubgraphMatch:
    case PlanKind::kMotifCensus:
      return RunVertexPlan(plan);
    case PlanKind::kFrequentMining:
      return RunFrequentMining(plan);
    case PlanKind::kEdgeJoin:
      return RunEdgeJoin(plan);
  }
  return Status::InvalidArgument("unknown plan kind");
}

namespace {

// Names one profiled segment: "L<depth>", "it<i>" or "e<k>".
std::string LevelLabel(const char* prefix, int n) {
  return std::string(prefix) + std::to_string(n);
}

}  // namespace

Result<CompiledRunResult> CompiledEngine::RunVertexPlan(
    const CompiledPlan& plan) {
  CompiledRunResult result;
  gpusim::Device* device = engine_->device();
  PlanProfiler* prof = engine_->plan_profiler();
  const double start = device->now_cycles();
  if (prof != nullptr) {
    prof->BeginRun(plan, device);
    PlanProfLevelInput in;
    in.label = "start";
    in.depth = plan.first_depth() - 1;
    in.est_rows = plan.start == StartMode::kEdgeParallel
                      ? plan.est_pair_rows
                      : plan.est_start_rows;
    in.has_estimate = in.est_rows > 0;
    prof->BeginSegment(std::move(in));
  }

  auto table =
      plan.start == StartMode::kEdgeParallel
          ? engine_->InitVertexPairTable(plan.start_label, plan.second_label,
                                         plan.start_ascending)
          : engine_->InitVertexTable(plan.start_label);
  if (!table.ok()) return table.status();
  EmbeddingTable* et = table.value().get();
  if (prof != nullptr) {
    const uint64_t rows = et->num_embeddings();
    prof->EndSegment(/*input_rows=*/0, /*candidates=*/0, rows);
  }

  uint64_t last_count = 0;
  bool counted_only = false;
  for (std::size_t i = 0; i < plan.levels.size(); ++i) {
    const CompiledLevel& level = plan.levels[i];
    const int depth = plan.first_depth() + static_cast<int>(i);
    if (prof != nullptr) {
      const ExtensionOptions resolved =
          level.Resolve(engine_->options().extension);
      PlanProfLevelInput in;
      in.label = LevelLabel("L", depth);
      in.depth = depth;
      in.est_rows = level.est_rows;
      in.has_estimate = level.est_rows > 0;
      in.intersect_width =
          static_cast<int>(level.intersect_positions.size());
      in.union_extension = level.intersect_positions.empty();
      in.has_strategy = true;
      in.strategy.write_strategy = WriteStrategyName(resolved.write_strategy);
      in.strategy.write_strategy_from_plan = level.write_strategy.has_value();
      in.strategy.pre_merge = resolved.pre_merge;
      in.strategy.pre_merge_from_plan = level.pre_merge.has_value();
      in.strategy.count_only = level.count_only;
      prof->BeginSegment(std::move(in));
    }
    auto stats = engine_->VertexExtension(et, level);
    if (!stats.ok()) return stats.status();
    if (prof != nullptr) {
      prof->EndSegment(stats.value().input_rows, stats.value().candidates,
                       stats.value().results);
    }
    result.steps.push_back(stats.value());
    if (level.count_only) {
      last_count = stats.value().results;
      counted_only = true;
    }
  }

  if (plan.kind == PlanKind::kMotifCensus) {
    // Aggregate by unlabeled induced shape, dividing each support by the
    // shape's connected-prefix ordering multiplicity.
    PatternTable pt;
    if (prof != nullptr) {
      PlanProfLevelInput in;
      in.label = "aggregate";
      in.depth = plan.first_depth() + static_cast<int>(plan.levels.size());
      prof->BeginSegment(std::move(in));
    }
    auto agg = engine_->Aggregation(*et, &pt, /*use_labels=*/false);
    if (!agg.ok()) return agg.status();
    if (prof != nullptr) {
      prof->EndSegment(et->num_embeddings(), /*candidates=*/0,
                       pt.entries().size());
    }
    for (const PatternEntry& e : pt.entries()) {
      uint64_t orderings = graph::CountConnectedOrderings(e.exemplar);
      GAMMA_CHECK(orderings > 0) << "disconnected motif shape";
      result.motifs.emplace_back(e.exemplar, e.support / orderings);
    }
    std::sort(result.motifs.begin(), result.motifs.end(),
              [](const auto& a, const auto& b) {
                return a.first.num_edges() < b.first.num_edges();
              });
  } else {
    result.embeddings = counted_only ? last_count : et->num_embeddings();
    result.instances = plan.symmetry_broken
                           ? result.embeddings
                           : result.embeddings / plan.automorphisms;
  }

  if (prof != nullptr) prof->FinishRun();
  result.sim_millis =
      device->params().CyclesToMillis(device->now_cycles() - start);
  return result;
}

Result<CompiledRunResult> CompiledEngine::RunFrequentMining(
    const CompiledPlan& plan) {
  GAMMA_CHECK(plan.max_edges >= 1) << "need at least one iteration";
  CompiledRunResult result;
  gpusim::Device* device = engine_->device();
  PlanProfiler* prof = engine_->plan_profiler();
  const double start = device->now_cycles();
  if (prof != nullptr) {
    prof->BeginRun(plan, device);
    PlanProfLevelInput in;
    in.label = "start";
    in.depth = 1;  // one matched edge per row
    prof->BeginSegment(std::move(in));
  }

  auto table = engine_->InitEdgeTable();
  if (!table.ok()) return table.status();
  EmbeddingTable* et = table.value().get();
  if (prof != nullptr) {
    prof->EndSegment(/*input_rows=*/0, /*candidates=*/0,
                     et->num_embeddings());
  }

  for (int i = 1; i <= plan.max_edges; ++i) {
    // Iteration i audits the i-edge patterns, then (except on the last
    // round) extends the survivors to i+1 edges.
    const uint64_t rows_in = et->num_embeddings();
    uint64_t candidates = 0;
    if (prof != nullptr) {
      PlanProfLevelInput in;
      in.label = LevelLabel("it", i);
      in.depth = i;
      prof->BeginSegment(std::move(in));
    }
    // PT = PT ∪ Aggregation(ET, m_f)
    auto agg =
        engine_->Aggregation(*et, &result.patterns, /*use_labels=*/true);
    if (!agg.ok()) return agg.status();
    // Filtering(ET, PT, sup_min): invalidate infrequent patterns and drop
    // their instances.
    result.patterns.InvalidateBelow(plan.min_support);
    engine_->Filtering(et, agg.value().codes, result.patterns);
    result.patterns.EraseInvalid();
    result.aggregations.push_back(std::move(agg).value());

    if (i < plan.max_edges) {
      EdgeExtensionSpec spec;
      spec.canonical_only = true;
      auto stats = engine_->EdgeExtension(et, spec);
      if (!stats.ok()) return stats.status();
      candidates = stats.value().candidates;
      result.steps.push_back(stats.value());
    }
    if (prof != nullptr) {
      prof->EndSegment(rows_in, candidates, et->num_embeddings());
    }
  }

  if (prof != nullptr) prof->FinishRun();
  result.sim_millis =
      device->params().CyclesToMillis(device->now_cycles() - start);
  return result;
}

Result<CompiledRunResult> CompiledEngine::RunEdgeJoin(
    const CompiledPlan& plan) {
  CompiledRunResult result;
  gpusim::Device* device = engine_->device();
  const graph::Graph& g = engine_->graph();
  const double start = device->now_cycles();
  const graph::Pattern& query = plan.pattern;
  const std::vector<std::pair<int, int>>& query_edges = plan.edge_order;

  PlanProfiler* prof = engine_->plan_profiler();
  if (prof != nullptr) {
    prof->BeginRun(plan, device);
    PlanProfLevelInput in;
    in.label = "start";
    in.depth = 1;  // one matched query edge after the seed filter
    prof->BeginSegment(std::move(in));
  }
  auto table = engine_->InitEdgeTable();
  if (!table.ok()) return table.status();
  EmbeddingTable* et = table.value().get();
  const uint64_t seed_rows = et->num_embeddings();

  // Filter the length-1 table down to edges matching the first query edge.
  engine_->Filtering(et, [&](std::span<const Unit> emb) {
    return graph::MatchesQueryPrefix(g, emb, query, query_edges);
  });
  if (prof != nullptr) {
    prof->EndSegment(seed_rows, seed_rows, et->num_embeddings());
  }

  for (std::size_t k = 1; k < query_edges.size(); ++k) {
    EdgeExtensionSpec spec;
    spec.canonical_only = false;  // order is dictated by the query plan
    spec.query = &query;
    spec.query_edges = query_edges;
    if (prof != nullptr) {
      PlanProfLevelInput in;
      in.label = LevelLabel("e", static_cast<int>(k));
      in.depth = static_cast<int>(k) + 1;  // matched edges after the step
      prof->BeginSegment(std::move(in));
    }
    auto stats = engine_->EdgeExtension(et, spec);
    if (!stats.ok()) return stats.status();
    if (prof != nullptr) {
      prof->EndSegment(stats.value().input_rows, stats.value().candidates,
                       stats.value().results);
    }
    result.steps.push_back(stats.value());
  }

  if (prof != nullptr) prof->FinishRun();
  result.embeddings = et->num_embeddings();
  // Distinct instances = distinct edge sets among the matched sequences.
  std::unordered_set<uint64_t> distinct;
  for (const auto& emb : et->Materialize()) {
    std::vector<Unit> sorted(emb.begin(), emb.end());
    std::sort(sorted.begin(), sorted.end());
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (Unit u : sorted) h = Mix64(h ^ u);
    distinct.insert(h);
  }
  result.instances = distinct.size();
  result.sim_millis =
      device->params().CyclesToMillis(device->now_cycles() - start);
  return result;
}

}  // namespace gpm::core
