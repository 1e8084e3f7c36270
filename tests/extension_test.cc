#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/extension.h"
#include "core/gamma.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 1 << 20;
  return p;
}

graph::Graph Toy() {
  // Two triangles sharing edge 1-2 plus a tail.
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  g.SetLabels({0, 1, 2, 0, 1});
  g.EnsureEdgeIndex();
  return g;
}

// Runs one wedge->triangle style extension over all strategy combinations
// and returns the sorted embeddings.
std::multiset<std::vector<Unit>> ExtendAllVertices(
    const graph::Graph& g, WriteStrategy strategy, bool pre_merge,
    int steps, bool ascending) {
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.extension.write_strategy = strategy;
  options.extension.pre_merge = pre_merge;
  GammaEngine engine(&device, &g, options);
  EXPECT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  EXPECT_TRUE(t.ok());
  for (int s = 0; s < steps; ++s) {
    CompiledLevel level;
    for (int j = 0; j <= s; ++j) level.intersect_positions.push_back(j);
    level.require_ascending = ascending;
    auto r = engine.VertexExtension(t.value().get(), level);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  std::multiset<std::vector<Unit>> out;
  for (auto& e : t.value()->Materialize()) out.insert(e);
  return out;
}

TEST(VertexExtensionTest, TriangleClosureMatchesOracle) {
  graph::Graph g = Toy();
  auto embeddings = ExtendAllVertices(g, WriteStrategy::kDynamicAlloc,
                                      true, 2, /*ascending=*/true);
  // Ascending triangles: {0,1,2} and {1,2,3}.
  EXPECT_EQ(embeddings.size(), 2u);
  EXPECT_TRUE(embeddings.count({0, 1, 2}));
  EXPECT_TRUE(embeddings.count({1, 2, 3}));
}

TEST(VertexExtensionTest, AllStrategiesAgree) {
  Rng rng(17);
  graph::Graph g = graph::ErdosRenyi(60, 240, &rng);
  auto expected = ExtendAllVertices(g, WriteStrategy::kDynamicAlloc, true,
                                    2, true);
  for (WriteStrategy s :
       {WriteStrategy::kNaiveTwoPass, WriteStrategy::kPreAlloc,
        WriteStrategy::kDynamicAlloc}) {
    for (bool pm : {false, true}) {
      auto got = ExtendAllVertices(g, s, pm, 2, true);
      EXPECT_EQ(got, expected)
          << WriteStrategyName(s) << " pre_merge=" << pm;
    }
  }
}

TEST(VertexExtensionTest, InjectivityEnforced) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  CompiledLevel level;  // union mode: all neighbors
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
  for (const auto& emb : t.value()->Materialize()) {
    std::set<Unit> uniq(emb.begin(), emb.end());
    EXPECT_EQ(uniq.size(), emb.size());
  }
}

TEST(VertexExtensionTest, UnionModeMatchesDefinition31) {
  // Ext_v(M) = neighbors of any vertex of M, minus V(M).
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  CompiledLevel level;
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
  std::multiset<std::vector<Unit>> got;
  for (auto& e : t.value()->Materialize()) got.insert(e);
  std::multiset<std::vector<Unit>> expected;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (graph::VertexId u : g.neighbors(v)) {
      expected.insert({v, u});
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(VertexExtensionTest, LabelFilterApplied) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  CompiledLevel level;
  level.intersect_positions = {0};
  level.candidate_label = 1;  // vertices 1 and 4
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
  for (const auto& emb : t.value()->Materialize()) {
    EXPECT_EQ(g.label(emb[1]), 1u);
  }
}

// A restriction checks the candidate (position 1 here) against a matched
// column from either side: {0, 1} keeps each edge once as an ascending pair,
// {1, 0} once as a descending one.
TEST(VertexExtensionTest, RestrictionsApplied) {
  graph::Graph g = Toy();
  for (bool ascending : {true, false}) {
    gpusim::Device device(TestParams());
    GammaEngine engine(&device, &g, {});
    ASSERT_TRUE(engine.Prepare().ok());
    auto t = engine.InitVertexTable();
    ASSERT_TRUE(t.ok());
    CompiledLevel level;
    level.intersect_positions = {0};
    level.restrictions = {ascending ? SymmetryRestriction{0, 1}
                                    : SymmetryRestriction{1, 0}};
    ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
    std::multiset<std::vector<Unit>> got;
    for (auto& e : t.value()->Materialize()) got.insert(e);
    std::multiset<std::vector<Unit>> expected;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      for (graph::VertexId u : g.neighbors(v)) {
        if (ascending ? v < u : u < v) expected.insert({v, u});
      }
    }
    EXPECT_EQ(expected.size(), g.num_edges());
    EXPECT_EQ(got, expected) << "ascending=" << ascending;
  }
}

// The per-candidate filter FilterVertexCandidates replaced, kept as its
// reference: every candidate is compared with the whole row for ascending
// order and for injectivity. 4.0 is the extension's per-candidate
// restriction charge.
void ReferenceFilter(gpusim::WarpCtx& w, GraphAccessor* accessor,
                     const CompiledLevel& level, RowIndex row,
                     std::span<const Unit> emb,
                     std::span<const graph::VertexId> cands,
                     std::vector<ExtensionEmit>* out) {
  const graph::Graph& g = accessor->graph();
  const int len = static_cast<int>(emb.size());
  if (level.enforce_injective || level.require_ascending) {
    w.ChargeSimtWork(cands.size() * len, 0.5);
  }
  if (level.candidate_label != graph::Pattern::kAnyLabel) {
    accessor->ChargeLabelsBatch(w, cands);
  }
  for (graph::VertexId cand : cands) {
    if (level.require_ascending) {
      bool ascending = true;
      for (Unit u : emb) {
        if (cand <= u) {
          ascending = false;
          break;
        }
      }
      if (!ascending) continue;
    }
    if (level.enforce_injective) {
      bool distinct = true;
      for (Unit u : emb) {
        if (u == cand) {
          distinct = false;
          break;
        }
      }
      if (!distinct) continue;
    }
    if (level.candidate_label != graph::Pattern::kAnyLabel &&
        g.label(cand) != level.candidate_label) {
      continue;
    }
    if (!level.restrictions.empty()) {
      w.ChargeCompute(4.0);
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

// FilterVertexCandidates keeps exactly the reference's survivors, in
// order, and records exactly its charges, op by op, for seeded sorted
// candidate lists (empty, all below or all above the row's largest unit,
// holding every row unit, and mixed) under every combination of
// ascending order, injectivity, a candidate label and restrictions on
// either side of the candidate.
TEST(VertexExtensionTest, BoundedFilterMatchesPerCandidateReference) {
  Rng rng(61);
  graph::Graph g = graph::ErdosRenyi(64, 300, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.3, &rng);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  GraphAccessor* accessor = &engine.accessor();
  const uint64_t n = g.num_vertices();
  std::size_t cases = 0, kept = 0, dropped = 0, restricted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t len = 1 + trial % 5;
    std::vector<Unit> emb;
    while (emb.size() < len) {
      const Unit v = static_cast<Unit>(rng.NextBounded(n));
      if (std::find(emb.begin(), emb.end(), v) == emb.end()) emb.push_back(v);
    }
    const Unit top = *std::max_element(emb.begin(), emb.end());
    // Each vertex joins a list with probability 1/2 when `pick` allows it.
    auto draw = [&](auto pick) {
      std::vector<graph::VertexId> list;
      for (graph::VertexId v = 0; v < n; ++v) {
        if (pick(v) && rng.NextBounded(2) == 0) list.push_back(v);
      }
      return list;
    };
    std::vector<std::vector<graph::VertexId>> lists = {
        {},
        draw([&](graph::VertexId v) { return v <= top; }),
        draw([&](graph::VertexId v) { return v > top; }),
        draw([](graph::VertexId) { return true; }),
    };
    // Every row unit, the largest included, among random others.
    std::vector<graph::VertexId> with_row = draw([](graph::VertexId) {
      return true;
    });
    with_row.insert(with_row.end(), emb.begin(), emb.end());
    std::sort(with_row.begin(), with_row.end());
    with_row.erase(std::unique(with_row.begin(), with_row.end()),
                   with_row.end());
    lists.push_back(with_row);

    const int cand_pos = static_cast<int>(len);
    const int other = static_cast<int>(rng.NextBounded(len));
    const std::vector<std::vector<SymmetryRestriction>> restriction_sets = {
        {},
        {{other, cand_pos}},
        {{cand_pos, other}},
        {{0, cand_pos}, {cand_pos, static_cast<int>(len) - 1}},
    };
    for (const auto& cands : lists) {
      for (bool ascending : {false, true}) {
        for (bool injective : {false, true}) {
          for (graph::Label label :
               {graph::Pattern::kAnyLabel, graph::Label{0}, graph::Label{2}}) {
            for (const auto& restrictions : restriction_sets) {
              CompiledLevel level;
              level.require_ascending = ascending;
              level.enforce_injective = injective;
              level.candidate_label = label;
              level.restrictions = restrictions;
              const RowIndex row = static_cast<RowIndex>(trial);
              // Both append behind what the buffer already holds.
              std::vector<ExtensionEmit> want = {{7, 3}}, got = {{7, 3}};
              gpusim::WarpTaskLog want_log, got_log;
              {
                gpusim::WarpCtx w(&device, 0, &want_log);
                ReferenceFilter(w, accessor, level, row, emb, cands, &want);
              }
              {
                gpusim::WarpCtx w(&device, 0, &got_log);
                FilterVertexCandidates(w, accessor, level, row, emb, cands,
                                       &got);
              }
              const std::string label_text =
                  "trial " + std::to_string(trial) + ", " +
                  std::to_string(cands.size()) + " candidates, ascending=" +
                  std::to_string(ascending) + " injective=" +
                  std::to_string(injective) + " label=" +
                  std::to_string(label) + " restrictions=" +
                  std::to_string(restrictions.size());
              ASSERT_EQ(got.size(), want.size()) << label_text;
              for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].unit, want[i].unit) << label_text;
                ASSERT_EQ(got[i].parent, want[i].parent) << label_text;
              }
              ASSERT_EQ(got_log.ops.size(), want_log.ops.size())
                  << label_text;
              for (std::size_t i = 0; i < got_log.ops.size(); ++i) {
                const gpusim::WarpOp& a = got_log.ops[i];
                const gpusim::WarpOp& b = want_log.ops[i];
                ASSERT_EQ(a.kind, b.kind) << label_text << ", op " << i;
                ASSERT_EQ(a.id, b.id) << label_text << ", op " << i;
                ASSERT_EQ(a.a, b.a) << label_text << ", op " << i;
                ASSERT_EQ(a.b, b.b) << label_text << ", op " << i;
                ASSERT_EQ(a.d, b.d) << label_text << ", op " << i;
              }
              EXPECT_TRUE(got_log.callbacks.empty());
              ++cases;
              kept += want.size() - 1;
              dropped += cands.size() - (want.size() - 1);
              for (const gpusim::WarpOp& op : want_log.ops) {
                restricted += op.kind == gpusim::WarpOp::kChargeCompute;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 60u * 5 * 2 * 2 * 3 * 4);
  // Both verdicts and the restriction charge are well represented.
  EXPECT_GT(kept, 10000u);
  EXPECT_GT(dropped, 10000u);
  EXPECT_GT(restricted, 5000u);
}

TEST(VertexExtensionTest, PreAllocFailsWhenWorstCaseTooLarge) {
  Rng rng(23);
  graph::Graph g = graph::PowerLaw(2000, 20000, 1.0, &rng);  // big hub
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.extension.write_strategy = WriteStrategy::kPreAlloc;
  options.extension.pool_bytes = 1024;  // < d_max * 8
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  CompiledLevel level;
  level.intersect_positions = {0};
  auto r = engine.VertexExtension(t.value().get(), level);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeviceOutOfMemory);
}

TEST(VertexExtensionTest, DynamicAllocHandlesPoolOverflow) {
  Rng rng(29);
  graph::Graph g = graph::ErdosRenyi(200, 2000, &rng);
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.extension.pool_bytes = 16 << 10;  // tiny pool forces flushes
  options.extension.block_bytes = 1024;
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  CompiledLevel level;  // union: ~2|E| results >> pool
  auto r = engine.VertexExtension(t.value().get(), level);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().results, 2 * g.num_edges());
  EXPECT_GT(device.stats().pool_block_requests, 16u);
}

TEST(VertexExtensionTest, StatsPopulated) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  CompiledLevel level;
  level.intersect_positions = {0};
  auto r = engine.VertexExtension(t.value().get(), level);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().input_rows, 5u);
  EXPECT_GT(r.value().candidates, 0u);
  EXPECT_GT(r.value().kernel_cycles, 0.0);
  EXPECT_GE(r.value().chunks, 1u);
}

TEST(EdgeExtensionTest, CanonicalSequencesUnique) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  EdgeExtensionSpec spec;
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  // Every 2-edge connected subgraph exactly once.
  std::set<std::set<Unit>> seen;
  for (const auto& emb : t.value()->Materialize()) {
    std::set<Unit> s(emb.begin(), emb.end());
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(seen.insert(s).second) << "duplicate edge set";
  }
  // Count wedges + count... every pair of adjacent edges:
  uint64_t adjacent_pairs = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    uint64_t d = g.degree(v);
    adjacent_pairs += d * (d - 1) / 2;
  }
  EXPECT_EQ(seen.size(), adjacent_pairs);
}

TEST(EdgeExtensionTest, IsCanonicalExtensionBasics) {
  graph::Graph g = Toy();
  // Edge ids: sorted (u,v) pairs: (0,1)=0,(0,2)=1,(1,2)=2,(1,3)=3,(2,3)=4,(3,4)=5
  std::vector<Unit> base{0};
  EXPECT_TRUE(IsCanonicalEdgeExtension(g, base, 1));
  EXPECT_TRUE(IsCanonicalEdgeExtension(g, base, 2));
  // Extending {e1} by e0 is not canonical (e0 < e1 must come first).
  std::vector<Unit> later{1};
  EXPECT_FALSE(IsCanonicalEdgeExtension(g, later, 0));
  // Disconnected extension rejected: {0-1} + {3-4}.
  EXPECT_FALSE(IsCanonicalEdgeExtension(g, base, 5));
}

// CanonicalRowContext must decide exactly what IsCanonicalEdgeExtension
// decides, for every candidate edge not in the row. Rows of 1-6 distinct
// edges come three ways: canonical growth (each step a canonical
// extension, so most candidates face a canonical row), connected growth
// in random order (mostly non-canonical rows), and uniformly random edges
// (mostly disconnected rows).
TEST(EdgeExtensionTest, RowContextMatchesReference) {
  enum class Draw { kCanonical, kConnected, kRandom };
  std::size_t pairs = 0, accepted = 0, canonical_rows = 0, rows = 0;
  for (uint64_t seed : {51, 52, 53, 54}) {
    Rng rng(seed);
    graph::Graph g = seed % 2 == 0 ? graph::ErdosRenyi(14, 40, &rng)
                                   : graph::PowerLaw(24, 70, 0.8, &rng);
    g.EnsureEdgeIndex();
    const auto& edges = g.edge_list();
    const Unit num_edges = static_cast<Unit>(edges.size());
    auto in_row = [](const std::vector<Unit>& row, Unit e) {
      return std::find(row.begin(), row.end(), e) != row.end();
    };
    auto touches = [&edges](const std::vector<Unit>& row, Unit e) {
      for (Unit r : row) {
        if (edges[r].u == edges[e].u || edges[r].u == edges[e].v ||
            edges[r].v == edges[e].u || edges[r].v == edges[e].v) {
          return true;
        }
      }
      return false;
    };
    CanonicalRowContext context(g);
    for (Draw draw : {Draw::kCanonical, Draw::kConnected, Draw::kRandom}) {
      for (int trial = 0; trial < 60; ++trial) {
        const std::size_t len = 1 + trial % 6;
        std::vector<Unit> row{
            static_cast<Unit>(rng.NextBounded(num_edges))};
        while (row.size() < len) {
          std::vector<Unit> next;
          for (Unit e = 0; e < num_edges; ++e) {
            if (in_row(row, e)) continue;
            const bool ok =
                draw == Draw::kRandom ||
                (draw == Draw::kConnected
                     ? touches(row, e)
                     : IsCanonicalEdgeExtension(g, row, e));
            if (ok) next.push_back(e);
          }
          if (next.empty()) break;
          row.push_back(next[rng.NextBounded(next.size())]);
        }
        context.Reset(row);
        ++rows;
        if (IsCanonicalEdgeExtension(
                g, std::span<const Unit>(row).first(row.size() - 1),
                row.back())) {
          ++canonical_rows;
        }
        for (Unit c = 0; c < num_edges; ++c) {
          if (in_row(row, c)) continue;
          const bool want = IsCanonicalEdgeExtension(g, row, c);
          ASSERT_EQ(context.Accepts(c), want)
              << "seed " << seed << ", row of " << row.size()
              << " edges starting at " << row[0] << ", candidate " << c;
          ++pairs;
          accepted += want;
        }
      }
    }
  }
  // Both verdicts and both row kinds are well represented.
  EXPECT_GT(pairs, 10000u);
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(canonical_rows, rows / 3);
  EXPECT_LT(canonical_rows, rows);
}

TEST(EdgeExtensionTest, ThreeEdgeSetsMatchBruteForce) {
  Rng rng(31);
  graph::Graph g = graph::ErdosRenyi(30, 80, &rng);
  g.EnsureEdgeIndex();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  EdgeExtensionSpec spec;
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  std::set<std::set<Unit>> got;
  for (const auto& emb : t.value()->Materialize()) {
    got.insert(std::set<Unit>(emb.begin(), emb.end()));
  }
  // Brute force: all connected 3-edge subsets.
  std::set<std::set<Unit>> expected;
  const auto& edges = g.edge_list();
  auto connected = [&](const std::set<Unit>& s) {
    std::vector<graph::EdgeId> list(s.begin(), s.end());
    std::set<graph::VertexId> verts{edges[list[0]].u, edges[list[0]].v};
    bool grew = true;
    std::set<Unit> used{list[0]};
    while (grew) {
      grew = false;
      for (Unit e : list) {
        if (used.count(e)) continue;
        if (verts.count(edges[e].u) || verts.count(edges[e].v)) {
          verts.insert(edges[e].u);
          verts.insert(edges[e].v);
          used.insert(e);
          grew = true;
        }
      }
    }
    return used.size() == s.size();
  };
  for (Unit a = 0; a < edges.size(); ++a) {
    for (Unit b = a + 1; b < edges.size(); ++b) {
      for (Unit c = b + 1; c < edges.size(); ++c) {
        std::set<Unit> s{a, b, c};
        if (connected(s)) expected.insert(s);
      }
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(EdgeExtensionTest, PreMergeEquivalentToPlain) {
  Rng rng(37);
  graph::Graph g = graph::ErdosRenyi(40, 120, &rng);
  g.EnsureEdgeIndex();
  std::multiset<std::vector<Unit>> results[2];
  for (int pm = 0; pm < 2; ++pm) {
    gpusim::Device device(TestParams());
    GammaOptions options;
    options.extension.pre_merge = pm == 1;
    GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto t = engine.InitEdgeTable();
    ASSERT_TRUE(t.ok());
    EdgeExtensionSpec spec;
    ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
    ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
    for (auto& e : t.value()->Materialize()) results[pm].insert(e);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(ExtensionTest, ChunkingPreservesResults) {
  Rng rng(41);
  graph::Graph g = graph::ErdosRenyi(100, 500, &rng);
  std::multiset<std::vector<Unit>> big_chunks, small_chunks;
  for (std::size_t chunk : {std::size_t{1} << 16, std::size_t{64}}) {
    gpusim::Device device(TestParams());
    GammaOptions options;
    options.extension.chunk_rows = chunk;
    GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto t = engine.InitVertexTable();
    ASSERT_TRUE(t.ok());
    CompiledLevel level;
    level.intersect_positions = {0};
    level.require_ascending = true;
    ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
    auto& sink = chunk == 64 ? small_chunks : big_chunks;
    for (auto& e : t.value()->Materialize()) sink.insert(e);
  }
  EXPECT_EQ(big_chunks, small_chunks);
}

}  // namespace
}  // namespace gpm::core
