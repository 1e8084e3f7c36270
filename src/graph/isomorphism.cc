#include "graph/isomorphism.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/logging.h"

namespace gpm::graph {
namespace {

bool LabelOk(const Graph& g, const Pattern& p, int pv, VertexId dv) {
  return p.label(pv) == Pattern::kAnyLabel || p.label(pv) == g.label(dv);
}

// Backtracking matcher over a connected matching order. Each recursion
// level extends the partial assignment by intersecting the candidate set
// implied by already-matched backward neighbors.
struct Matcher {
  const Graph& g;
  const Pattern& p;
  std::vector<int> order;
  std::vector<int> pos_in_order;  // pattern vertex -> depth
  std::vector<VertexId> assigned;
  uint64_t count = 0;
  std::vector<std::vector<VertexId>>* sink = nullptr;

  Matcher(const Graph& graph, const Pattern& pattern)
      : g(graph), p(pattern), order(pattern.DefaultMatchingOrder()) {
    pos_in_order.assign(p.num_vertices(), -1);
    for (std::size_t d = 0; d < order.size(); ++d)
      pos_in_order[order[d]] = static_cast<int>(d);
    assigned.assign(p.num_vertices(), 0);
  }

  void Run() {
    const int first = order[0];
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!LabelOk(g, p, first, v)) continue;
      assigned[first] = v;
      Extend(1);
    }
  }

  void Extend(int depth) {
    if (depth == p.num_vertices()) {
      ++count;
      if (sink != nullptr) {
        std::vector<VertexId> emb(p.num_vertices());
        for (int i = 0; i < p.num_vertices(); ++i) emb[i] = assigned[i];
        sink->push_back(std::move(emb));
      }
      return;
    }
    const int pv = order[depth];
    // Candidates: neighbors of the matched backward neighbor with smallest
    // degree, then checked against the others.
    int anchor = -1;
    uint32_t anchor_deg = 0;
    std::vector<int> backs;
    for (int d = 0; d < depth; ++d) {
      int q = order[d];
      if (!p.HasEdge(pv, q)) continue;
      backs.push_back(q);
      uint32_t deg = g.degree(assigned[q]);
      if (anchor < 0 || deg < anchor_deg) {
        anchor = q;
        anchor_deg = deg;
      }
    }
    GAMMA_CHECK(anchor >= 0) << "matching order prefix not connected";
    for (VertexId cand : g.neighbors(assigned[anchor])) {
      if (!LabelOk(g, p, pv, cand)) continue;
      bool ok = true;
      for (int d = 0; d < depth && ok; ++d) {
        if (assigned[order[d]] == cand) ok = false;  // injectivity
      }
      for (int q : backs) {
        if (!ok) break;
        if (q == anchor) continue;
        if (!g.HasEdge(assigned[q], cand)) ok = false;
      }
      if (!ok) continue;
      assigned[pv] = cand;
      Extend(depth + 1);
    }
  }
};

}  // namespace

bool IsEmbedding(const Graph& g, const Pattern& p,
                 const std::vector<VertexId>& assignment) {
  if (assignment.size() != static_cast<std::size_t>(p.num_vertices()))
    return false;
  for (int i = 0; i < p.num_vertices(); ++i) {
    if (assignment[i] >= g.num_vertices()) return false;
    if (!LabelOk(g, p, i, assignment[i])) return false;
    for (int j = i + 1; j < p.num_vertices(); ++j) {
      if (assignment[i] == assignment[j]) return false;
      if (p.HasEdge(i, j) && !g.HasEdge(assignment[i], assignment[j]))
        return false;
    }
  }
  return true;
}

uint64_t CountEmbeddings(const Graph& g, const Pattern& p) {
  if (p.num_vertices() == 1) {
    if (!p.labeled()) return g.num_vertices();
    uint64_t c = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (LabelOk(g, p, 0, v)) ++c;
    }
    return c;
  }
  Matcher m(g, p);
  m.Run();
  return m.count;
}

uint64_t CountInstances(const Graph& g, const Pattern& p) {
  uint64_t embeddings = CountEmbeddings(g, p);
  return embeddings / static_cast<uint64_t>(p.CountAutomorphisms());
}

void EnumerateEmbeddings(const Graph& g, const Pattern& p,
                         std::vector<std::vector<VertexId>>* out) {
  out->clear();
  Matcher m(g, p);
  m.sink = out;
  m.Run();
}

Pattern PatternOfVertices(const Graph& g, std::span<const VertexId> vertices,
                          bool use_labels) {
  Pattern p(static_cast<int>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (use_labels) p.SetLabel(static_cast<int>(i), g.label(vertices[i]));
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (g.HasEdge(vertices[i], vertices[j]))
        p.AddEdge(static_cast<int>(i), static_cast<int>(j));
    }
  }
  return p;
}

Pattern PatternOfEdges(const Graph& g, std::span<const EdgeId> edges,
                       bool use_labels) {
  // First-seen vertex order in fixed storage: one pass numbers the
  // vertices, a second adds the edges once the pattern's size is known.
  std::array<VertexId, Pattern::kMaxVertices> verts{};
  int n = 0;
  auto index_of = [&verts, &n](VertexId v) {
    for (int i = 0; i < n; ++i) {
      if (verts[i] == v) return i;
    }
    return -1;
  };
  for (EdgeId e : edges) {
    const Edge& edge = g.edge_list()[e];
    for (VertexId v : {edge.u, edge.v}) {
      if (index_of(v) >= 0) continue;
      GAMMA_CHECK(n < Pattern::kMaxVertices)
          << "pattern size out of range: edge set spans more than "
          << Pattern::kMaxVertices << " vertices";
      verts[n++] = v;
    }
  }
  Pattern p(n);
  for (EdgeId e : edges) {
    const Edge& edge = g.edge_list()[e];
    p.AddEdge(index_of(edge.u), index_of(edge.v));
  }
  if (use_labels) {
    for (int i = 0; i < n; ++i) p.SetLabel(i, g.label(verts[i]));
  }
  return p;
}

uint64_t CountConnectedOrderings(const Pattern& p) {
  const int n = p.num_vertices();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  uint64_t count = 0;
  do {
    if (p.ConnectedPrefix(perm)) ++count;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return count;
}

std::vector<std::pair<int, int>> ConnectedEdgeOrder(const Pattern& p) {
  std::vector<std::pair<int, int>> remaining = p.EdgeList();
  std::vector<std::pair<int, int>> order;
  std::vector<bool> seen(p.num_vertices(), false);
  while (!remaining.empty()) {
    std::size_t pick = remaining.size();
    if (order.empty()) {
      pick = 0;
    } else {
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (seen[remaining[i].first] || seen[remaining[i].second]) {
          pick = i;
          break;
        }
      }
      GAMMA_CHECK(pick < remaining.size()) << "query graph not connected";
    }
    seen[remaining[pick].first] = true;
    seen[remaining[pick].second] = true;
    order.push_back(remaining[pick]);
    remaining.erase(remaining.begin() + pick);
  }
  return order;
}

namespace {

bool PrefixLabelOk(const Graph& g, const Pattern& q, int qv, VertexId dv) {
  return q.label(qv) == Pattern::kAnyLabel || q.label(qv) == g.label(dv);
}

// Backtracking assignment of query vertices to data vertices consistent
// with the edge sequence; both orientations of each data edge are tried.
bool TryAssign(const Graph& g, std::span<const EdgeId> edges,
               const Pattern& query,
               std::span<const std::pair<int, int>> query_edges,
               std::size_t idx, std::vector<int>& qv_to_dv,
               std::vector<int>& dv_owner_qv,
               std::vector<VertexId>& bound_dvs) {
  if (idx == edges.size()) return true;
  auto [qa, qb] = query_edges[idx];
  const Edge& e = g.edge_list()[edges[idx]];
  const VertexId ends[2] = {e.u, e.v};
  for (int o = 0; o < 2; ++o) {
    VertexId da = ends[o];
    VertexId db = ends[1 - o];
    if (!PrefixLabelOk(g, query, qa, da) ||
        !PrefixLabelOk(g, query, qb, db)) {
      continue;
    }
    // Binding checks: each query vertex maps to one data vertex and
    // vice versa (injective).
    auto find_owner = [&](VertexId dv) {
      for (std::size_t i = 0; i < bound_dvs.size(); ++i) {
        if (bound_dvs[i] == dv) return dv_owner_qv[i];
      }
      return -1;
    };
    int owner_a = find_owner(da);
    int owner_b = find_owner(db);
    if (qv_to_dv[qa] >= 0 && qv_to_dv[qa] != static_cast<int>(da)) continue;
    if (qv_to_dv[qb] >= 0 && qv_to_dv[qb] != static_cast<int>(db)) continue;
    if (owner_a >= 0 && owner_a != qa) continue;
    if (owner_b >= 0 && owner_b != qb) continue;
    // Bind (remember what we added to undo on backtrack).
    int added = 0;
    int prev_a = qv_to_dv[qa];
    int prev_b = qv_to_dv[qb];
    if (qv_to_dv[qa] < 0) {
      qv_to_dv[qa] = static_cast<int>(da);
      dv_owner_qv.push_back(qa);
      bound_dvs.push_back(da);
      ++added;
    }
    if (qv_to_dv[qb] < 0) {
      qv_to_dv[qb] = static_cast<int>(db);
      dv_owner_qv.push_back(qb);
      bound_dvs.push_back(db);
      ++added;
    }
    if (TryAssign(g, edges, query, query_edges, idx + 1, qv_to_dv,
                  dv_owner_qv, bound_dvs)) {
      return true;
    }
    for (int i = 0; i < added; ++i) {
      dv_owner_qv.pop_back();
      bound_dvs.pop_back();
    }
    qv_to_dv[qa] = prev_a;
    qv_to_dv[qb] = prev_b;
  }
  return false;
}

}  // namespace

bool MatchesQueryPrefix(const Graph& g, std::span<const EdgeId> edges,
                        const Pattern& query,
                        std::span<const std::pair<int, int>> query_edges) {
  GAMMA_CHECK(edges.size() <= query_edges.size()) << "prefix too long";
  std::vector<int> qv_to_dv(query.num_vertices(), -1);
  std::vector<int> dv_owner;
  std::vector<VertexId> bound;
  return TryAssign(g, edges, query, query_edges, 0, qv_to_dv, dv_owner,
                   bound);
}

}  // namespace gpm::graph
