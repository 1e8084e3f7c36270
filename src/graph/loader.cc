#include "graph/loader.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "graph/generators.h"

namespace gpm::graph {

namespace {
constexpr uint64_t kBinaryMagic = 0x47414d4d41475231ull;  // "GAMMAGR1"
}  // namespace

Result<Graph> LoadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::unordered_map<uint64_t, VertexId> remap;
  auto intern = [&remap](uint64_t raw) {
    auto [it, inserted] =
        remap.emplace(raw, static_cast<VertexId>(remap.size()));
    (void)inserted;
    return it->second;
  };
  std::vector<Edge> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a, b;
    if (!(ls >> a >> b)) {
      return Status::InvalidArgument("malformed edge line: " + line);
    }
    VertexId u = intern(a);
    VertexId v = intern(b);
    if (u == v) continue;
    edges.push_back({std::min(u, v), std::max(u, v)});
  }
  return Graph::FromEdges(static_cast<VertexId>(remap.size()), edges);
}

Status SaveEdgeListText(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  out << "# gamma edge list |V|=" << g.num_vertices()
      << " |E|=" << g.num_edges() << "\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) out << u << " " << v << "\n";
    }
  }
  return out ? Status::Ok() : Status::Internal("write failed: " + path);
}

Status SaveBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  auto put = [&out](const void* p, std::size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  uint64_t magic = kBinaryMagic;
  uint64_t nv = g.num_vertices();
  uint64_t arcs = g.num_arcs();
  uint64_t nlabels = g.labels().size();
  put(&magic, sizeof magic);
  put(&nv, sizeof nv);
  put(&arcs, sizeof arcs);
  put(&nlabels, sizeof nlabels);
  put(g.row_ptr().data(), g.row_ptr().size() * sizeof(uint64_t));
  put(g.col().data(), g.col().size() * sizeof(VertexId));
  put(g.labels().data(), g.labels().size() * sizeof(Label));
  return out ? Status::Ok() : Status::Internal("write failed: " + path);
}

Result<Graph> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  auto get = [&in](void* p, std::size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    return static_cast<bool>(in);
  };
  uint64_t magic = 0, nv = 0, arcs = 0, nlabels = 0;
  if (!get(&magic, sizeof magic) || magic != kBinaryMagic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (!get(&nv, sizeof nv) || !get(&arcs, sizeof arcs) ||
      !get(&nlabels, sizeof nlabels)) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  if (nv > std::numeric_limits<VertexId>::max() ||
      (nlabels != 0 && nlabels != nv)) {
    return Status::InvalidArgument("bad vertex or label count in " + path);
  }
  // The header sizes every array: check the file holds exactly that much
  // before allocating, in arithmetic that cannot wrap (nv and nlabels are
  // below 2^32 here).
  const std::streampos body_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const auto body = static_cast<uint64_t>(in.tellg() - body_begin);
  in.seekg(body_begin);
  if (arcs > body / sizeof(VertexId) ||
      body - arcs * sizeof(VertexId) !=
          (nv + 1) * sizeof(uint64_t) + nlabels * sizeof(Label)) {
    return Status::InvalidArgument("header does not match the size of " +
                                   path);
  }
  std::vector<uint64_t> row_ptr(nv + 1);
  std::vector<VertexId> col(arcs);
  std::vector<Label> labels(nlabels);
  if (!get(row_ptr.data(), row_ptr.size() * sizeof(uint64_t)) ||
      !get(col.data(), col.size() * sizeof(VertexId)) ||
      (nlabels > 0 && !get(labels.data(), labels.size() * sizeof(Label)))) {
    return Status::InvalidArgument("truncated body in " + path);
  }
  // Rebuild through FromEdges to revalidate invariants. row_ptr must run
  // from 0 to arcs without decreasing, checked before each row is read.
  if (row_ptr[0] != 0 || row_ptr[nv] != arcs) {
    return Status::InvalidArgument("row_ptr does not span the arcs in " +
                                   path);
  }
  std::vector<Edge> edges;
  edges.reserve(arcs / 2);
  for (VertexId u = 0; u < nv; ++u) {
    if (row_ptr[u + 1] < row_ptr[u] || row_ptr[u + 1] > arcs) {
      return Status::InvalidArgument("row_ptr out of order in " + path);
    }
    for (uint64_t i = row_ptr[u]; i < row_ptr[u + 1]; ++i) {
      if (col[i] >= nv) {
        return Status::InvalidArgument("neighbor id out of range in " + path);
      }
      if (u < col[i]) edges.push_back({u, col[i]});
    }
  }
  Graph g = Graph::FromEdges(static_cast<VertexId>(nv), edges);
  if (nlabels > 0) g.SetLabels(std::move(labels));
  return g;
}

}  // namespace gpm::graph
