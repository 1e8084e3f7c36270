#include "core/symmetry.h"

#include <sstream>

#include "common/logging.h"

namespace gpm::core {

std::vector<SymmetryRestriction> BreakSymmetry(
    const graph::Pattern& query, const std::vector<int>& order) {
  const int n = query.num_vertices();
  GAMMA_CHECK(static_cast<int>(order.size()) == n) << "order size";
  std::vector<int> pos_of(n);  // pattern vertex -> order position
  for (int d = 0; d < n; ++d) pos_of[order[d]] = d;

  std::vector<std::vector<int>> active = query.Automorphisms();
  std::vector<SymmetryRestriction> restrictions;

  for (int d = 0; d < n && active.size() > 1; ++d) {
    const int v = order[d];
    // Restrict v to the minimum of its orbit under the active group:
    // M(v) < M(sigma(v)) for every sigma moving v.
    bool moved = false;
    for (const auto& sigma : active) {
      if (sigma[v] == v) continue;
      moved = true;
      SymmetryRestriction r{d, pos_of[sigma[v]]};
      bool duplicate = false;
      for (const auto& existing : restrictions) {
        if (existing.smaller_pos == r.smaller_pos &&
            existing.larger_pos == r.larger_pos) {
          duplicate = true;
        }
      }
      if (!duplicate) restrictions.push_back(r);
    }
    if (!moved) continue;
    // Keep only automorphisms fixing v (the stabilizer).
    std::vector<std::vector<int>> stabilizer;
    for (auto& sigma : active) {
      if (sigma[v] == v) stabilizer.push_back(std::move(sigma));
    }
    active = std::move(stabilizer);
  }
  return restrictions;
}

std::string RestrictionsDebugString(
    const std::vector<SymmetryRestriction>& restrictions) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < restrictions.size(); ++i) {
    if (i > 0) os << ", ";
    os << "M" << restrictions[i].smaller_pos << "<M"
       << restrictions[i].larger_pos;
  }
  os << "]";
  return os.str();
}

}  // namespace gpm::core
