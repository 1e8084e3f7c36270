#include "graph/canonical.h"

#include <algorithm>
#include <numeric>

#include "common/random.h"

namespace gpm::graph {
namespace {

// Encodes the pattern in its current vertex order: vertex count, labels,
// then the upper-triangle adjacency bits packed row-major.
std::vector<uint8_t> Encode(const Pattern& p) {
  const int n = p.num_vertices();
  std::vector<uint8_t> enc;
  enc.reserve(1 + n * 4 + (n * n + 7) / 8);
  enc.push_back(static_cast<uint8_t>(n));
  for (int i = 0; i < n; ++i) {
    Label l = p.label(i);
    enc.push_back(static_cast<uint8_t>(l >> 24));
    enc.push_back(static_cast<uint8_t>(l >> 16));
    enc.push_back(static_cast<uint8_t>(l >> 8));
    enc.push_back(static_cast<uint8_t>(l));
  }
  uint8_t acc = 0;
  int nbits = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      acc = static_cast<uint8_t>((acc << 1) | (p.HasEdge(i, j) ? 1 : 0));
      if (++nbits == 8) {
        enc.push_back(acc);
        acc = 0;
        nbits = 0;
      }
    }
  }
  if (nbits > 0) enc.push_back(static_cast<uint8_t>(acc << (8 - nbits)));
  return enc;
}

uint64_t HashBytes(const std::vector<uint8_t>& bytes) {
  // FNV-1a, then mixed — enough dispersion for the pattern-table key space.
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return Mix64(h);
}

}  // namespace

std::vector<uint8_t> CanonicalEncoding(const Pattern& p) {
  const int n = p.num_vertices();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<uint8_t> best;
  do {
    std::vector<uint8_t> enc = Encode(p.Permuted(perm));
    if (best.empty() || enc < best) best = std::move(enc);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

uint64_t CanonicalCode(const Pattern& p) {
  return HashBytes(CanonicalEncoding(p));
}

uint64_t RawCode(const Pattern& p) {
  // Hashes the fields in place, with no byte vector: the vertex count and
  // the upper-triangle adjacency bits share one word, then each label is
  // mixed in.
  const int n = p.num_vertices();
  uint64_t shape = static_cast<uint64_t>(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (p.HasEdge(i, j)) shape |= 1ull << (8 + i * Pattern::kMaxVertices + j);
    }
  }
  uint64_t h = Mix64(shape);
  for (int i = 0; i < n; ++i) h = Mix64(h ^ p.label(i));
  return h;
}

}  // namespace gpm::graph
