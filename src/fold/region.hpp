// The boundary shell of a folded update.
//
// A folded m-step update is only valid where the whole dependency cone of
// intermediate time levels stays inside the interior (the Dirichlet halo
// never advances in time). The invalid shell is recomputed stepwise; this
// helper enumerates it as a handful of disjoint boxes, so every shell
// point is computed exactly once.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

namespace sf {

/// A box of a D-dimensional domain: [lo, hi) per axis, x first.
template <int D>
struct Box {
  std::array<int, D> lo{}, hi{};
  bool empty() const {
    for (int ax = 0; ax < D; ++ax)
      if (lo[ax] >= hi[ax]) return true;
    return false;
  }
};

/// The points of `clip` within distance < w of the boundary of the domain
/// [0, extents) (x first), as disjoint boxes: per axis, outermost first, a
/// low and a high slab spanning the axes not yet peeled. Outer slabs thus
/// keep whole rows, and a domain narrower than 2w on some axis is covered
/// whole.
template <int D>
std::vector<Box<D>> shell_boxes(const std::array<int, D>& extents, int w,
                                const Box<D>& clip) {
  std::vector<Box<D>> boxes;
  if (w <= 0) return boxes;
  Box<D> core;  // the part not peeled yet
  core.hi = extents;
  for (int ax = D - 1; ax >= 0; --ax) {
    const int n = extents[ax];
    const int inner0 = std::min(w, n), inner1 = std::max(n - w, inner0);
    for (const auto& [a, b] : {std::array{0, inner0}, std::array{inner1, n}}) {
      Box<D> s = core;
      s.lo[ax] = a;
      s.hi[ax] = b;
      for (int k = 0; k < D; ++k) {
        s.lo[k] = std::max(s.lo[k], clip.lo[k]);
        s.hi[k] = std::min(s.hi[k], clip.hi[k]);
      }
      if (!s.empty()) boxes.push_back(s);
    }
    core.lo[ax] = inner0;
    core.hi[ax] = inner1;
  }
  return boxes;
}

}  // namespace sf
