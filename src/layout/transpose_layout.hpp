// The paper's register-transpose layout (§2.2, Figure 1).
//
// Each aligned sub-sequence of W*W contiguous interior elements ("vector
// set") is viewed as a W x W matrix and transposed in place, so that an
// aligned vector load at offset j*W yields lanes {j, j+W, j+2W, ...} of the
// block. The transform is an involution: applying it twice restores the
// original layout. Halo cells and any tail shorter than W*W stay in original
// order; kernels access them scalar.
#pragma once

#include <algorithm>
#include <climits>

#include "grid/grid.hpp"
#include "simd/transpose.hpp"

namespace sf {

/// Number of full W*W blocks in a row of n elements.
template <int W>
constexpr int tl_blocks(int n) {
  return n / (W * W);
}

/// Storage index of logical element i of a transposed row (involution).
template <int W>
inline int tl_index(int i, int n) {
  const int bs = W * W;
  const int b = i / bs;
  if (i < 0 || b >= tl_blocks<W>(n)) return i;  // halo or tail: untouched
  const int r = i - b * bs;
  return b * bs + (r % W) * W + r / W;
}

/// Transposes in place the full W*W blocks of row[0..n) whose first
/// element lies in [x0, x1) — every block by default.
template <int W>
inline void row_transpose_layout(double* row, int n, int x0 = 0,
                                 int x1 = INT_MAX) {
  constexpr int bs = W * W;
  // First block index >= x / bs, for any sign of x.
  auto block_at = [](int x) { return x <= 0 ? 0 : (x - 1) / bs + 1; };
  const int b1 = std::min(tl_blocks<W>(n), block_at(x1));
  for (int b = block_at(x0); b < b1; ++b)
    simd::transpose_block_inplace<W>(row + b * bs);
}

/// Transforms the rows of `g` whose outermost index lies in [lo, hi)
/// (logical indices; halo rows/planes at negative ones) — see
/// for_each_row(). 2-D/3-D transforms include the *halo rows/planes*:
/// kernels read y/z-neighbours of boundary rows through layout-aware
/// views, so every row a kernel can touch must be in the same layout
/// (column halo stays in original order — tl_index maps it to itself). A
/// 1-D field's outermost axis is x, so there the range selects the blocks
/// that start in it. Disjoint ranges touch disjoint blocks and may run
/// concurrently: the pool-parallel to_resident_layout splits the range
/// over the placement map, each worker transforming its own tiles.
template <int W, class G>
inline void grid_transpose_layout(const G& g, int lo, int hi) {
  const auto v = g.view();
  for_each_row(v, lo, hi, v.halo(), [&](int x0, int x1, bool, double* row) {
    row_transpose_layout<W>(row, v.nx(), x0, x1);
  });
}

/// Transforms the whole field, halo rows/planes included.
template <int W, class G>
inline void grid_transpose_layout(const G& g) {
  const auto v = g.view();
  grid_transpose_layout<W>(v, -v.halo(), v.outer_extent() + v.halo());
}

/// Runtime-width dispatch (W in {1,4,8}; W = 1 is a no-op) of the range
/// form of grid_transpose_layout().
template <int D>
void apply_transpose_layout(const FieldView<D>& g, int w, int lo, int hi);

/// Runtime-width dispatch of the whole-field grid_transpose_layout().
template <int D>
void apply_transpose_layout(const FieldView<D>& g, int w) {
  apply_transpose_layout(g, w, -g.halo(), g.outer_extent() + g.halo());
}

}  // namespace sf
