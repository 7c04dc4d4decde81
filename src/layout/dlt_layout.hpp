// Dimension-Lifting Transpose layout (Henretty et al.) — the baseline the
// paper improves on (§2.1).
//
// A row of n0 = W*L interior elements is viewed as a W x L matrix (row i =
// elements [i*L, (i+1)*L)) and globally transposed: storage position
// j*W + i holds logical element i*L + j. An aligned vector load at column j
// then delivers lanes {j, L+j, 2*L+j, ...}; the x-neighbour of the whole
// vector is simply column j±1, except at the L-boundary *seam* where lanes
// wrap to the adjacent matrix row.
//
// Unlike the paper's local transpose this is not an involution and is done
// out of place through a scratch buffer — exactly the space/latency overhead
// the paper criticizes. Tails shorter than W stay in original order.
#pragma once

#include <vector>

#include "grid/grid.hpp"

namespace sf {

/// Storage index of logical element i in a DLT row (n interior elements,
/// SIMD width w). Elements beyond the lifted prefix stay put.
inline int dlt_index(int i, int n, int w) {
  const int L = n / w;
  const int n0 = L * w;
  if (i < 0 || i >= n0) return i;
  return (i % L) * w + (i / L);
}

/// Lifts row[0..n) into DLT layout using `scratch` (size >= n).
void row_to_dlt(double* row, int n, int w, double* scratch);

/// Inverse transform.
void row_from_dlt(double* row, int n, int w, double* scratch);

/// Applies row_to_dlt (`lift`) or row_from_dlt to every row of `g`. 2-D/3-D
/// transforms include halo rows/planes: kernels read y/z-neighbours of
/// boundary rows through the lifted index map, so those rows must be
/// lifted too.
template <int D>
void transform_dlt(const FieldView<D>& g, int w, bool lift);

/// Lifts a view or Grid into DLT layout.
template <class G>
void grid_to_dlt(const G& g, int w) {
  transform_dlt(g.view(), w, true);
}

/// Inverse of grid_to_dlt().
template <class G>
void grid_from_dlt(const G& g, int w) {
  transform_dlt(g.view(), w, false);
}

}  // namespace sf
