// Halo grids over aligned storage.
//
// Semantics shared by every executor in this library: the *interior* is
// updated each time step, the *halo* (width chosen at construction) holds
// Dirichlet boundary values that are written once at initialization and never
// touched again. All optimized kernels must produce exactly the values the
// naive reference produces under these semantics.
//
// Layout guarantees:
//  * element (0[,0,0]) of the interior is 64-byte aligned,
//  * row stride is a multiple of 8 doubles, so the first interior element of
//    *every* row/plane is 64-byte aligned too.
#pragma once

#include <algorithm>
#include <array>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "common/aligned_buffer.hpp"
#include "grid/field_view.hpp"

namespace sf {

/// Doubles in one padded grid row of `nx` interior cells with `halo` cells
/// on each side: interior x = 0 sits round_up(halo, 8) into the row and its
/// length is a multiple of 8 doubles.
constexpr std::size_t padded_row(std::size_t nx, std::size_t halo) {
  return round_up(round_up(halo, 8) + nx + halo, 8);
}

/// Whether a view above 1-D can hold such rows: its row stride is an int,
/// so the padded row must not exceed INT_MAX doubles. Grid refuses to
/// allocate (and Engine::prepare to plan) anything beyond it.
constexpr bool row_stride_fits(std::size_t nx, std::size_t halo) {
  return padded_row(nx, halo) <= INT_MAX;
}

namespace detail {
/// Base-from-member: a Grid's storage, listed as its first base so the
/// buffer exists before the FieldView base that points into it.
struct GridStorage {
  AlignedBuffer buf;  ///< The grid's elements, halo and padding included.
};
}  // namespace detail

/// An owning D-dimensional halo field that *is* its own FieldView<D>: every
/// accessor (data, row, at, nx/ny/nz, stride, plane_stride, halo, view) is
/// the view's, so a Grid goes wherever a view is expected. Move-only; a
/// moved grid keeps its buffer, so views taken from it stay valid. Like
/// every view it has shallow-const semantics (grid/field_view.hpp).
template <int D>
class Grid : private detail::GridStorage, public FieldView<D> {
 public:
  /// 1-D: `n` interior elements. `zero_init = false` defers the
  /// page-placing first write to the caller (see AlignedBuffer; used with
  /// PreparedStencil::first_touch so a pinned worker pool places each
  /// worker's tiles on its NUMA node).
  Grid(int n, int halo, bool zero_init = true)
      : Grid(geometry({n}, halo), zero_init) {
    static_assert(D == 1, "this constructor builds a 1-D grid");
  }
  /// 2-D: ny x nx interior; `zero_init` as in the 1-D constructor.
  Grid(int ny, int nx, int halo, bool zero_init = true)
      : Grid(geometry({nx, ny}, halo), zero_init) {
    static_assert(D == 2, "this constructor builds a 2-D grid");
  }
  /// 3-D: nz x ny x nx interior; `zero_init` as in the 1-D constructor.
  Grid(int nz, int ny, int nx, int halo, bool zero_init = true)
      : Grid(geometry({nx, ny, nz}, halo), zero_init) {
    static_assert(D == 3, "this constructor builds a 3-D grid");
  }
  /// Any dimensionality: interior `extents`, x first; `zero_init` as in the
  /// 1-D constructor.
  Grid(const std::array<int, D>& extents, int halo, bool zero_init = true)
      : Grid(geometry(extents, halo), zero_init) {}

 private:
  // One allocation's shape: interior extents and element strides per axis
  // (x first), the offset of interior element 0, and the element count.
  struct Geometry {
    std::array<int, D> n;
    std::array<std::ptrdiff_t, D> stride;
    int halo;
    std::size_t origin;
    std::size_t elements;
  };

  // Each row is padded (padded_row()); every further axis stacks
  // n + 2*halo copies of the one below. Sizes are computed in size_t and
  // refused (std::length_error, before anything is allocated) when the row
  // stride outgrows the view's int stride or the buffer its address range.
  static Geometry geometry(const std::array<int, D>& n, int halo) {
    if (halo < 0 || *std::min_element(n.begin(), n.end()) < 0)
      throw std::invalid_argument("Grid: extents and halo must be >= 0");
    const std::size_t h = static_cast<std::size_t>(halo);
    const std::size_t nx = static_cast<std::size_t>(n[0]);
    Geometry g{n, {1}, halo, round_up(h, 8), padded_row(nx, h)};
    if (D > 1 && !row_stride_fits(nx, h))
      throw std::length_error("Grid: row stride exceeds INT_MAX doubles");
    for (int ax = 1; ax < D; ++ax) {
      g.stride[ax] = static_cast<std::ptrdiff_t>(g.elements);
      g.origin += h * g.elements;
      if (__builtin_mul_overflow(g.elements, n[ax] + 2 * h, &g.elements) ||
          g.elements > PTRDIFF_MAX / sizeof(double))
        throw std::length_error("Grid: buffer size overflows");
    }
    return g;
  }

  Grid(const Geometry& g, bool zero_init)
      : detail::GridStorage{AlignedBuffer(g.elements, zero_init)},
        FieldView<D>(buf.data() + g.origin, g.n, g.stride, g.halo) {}
};

using Grid1D = Grid<1>;  ///< 1-D grid: n interior elements.
using Grid2D = Grid<2>;  ///< 2-D grid: ny x nx interior.
using Grid3D = Grid<3>;  ///< 3-D grid: nz x ny x nx interior.

}  // namespace sf
