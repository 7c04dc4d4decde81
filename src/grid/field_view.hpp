/// \file
/// \brief Non-owning, zero-copy field views — the executor-facing grid type.
///
/// A FieldView is a pointer + extents + strides + halo (plus a Layout tag)
/// over memory the *caller* owns. Every executor in the library — the
/// registry kernels, the split-tiling engine, the naive reference — runs on
/// views, so a PreparedStencil (core/engine.hpp) can execute directly on
/// user buffers without the library ever allocating or copying field data.
/// Grid<D> (grid/grid.hpp) is the library's allocator: it derives from
/// FieldView<D>, so a Grid *is* a view of its own storage.
///
/// One class template serves every dimensionality: FieldView<D> stores its
/// extents and strides per axis (axis 0 = x, the contiguous one), and
/// FieldView1D/2D/3D are aliases keeping the historical constructors and
/// accessors. Code that works the same in any dimension — validation, halo
/// sync, layout transforms, the tiled driver — is written once over D on
/// top of for_each_row(), the row walker at the end of this header.
///
/// Views use *shallow const* semantics, like std::span: a `const FieldView&`
/// still hands out writable element access, because the view is a borrowed
/// reference to the caller's mutable buffer, not an owner. Executors take
/// `const FieldView&` parameters and write results through them.
///
/// Memory contract (what Grid guarantees and what raw caller buffers must
/// match — PreparedStencil::run validates it):
///  * interior element (0[,0,0]) is 64-byte aligned;
///  * the row stride is a multiple of 8 doubles, so the first interior
///    element of every row/plane is 64-byte aligned too;
///  * `halo` cells are addressable on each side of every dimension and hold
///    Dirichlet boundary values that executors read but never write.
#pragma once

#include <array>
#include <cstddef>

namespace sf {

/// Storage order of the elements a view covers. Executors transform
/// Natural input into their working layout and back on every call; views
/// tagged with a kernel's *preferred* layout (KernelInfo::preferred_layout,
/// Transposed for the register-transpose methods) execute resident — the
/// per-call involution is skipped, which is how streaming callers amortize
/// the transform across an advance() stream (core/engine.hpp
/// to_resident_layout). The tag is a caller promise about the bytes; a
/// mismatched tag is rejected by PreparedStencil::run validation, never
/// silently misinterpreted.
enum class Layout {
  Natural,     ///< Plain row-major order (what Grid allocates).
  Transposed,  ///< Register-transpose layout (layout/transpose_layout.hpp).
  DLT,         ///< Dimension-lifting transpose (layout/dlt_layout.hpp).
};

/// Display name of a Layout ("natural", "transposed", "dlt").
inline const char* layout_name(Layout l) {
  switch (l) {
    case Layout::Natural: return "natural";
    case Layout::Transposed: return "transposed";
    case Layout::DLT: return "dlt";
  }
  return "?";
}

/// Non-owning view of a D-dimensional halo field: an interior box with
/// `halo` addressable cells on each side of every axis. Indices are passed
/// outermost first (z, y, x), halo cells at negative indices.
template <int D>
class FieldView {
  static_assert(D >= 1 && D <= 3, "FieldView covers 1-D, 2-D and 3-D fields");

 public:
  /// An empty view (valid() is false).
  FieldView() = default;
  /// 1-D: wraps caller memory; `interior` points at logical element 0.
  FieldView(double* interior, int n, int halo,
            Layout layout = Layout::Natural, int layout_width = 0)
      : p_(interior), n_{n}, st_{1}, halo_(halo), layout_(layout),
        layout_w_(layout_width) {
    static_assert(D == 1, "this constructor builds a 1-D view");
  }
  /// 2-D: ny x nx interior, rows `stride` doubles apart; `interior` points
  /// at logical element (0,0).
  FieldView(double* interior, int ny, int nx, int stride, int halo,
            Layout layout = Layout::Natural, int layout_width = 0)
      : p_(interior), n_{nx, ny}, st_{1, stride}, halo_(halo),
        layout_(layout), layout_w_(layout_width) {
    static_assert(D == 2, "this constructor builds a 2-D view");
  }
  /// 3-D: nz x ny x nx interior, rows `stride` doubles apart, planes
  /// `plane_stride` doubles apart; `interior` points at (0,0,0).
  FieldView(double* interior, int nz, int ny, int nx, int stride,
            std::size_t plane_stride, int halo,
            Layout layout = Layout::Natural, int layout_width = 0)
      : p_(interior), n_{nx, ny, nz},
        st_{1, stride, static_cast<std::ptrdiff_t>(plane_stride)},
        halo_(halo), layout_(layout), layout_w_(layout_width) {
    static_assert(D == 3, "this constructor builds a 3-D view");
  }

  /// Any dimensionality at once: extents `n` and element strides, x first.
  FieldView(double* interior, const std::array<int, D>& n,
            const std::array<std::ptrdiff_t, D>& stride, int halo)
      : p_(interior), halo_(halo) {
    for (int ax = 0; ax < D; ++ax) {
      n_[ax] = n[ax];
      st_[ax] = stride[ax];
    }
  }

  /// Interior extent along `axis` (0 = x, 1 = y, 2 = z).
  int extent(int axis) const { return n_[axis]; }
  /// Interior extent of the outermost axis — the one the row walker and
  /// split tiling step along (x in 1-D, y in 2-D, z in 3-D).
  int outer_extent() const { return n_[D - 1]; }
  /// Distance in doubles between consecutive indices of `axis` (1 for x).
  std::ptrdiff_t axis_stride(int axis) const { return st_[axis]; }

  /// 1-D interior extent.
  int n() const {
    static_assert(D == 1, "n() is the 1-D extent; use nx()/ny()/nz()");
    return n_[0];
  }
  /// Interior row extent (the whole extent in 1-D).
  int nx() const { return n_[0]; }
  /// Interior row count (per plane in 3-D).
  int ny() const {
    static_assert(D >= 2, "a 1-D view has no y axis");
    return n_[1];
  }
  /// Interior plane count.
  int nz() const {
    static_assert(D == 3, "only a 3-D view has a z axis");
    return n_[2];
  }
  /// Distance between consecutive rows, in doubles.
  int stride() const {
    static_assert(D >= 2, "a 1-D view has no row stride");
    return static_cast<int>(st_[1]);
  }
  /// Distance between consecutive planes, in doubles.
  std::size_t plane_stride() const {
    static_assert(D == 3, "only a 3-D view has a plane stride");
    return static_cast<std::size_t>(st_[2]);
  }
  /// Addressable halo cells on each side of each dimension.
  int halo() const { return halo_; }
  /// Storage-order tag of the wrapped memory.
  Layout layout() const { return layout_; }
  /// SIMD width (in doubles) the non-natural layout was built with — the
  /// transforms permute differently per width, so resident validation
  /// matches this against the prepared kernel's width. 0 on natural views
  /// (and on tags that never recorded one, which resident validation
  /// rejects: such bytes cannot be verified).
  int layout_width() const { return layout_w_; }
  /// True when the view wraps memory (default-constructed views do not).
  bool valid() const { return p_ != nullptr; }

  /// Pointer to interior element (0[,0,0]).
  double* data() const { return p_; }
  /// Pointer to x = 0 of the row at the D-1 non-x indices, outermost first
  /// — row(y) in 2-D, row(z, y) in 3-D, row() in 1-D; indices may range
  /// over the halo.
  template <class... I>
  double* row(I... outer) const {
    static_assert(sizeof...(I) == D - 1, "row() takes the D-1 non-x indices");
    const std::ptrdiff_t ix[] = {0, static_cast<std::ptrdiff_t>(outer)...};
    std::ptrdiff_t off = 0;
    for (int k = 1; k < D; ++k) off += ix[k] * st_[D - k];
    return p_ + off;
  }
  /// Element access by logical index, outermost first (halo at negative
  /// indices).
  template <class... I>
  double& at(I... idx) const {
    static_assert(sizeof...(I) == D, "at() takes one index per axis");
    const std::ptrdiff_t ix[] = {static_cast<std::ptrdiff_t>(idx)...};
    std::ptrdiff_t off = ix[D - 1];
    for (int k = 0; k + 1 < D; ++k) off += ix[k] * st_[D - 1 - k];
    return p_[off];
  }

  /// The same view re-tagged with `l` (no data movement). Non-natural tags
  /// should record the SIMD width the transform used (to_resident_layout
  /// does this automatically).
  FieldView with_layout(Layout l, int layout_width = 0) const {
    FieldView v = *this;
    v.layout_ = l;
    v.layout_w_ = layout_width;
    return v;
  }
  /// The view itself (sliced out of a Grid), so helpers accept a view or a
  /// Grid alike.
  FieldView view() const { return *this; }
  /// The box [lo, hi) of this view (bounds x first, in this view's
  /// indices) as a view of its own: element 0 sits at `lo`, extents are
  /// hi - lo, and strides, halo and layout tag are kept. Its "halo" cells
  /// are this view's neighbouring cells, so a stencil step on the sub-view
  /// reads the surrounding field. Natural layout only: the bytes are not
  /// re-addressed.
  FieldView sub(const std::array<int, D>& lo,
                const std::array<int, D>& hi) const {
    FieldView v = *this;
    for (int ax = 0; ax < D; ++ax) {
      v.p_ += lo[ax] * st_[ax];
      v.n_[ax] = hi[ax] - lo[ax];
    }
    return v;
  }

 private:
  double* p_ = nullptr;
  int n_[D] = {};                // interior extent per axis, x first
  std::ptrdiff_t st_[D] = {};    // element stride per axis, x first
  int halo_ = 0;
  Layout layout_ = Layout::Natural;
  int layout_w_ = 0;
};

using FieldView1D = FieldView<1>;  ///< 1-D view: n interior elements.
using FieldView2D = FieldView<2>;  ///< 2-D view: ny x nx interior.
using FieldView3D = FieldView<3>;  ///< 3-D view: nz x ny x nx interior.

namespace detail {
/// `T` itself, as a nested name (which template deduction never looks
/// through).
template <class T>
struct Identity {
  using type = T;  ///< The wrapped type.
};
}  // namespace detail

/// FieldView<D> in a non-deduced context: a function template can take D
/// from a Pattern<D> argument and still accept Grids, which convert to the
/// view parameters implicitly.
template <int D>
using ViewArg = typename detail::Identity<FieldView<D>>::type;

/// The row walker: visits, as contiguous x-rows, the part of `v` whose
/// outermost index lies in [lo, hi) — the axes between the outermost and x
/// over [-h, n + h) — and calls
/// `fn(x0, x1, edge, v_row, more_row...)` once per row, outermost index
/// slowest. `v_row` and `more_row...` point at x = 0 of that row in `v` and
/// in each same-shaped view of `more` (strides may differ); [x0, x1) is the
/// row's x range, [-h, nx + h); `edge` is true for rows inside a halo slab
/// of a non-x axis. A 1-D view has no axis above x, so its outermost axis
/// *is* x: it is a single row whose x range is [lo, hi) itself.
template <int D, class Fn, class... More>
void for_each_row(const FieldView<D>& v, int lo, int hi, int h, Fn&& fn,
                  const More&... more) {
  if constexpr (D == 1) {
    if (lo < hi) fn(lo, hi, false, v.row(), more.row()...);
  } else if constexpr (D == 2) {
    for (int y = lo; y < hi; ++y)
      fn(-h, v.nx() + h, y < 0 || y >= v.ny(), v.row(y), more.row(y)...);
  } else {
    for (int z = lo; z < hi; ++z) {
      const bool edge_plane = z < 0 || z >= v.nz();
      for (int y = -h; y < v.ny() + h; ++y)
        fn(-h, v.nx() + h, edge_plane || y < 0 || y >= v.ny(), v.row(z, y),
           more.row(z, y)...);
    }
  }
}

}  // namespace sf
