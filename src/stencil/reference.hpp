// Naive reference executors.
//
// These define the ground-truth semantics every optimized kernel must match:
// Jacobi (two-array) update of the interior, Dirichlet halo that never
// changes. Each point accumulates its taps in pattern order with one
// rounding per tap (std::fma), the chain the kernels' scalar paths use.
// Region-limited application is exposed for the folded oracle
// (fold/folded_ref.hpp) and for checks that step a sub-box.
//
// Written once over the dimensionality D on the row walker; all entry
// points take zero-copy FieldViews (grid/field_view.hpp), and Grids
// convert implicitly.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "stencil/pattern.hpp"

namespace sf {

/// out = p(in) over the box [lo, hi), bounds x first.
template <int D>
void apply_box(const Pattern<D>& p, const ViewArg<D>& in,
               const ViewArg<D>& out, const std::array<int, D>& lo,
               const std::array<int, D>& hi) {
  for (int ax = 0; ax < D; ++ax)
    if (lo[ax] >= hi[ax]) return;
  std::vector<std::ptrdiff_t> off;  // each tap's offset in `in`, in doubles
  for (const auto& t : p.taps) {
    std::ptrdiff_t o = 0;
    for (int ax = 0; ax < D; ++ax) o += t.off[D - 1 - ax] * in.axis_stride(ax);
    off.push_back(o);
  }
  const FieldView<D> dst = out.sub(lo, hi);
  for_each_row(
      dst, 0, dst.outer_extent(), 0,
      [&](int x0, int x1, bool, double* o, const double* i) {
        for (int x = x0; x < x1; ++x) {
          double acc = 0;
          for (std::size_t t = 0; t < off.size(); ++t)
            acc = std::fma(p.taps[t].w, i[x + off[t]], acc);
          o[x] = acc;
        }
      },
      in.sub(lo, hi));
}

/// apply_box() with one [lo, hi) pair per axis, outermost first: (x0, x1)
/// in 1-D, (y0, y1, x0, x1) in 2-D, (z0, z1, y0, y1, x0, x1) in 3-D.
template <int D, class... I>
void apply_pattern(const Pattern<D>& p, const ViewArg<D>& in,
                   const ViewArg<D>& out, I... bounds) {
  static_assert(sizeof...(I) == 2 * D, "one [lo, hi) pair per axis");
  const int b[] = {static_cast<int>(bounds)...};
  std::array<int, D> lo{}, hi{};
  for (int ax = 0; ax < D; ++ax) {
    lo[ax] = b[2 * (D - 1 - ax)];
    hi[ax] = b[2 * (D - 1 - ax) + 1];
  }
  apply_box<D>(p, in, out, lo, hi);
}

/// Adds a time-invariant source contribution: out[i] += sum src.w * k[i+off].
inline void add_source(const Pattern1D& src, const FieldView1D& k,
                       const FieldView1D& out, int x0, int x1) {
  const double* ks = k.data();
  double* b = out.data();
  for (int i = x0; i < x1; ++i) {
    double acc = 0;
    for (const auto& t : src.taps) acc = std::fma(t.w, ks[i + t.off[0]], acc);
    b[i] += acc;
  }
}

/// Interior-only copy, used when an odd number of swaps leaves the result
/// in the scratch grid.
template <int D>
void copy_interior(const FieldView<D>& src, const ViewArg<D>& dst) {
  for_each_row(
      src, 0, src.outer_extent(), 0,
      [](int x0, int x1, bool, const double* from, double* to) {
        std::copy(from + x0, from + x1, to + x0);
      },
      dst);
}

/// Runs `tsteps` naive Jacobi steps; on return `a` holds the final state.
/// `src` over `k` is the 1-D APOP source term, step = p(A) + src(K)
/// (ignored above 1-D).
template <int D>
void run_reference(const Pattern<D>& p, const ViewArg<D>& a,
                   const ViewArg<D>& b, int tsteps,
                   const Pattern1D* src = nullptr,
                   const ViewArg<D>* k = nullptr) {
  const FieldView<D>* in = &a;
  const FieldView<D>* out = &b;
  for (int t = 0; t < tsteps; ++t) {
    std::array<int, D> n{};
    for (int ax = 0; ax < D; ++ax) n[ax] = in->extent(ax);
    apply_box<D>(p, *in, *out, {}, n);
    if constexpr (D == 1)
      if (src != nullptr && k != nullptr) add_source(*src, *k, *out, 0, n[0]);
    std::swap(in, out);
  }
  if (in != &a) copy_interior(*in, a);
}

}  // namespace sf
