// Temporal folding for 1-D stencils, m = 2, on transposed rows.
//
// The folded pass is the transpose-layout step of Λ = p² — with the APOP
// source folded to (I + p)·src — so the intermediate time level is never
// materialized. Within distance r of either domain end the folded
// expansion is invalid (the Dirichlet halo never advances), so a stepwise
// correction recomputes that ring: level t+1 on frames of width 2r into a
// private buffer, then t+2 on the ring, scalar through the layout's index
// map.
#include <algorithm>
#include <vector>

#include "kernels/stage.hpp"

namespace sf::detail {

template <int W>
void folded1d_advance(const RowGroups<W>& folded, const Pattern1D& p,
                      const Pattern1D* src, const double* k,
                      const FieldView1D& in, const FieldView1D& out, int lo,
                      int hi) {
  tl_step<W, 1>(folded, in, out, k, lo, hi);

  const int n = in.n();
  const int r = p.radius();
  if (r == 0) return;
  const double* a = in.data();
  double* o = out.data();
  auto at = [&](const double* row, int i) { return row[tl_index<W>(i, n)]; };
  auto stepwise = [&](int i, auto&& level) {
    double acc = 0;
    for (const auto& t : p.taps) acc += t.w * level(i + t.off[0]);
    if (src != nullptr)
      for (const auto& t : src->taps) acc += t.w * at(k, i + t.off[0]);
    return acc;
  };
  for (int side = 0; side < 2; ++side) {
    const int r0 = side == 0 ? 0 : std::max(n - r, 0);
    const int r1 = side == 0 ? std::min(r, n) : n;
    if (std::max(r0, lo) >= std::min(r1, hi)) continue;
    const int f0 = std::max(r0 - r, 0), f1 = std::min(r1 + r, n);
    std::vector<double> t1(static_cast<std::size_t>(f1 - f0));
    auto level0 = [&](int i) { return at(a, i); };
    for (int i = f0; i < f1; ++i)
      t1[static_cast<std::size_t>(i - f0)] = stepwise(i, level0);
    auto level1 = [&](int i) {
      if (i < f0 || i >= f1) return at(a, i);  // halo never advances
      return t1[static_cast<std::size_t>(i - f0)];
    };
    for (int i = std::max(r0, lo); i < std::min(r1, hi); ++i)
      o[tl_index<W>(i, n)] = stepwise(i, level1);
  }
}

template void folded1d_advance<1>(const RowGroups<1>&, const Pattern1D&,
                                  const Pattern1D*, const double*,
                                  const FieldView1D&, const FieldView1D&, int,
                                  int);
template void folded1d_advance<4>(const RowGroups<4>&, const Pattern1D&,
                                  const Pattern1D*, const double*,
                                  const FieldView1D&, const FieldView1D&, int,
                                  int);
template void folded1d_advance<8>(const RowGroups<8>&, const Pattern1D&,
                                  const Pattern1D*, const double*,
                                  const FieldView1D&, const FieldView1D&, int,
                                  int);

}  // namespace sf::detail

namespace sf {
namespace {

// Folded registration: the folded pass applies power(p, 2), so the halo
// scales with fold_depth = 2 and the vector path engages while the folded
// radius 2r fits the transposed window W; the tiled stage shares that
// window, so the tiled range mirrors max_radius. The layout is the
// transpose layout's, so it is the preferred resident one.
const KernelRegistrar reg1d_folded{{
    detail::kernel_entry<Method::Ours2, 1, 1>(Isa::Scalar, 0, -1, -1),
    detail::kernel_entry<Method::Ours2, 4, 1>(Isa::Avx2, 0, 2, 2,
                                              Layout::Transposed),
    detail::kernel_entry<Method::Ours2, 8, 1>(Isa::Avx512, 0, 4, 4,
                                              Layout::Transposed),
}};

}  // namespace
}  // namespace sf
