// Vectorized temporal computation folding for 2-D stencils (paper §3.3,
// Figure 5), m = 2.
//
// Per W-row band and W-column vector set:
//   1. *Vertical folding*: each basis counterpart c_b is built from W+2R
//      aligned row loads, folded down with the basis column weights λ⁽ᵇ⁾.
//   2. *In-register transpose* of each counterpart square (the §2.3 kernel).
//   3. *Horizontal folding*: the output column at x is Σ coeff ·
//      c_b(x + dx); columns of neighbouring vector sets come from a
//      three-slot ring buffer — the trailing transposed counterpart vectors
//      of the previous square are exactly the paper's *shifts reuse* (§3.4).
//   4. Transpose back and store rows (the optional weighted transpose of
//      Fig. 5 folded into step 3's coefficients).
//
// The intermediate time level t+1 is never materialized anywhere: that is
// the arithmetic redundancy the method eliminates. Near the physical
// boundary the folded expansion is invalid (the Dirichlet halo never
// advances), so a stepwise ring correction overwrites the invalid band,
// exactly as in the scalar FoldedRunner2D.
#include <array>
#include <stdexcept>
#include <vector>

#include "fold/region.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/stage.hpp"
#include "simd/transpose.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"

namespace sf::detail {
namespace {

template <int W>
using V = simd::vecd<W>;

constexpr int kMaxR2 = folded_max_radius<2>();  // m = 2, r <= 2
constexpr int kMaxSrc = 2 * kMaxR2 + 2;  // basis columns + impulse

inline int floor_div_w(int c, int w) { return c >= 0 ? c / w : -((-c - 1) / w) - 1; }

/// Exact 2-step update of rectangle `f2` (which touches the domain shell):
/// t+1 is computed into a private buffer over f2's r-expansion (clipped to
/// the domain), then t+2 over f2. Neighbours outside the domain read the
/// time-invariant halo of `in`.
void ring_fix_rect_2d(const Pattern2D& p, const FieldView2D& in, const FieldView2D& out,
                      const Rect& f2, int ny, int nx) {
  const int r = p.radius();
  const Rect f1{std::max(f2.y0 - r, 0), std::min(f2.y1 + r, ny),
                std::max(f2.x0 - r, 0), std::min(f2.x1 + r, nx)};
  const int fw = f1.x1 - f1.x0;
  std::vector<double> buf(static_cast<std::size_t>(f1.y1 - f1.y0) * fw);
  for (int y = f1.y0; y < f1.y1; ++y)
    for (int x = f1.x0; x < f1.x1; ++x) {
      double acc = 0;
      for (const auto& t : p.taps) acc += t.w * in.at(y + t.off[0], x + t.off[1]);
      buf[static_cast<std::size_t>(y - f1.y0) * fw + (x - f1.x0)] = acc;
    }
  for (int y = f2.y0; y < f2.y1; ++y)
    for (int x = f2.x0; x < f2.x1; ++x) {
      double acc = 0;
      for (const auto& t : p.taps) {
        const int yy = y + t.off[0], xx = x + t.off[1];
        const bool inside = yy >= f1.y0 && yy < f1.y1 && xx >= f1.x0 && xx < f1.x1;
        acc += t.w * (inside ? buf[static_cast<std::size_t>(yy - f1.y0) * fw +
                                   (xx - f1.x0)]
                             : in.at(yy, xx));
      }
      out.at(y, x) = acc;
    }
}

}  // namespace

template <int W>
void folded2d_advance(const Pattern2D& p, const FoldingPlan& plan,
                      const Pattern2D& lambda, const FieldView2D& in, const FieldView2D& out,
                      bool reuse, int ry0, int ry1) {
  const int ny = in.ny(), nx = in.nx();
  const int r = p.radius();
  const int R = plan.radius;
  const int nbasis = static_cast<int>(plan.basis.size());
  const bool impulse = plan.uses_impulse;
  const int nsrc = nbasis + (impulse ? 1 : 0);
  const int nbx = nx / W;
  const int nxv = nbx * W;
  const int nyv = ry1 - (ry1 - ry0) % W;  // last full W-row band start bound

  // Broadcast basis weights once.
  std::array<std::array<V<W>, 2 * kMaxR2 + 1>, kMaxSrc> bw;
  for (int s = 0; s < nbasis; ++s)
    for (int dy = 0; dy <= 2 * R; ++dy)
      bw[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy)] =
          V<W>::set1(plan.basis[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy)]);

  struct Term {
    int dx;
    int src;
    V<W> w;
  };
  std::vector<Term> terms;
  for (const auto& t : plan.terms)
    terms.push_back({t.dx, t.basis_id >= 0 ? t.basis_id : nbasis,
                     V<W>::set1(t.coeff)});

  // Ring buffer: transposed counterpart columns for three consecutive
  // vector sets. slots[sl][src][j] = column vector (over the band's W rows)
  // of column j of that set.
  V<W> slots[3][kMaxSrc][W];

  for (int y0 = ry0; y0 < nyv; y0 += W) {
    // Builds the counterpart columns of vector-set `xb` into slot `sl`.
    auto fill = [&](int xb, int sl) {
      if (xb >= 0 && xb < nbx) {
        // Load each source row once and fold it into every counterpart
        // (rows are shared across all basis columns).
        V<W> vf[kMaxSrc][W];
        for (int s = 0; s < nsrc; ++s)
          for (int i = 0; i < W; ++i) vf[s][i] = V<W>::zero();
        for (int yy = -R; yy < W + R; ++yy) {
          const V<W> rowv = V<W>::loadu(in.row(y0 + yy) + xb * W);
          const int ilo = std::max(0, yy - R), ihi = std::min(W - 1, yy + R);
          for (int i = ilo; i <= ihi; ++i) {
            const int dy = yy - i;
            for (int s = 0; s < nbasis; ++s) {
              if (plan.basis[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy + R)] == 0.0)
                continue;
              vf[s][i] = V<W>::fma(
                  bw[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy + R)], rowv,
                  vf[s][i]);
            }
          }
          if (impulse && yy >= 0 && yy < W) vf[nbasis][yy] = rowv;
        }
        for (int s = 0; s < nsrc; ++s) {
          simd::transpose(vf[s]);
          for (int j = 0; j < W; ++j) slots[sl][s][j] = vf[s][j];
        }
      } else {
        // Edge pseudo-set: columns live in the x-halo (or just beyond the
        // aligned region); build scalar.
        alignas(64) double tmp[W];
        for (int s = 0; s < nsrc; ++s)
          for (int j = 0; j < W; ++j) {
            const int x = xb * W + j;
            for (int i = 0; i < W; ++i) {
              if (impulse && s == nbasis) {
                tmp[i] = in.at(y0 + i, x);
              } else {
                double acc = 0;
                for (int dy = -R; dy <= R; ++dy)
                  acc += plan.basis[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy + R)] *
                         in.at(y0 + i + dy, x);
                tmp[i] = acc;
              }
            }
            slots[sl][s][j] = V<W>::load(tmp);
          }
      }
    };

    // Emits output vector-set `xb`, with block bb's columns in slot slot_of(bb).
    auto emit = [&](int xb, auto slot_of) {
      V<W> oc[W];
      for (int j = 0; j < W; ++j) {
        V<W> acc = V<W>::zero();
        for (const Term& t : terms) {
          const int c = xb * W + j + t.dx;
          const int bb = floor_div_w(c, W);
          acc = V<W>::fma(t.w, slots[slot_of(bb)][t.src][c - bb * W], acc);
        }
        oc[j] = acc;
      }
      simd::transpose(oc);
      for (int i = 0; i < W; ++i) oc[i].store(out.row(y0 + i) + xb * W);
    };

    if (reuse) {
      // Pipeline: each vector set's counterparts are folded and transposed
      // exactly once; neighbours come from the ring buffer.
      fill(-1, 0);
      fill(0, 1);
      for (int xb = 0; xb < nbx; ++xb) {
        fill(xb + 1, (xb + 2) % 3);
        emit(xb, [](int bb) { return (bb + 1) % 3; });
      }
    } else {
      // Ablation: recompute all three neighbouring sets per output set.
      for (int xb = 0; xb < nbx; ++xb) {
        fill(xb - 1, 0);
        fill(xb, 1);
        fill(xb + 1, 2);
        emit(xb, [&](int bb) { return bb - xb + 1; });
      }
    }
  }

  // Alignment tails: scalar application of the folding matrix.
  if (nxv < nx) apply_pattern(lambda, in, out, ry0, ry1, nxv, nx);
  if (nyv < ry1) apply_pattern(lambda, in, out, nyv, ry1, 0, nxv);

  // Boundary-ring correction: the folded expansion assumed the Dirichlet
  // halo advances in time; recompute the invalid band (the domain-boundary
  // shell intersected with this row range) stepwise. Each rectangle uses a
  // private t+1 buffer over its r-expansion, so concurrent tile updates
  // never share scratch.
  if (r > 0) {
    std::vector<Rect> f2;  // shell(r) ∩ rows [ry0, ry1)
    f2.push_back({ry0, ry1, 0, std::min(r, nx)});
    if (nx > r) f2.push_back({ry0, ry1, std::max(nx - r, r), nx});
    if (ry0 < r) f2.push_back({ry0, std::min(r, ry1), 0, nx});
    if (ry1 > ny - r) f2.push_back({std::max(ny - r, ry0), ry1, 0, nx});
    for (const Rect& rc : f2)
      if (!rc.empty()) ring_fix_rect_2d(p, in, out, rc, ny, nx);
  }
}

template <int W>
void run_ours2_2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  run<Method::Ours2, W, 2>(p, a, b, nullptr, nullptr, tsteps);
}

template <int W>
void run_ours2_2d_noreuse(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  ping_pong(Stage<W, 2>(p, Method::Ours2, a.nx(), nullptr, nullptr, nullptr, /*reuse=*/false),
            a, b, tsteps);
}

template void run_ours2_2d<1>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d_noreuse<1>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d_noreuse<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d_noreuse<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void folded2d_advance<1>(const Pattern2D&, const FoldingPlan&,
                                  const Pattern2D&, const FieldView2D&, const FieldView2D&,
                                  bool, int, int);
template void folded2d_advance<4>(const Pattern2D&, const FoldingPlan&,
                                  const Pattern2D&, const FieldView2D&, const FieldView2D&,
                                  bool, int, int);
template void folded2d_advance<8>(const Pattern2D&, const FoldingPlan&,
                                  const Pattern2D&, const FieldView2D&, const FieldView2D&,
                                  bool, int, int);

}  // namespace sf::detail

namespace sf {
namespace {

// Folded-kernel registration. The folded pass applies power(p, 2), so the
// halo scales with fold_depth = 2 and the vector path engages only while
// 2r <= min(W, kMaxR2).
const KernelRegistrar reg2d_folded{{
    // The tiled stage (folded2d_advance over wedge row ranges) shares the
    // vector window, so the tiled radius range mirrors max_radius; the
    // wedge slope is fold-doubled (KernelInfo::wedge_slope).
    detail::kernel_entry<Method::Ours2, 1, 2>(Isa::Scalar, /*halo_floor=*/0,
                                              /*max_radius=*/-1,
                                              /*tiled_max_radius=*/-1),
    detail::kernel_entry<Method::Ours2, 4, 2>(Isa::Avx2, 0, 2, 2),
    detail::kernel_entry<Method::Ours2, 8, 2>(Isa::Avx512, 0, 2, 2),
}};

}  // namespace
}  // namespace sf
