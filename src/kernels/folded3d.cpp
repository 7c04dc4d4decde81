// Vectorized temporal folding for 3-D stencils, m = 2.
//
// The paper manipulates a 3-D volume as an Nz-layer stack of 2-D slices
// (§3.3). The folded pattern Λ = p² is sliced by dz; every slice's columns
// enter one shared regression (fold/folding_plan.cpp), so each *source
// plane* contributes a small set of counterpart columns that are computed
// once per plane and reused by all 2R+1 output planes whose window contains
// it — a sliding-window generalization of the 2-D shifts reuse to the z
// dimension. Per plane and W-column set the pipeline is the 2-D one:
// vertical fold, in-register transpose, horizontal fold over (dz, dx) terms,
// transpose back.
#include <array>
#include <stdexcept>
#include <vector>

#include "common/aligned_buffer.hpp"
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

constexpr int kMaxR3 = folded_max_radius<3>();  // m = 2, r = 1

/// Exact 2-step update of box `f2` (touching the domain shell): t+1 into a
/// private buffer over f2's r-expansion, then t+2 over f2.
void ring_fix_box_3d(const Pattern3D& p, const FieldView3D& in, const FieldView3D& out,
                     const Box& f2, int nz, int ny, int nx) {
  const int r = p.radius();
  const Box f1{std::max(f2.z0 - r, 0), std::min(f2.z1 + r, nz),
               std::max(f2.y0 - r, 0), std::min(f2.y1 + r, ny),
               std::max(f2.x0 - r, 0), std::min(f2.x1 + r, nx)};
  const int fw = f1.x1 - f1.x0;
  const int fh = f1.y1 - f1.y0;
  std::vector<double> buf(static_cast<std::size_t>(f1.z1 - f1.z0) * fh * fw);
  auto slot = [&](int z, int y, int x) -> std::size_t {
    return (static_cast<std::size_t>(z - f1.z0) * fh + (y - f1.y0)) * fw +
           (x - f1.x0);
  };
  for (int z = f1.z0; z < f1.z1; ++z)
    for (int y = f1.y0; y < f1.y1; ++y)
      for (int x = f1.x0; x < f1.x1; ++x) {
        double acc = 0;
        for (const auto& t : p.taps)
          acc += t.w * in.at(z + t.off[0], y + t.off[1], x + t.off[2]);
        buf[slot(z, y, x)] = acc;
      }
  for (int z = f2.z0; z < f2.z1; ++z)
    for (int y = f2.y0; y < f2.y1; ++y)
      for (int x = f2.x0; x < f2.x1; ++x) {
        double acc = 0;
        for (const auto& t : p.taps) {
          const int zz = z + t.off[0], yy = y + t.off[1], xx = x + t.off[2];
          const bool inside = zz >= f1.z0 && zz < f1.z1 && yy >= f1.y0 &&
                              yy < f1.y1 && xx >= f1.x0 && xx < f1.x1;
          acc += t.w * (inside ? buf[slot(zz, yy, xx)] : in.at(zz, yy, xx));
        }
        out.at(z, y, x) = acc;
      }
}

}  // namespace

Folded3DWindowShape folded3d_window_shape(const FoldingPlan& plan, int nx,
                                          int W) {
  const int R = plan.radius;
  const int nsrc =
      static_cast<int>(plan.basis.size()) + (plan.uses_impulse ? 1 : 0);
  const int ncols = nx / W * W + 2 * R;  // columns [-R, nxv+R)
  Folded3DWindowShape s;
  s.nbufs = static_cast<std::size_t>(2 * R + 1) *
            static_cast<std::size_t>(nsrc);
  s.doubles = static_cast<std::size_t>(ncols) * static_cast<std::size_t>(W);
  return s;
}

template <int W>
void folded3d_advance(const Pattern3D& p, const FoldingPlan& plan,
                      const Pattern3D& lambda, const FieldView3D& in, const FieldView3D& out,
                      std::vector<AlignedBuffer>& window, int rz0, int rz1) {
  const int nz = in.nz(), ny = in.ny(), nx = in.nx();
  const int r = p.radius();
  const int R = plan.radius;
  const int nbasis = static_cast<int>(plan.basis.size());
  const bool impulse = plan.uses_impulse;
  const int nsrc = nbasis + (impulse ? 1 : 0);
  const int nbx = nx / W;
  const int nxv = nbx * W;
  const int nyv = ny - ny % W;
  const int nwin = 2 * R + 1;

  // window[slot * nsrc + src] holds one plane's counterpart columns for the
  // current band; column x lives at offset (x + R) * W.
  const Folded3DWindowShape shape = folded3d_window_shape(plan, nx, W);
  if (window.size() != shape.nbufs ||
      (shape.nbufs > 0 && window[0].size() < shape.doubles)) {
    window.clear();
    for (std::size_t i = 0; i < shape.nbufs; ++i)
      window.emplace_back(shape.doubles);
  }

  struct Term {
    int dz, dx, src;
    V<W> w;
  };
  std::vector<Term> terms;
  for (const auto& t : plan.terms)
    terms.push_back({t.dz, t.dx, t.basis_id >= 0 ? t.basis_id : nbasis,
                     V<W>::set1(t.coeff)});

  std::array<std::array<V<W>, 2 * kMaxR3 + 1>, 2 * kMaxR3 + 2> bw;
  for (int s = 0; s < nbasis; ++s)
    for (int dy = 0; dy <= 2 * R; ++dy)
      bw[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy)] =
          V<W>::set1(plan.basis[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy)]);

  for (int y0 = 0; y0 < nyv; y0 += W) {
    // Computes all counterpart columns of source plane q into its slot.
    auto fill_plane = [&](int q) {
      const int slot = ((q % nwin) + nwin) % nwin;
      constexpr int kMaxSrc3 = 2 * kMaxR3 + 2;
      V<W> vf[kMaxSrc3][W];
      for (int xb = 0; xb < nbx; ++xb) {
        // Load each source row once and fold it into every counterpart
        // (rows are shared across all basis columns).
        for (int s = 0; s < nsrc; ++s)
          for (int i = 0; i < W; ++i) vf[s][i] = V<W>::zero();
        for (int yy = -R; yy < W + R; ++yy) {
          const V<W> rowv = V<W>::loadu(in.row(q, y0 + yy) + xb * W);
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
          double* buf = window[static_cast<std::size_t>(slot * nsrc + s)].data();
          for (int j = 0; j < W; ++j)
            vf[s][j].store(buf + static_cast<std::size_t>(xb * W + j + R) * W);
        }
      }
      for (int s = 0; s < nsrc; ++s) {
        double* buf = window[static_cast<std::size_t>(slot * nsrc + s)].data();
        // Edge columns in the x-halo, scalar.
        for (int x : {0, 1}) {
          for (int e = 0; e < R; ++e) {
            const int col = x == 0 ? -R + e : nxv + e;
            alignas(64) double tmp[W];
            for (int i = 0; i < W; ++i) {
              if (impulse && s == nbasis) {
                tmp[i] = in.at(q, y0 + i, col);
              } else {
                double acc = 0;
                for (int dy = -R; dy <= R; ++dy)
                  acc += plan.basis[static_cast<std::size_t>(s)][static_cast<std::size_t>(dy + R)] *
                         in.at(q, y0 + i + dy, col);
                tmp[i] = acc;
              }
            }
            V<W>::load(tmp).store(buf + static_cast<std::size_t>(col + R) * W);
          }
        }
      }
    };

    for (int q = rz0 - R; q < rz0 + R; ++q) fill_plane(q);
    for (int z = rz0; z < rz1; ++z) {
      fill_plane(z + R);
      // Emit output plane z for this band.
      V<W> oc[W];
      for (int xb = 0; xb < nbx; ++xb) {
        for (int j = 0; j < W; ++j) {
          V<W> acc = V<W>::zero();
          for (const Term& t : terms) {
            const int q = z + t.dz;
            const int slot = ((q % nwin) + nwin) % nwin;
            const double* buf =
                window[static_cast<std::size_t>(slot * nsrc + t.src)].data();
            acc = V<W>::fma(
                t.w,
                V<W>::load(buf + static_cast<std::size_t>(xb * W + j + t.dx + R) * W),
                acc);
          }
          oc[j] = acc;
        }
        simd::transpose(oc);
        for (int i = 0; i < W; ++i) oc[i].store(out.row(z, y0 + i) + xb * W);
      }
    }
  }

  // Alignment tails, scalar with the folding matrix.
  if (nxv < nx) apply_pattern(lambda, in, out, rz0, rz1, 0, ny, nxv, nx);
  if (nyv < ny) apply_pattern(lambda, in, out, rz0, rz1, nyv, ny, 0, nxv);

  // Boundary-shell correction: the domain shell(r) intersected with planes
  // [rz0, rz1), each box fixed stepwise with a private buffer (thread-safe
  // across disjoint plane ranges).
  if (r > 0) {
    std::vector<Box> f2;
    f2.push_back({rz0, rz1, 0, ny, 0, std::min(r, nx)});
    if (nx > r) f2.push_back({rz0, rz1, 0, ny, std::max(nx - r, r), nx});
    f2.push_back({rz0, rz1, 0, std::min(r, ny), 0, nx});
    if (ny > r) f2.push_back({rz0, rz1, std::max(ny - r, r), ny, 0, nx});
    if (rz0 < r) f2.push_back({rz0, std::min(r, rz1), 0, ny, 0, nx});
    if (rz1 > nz - r) f2.push_back({std::max(nz - r, rz0), rz1, 0, ny, 0, nx});
    for (const Box& bx : f2)
      if (!bx.empty()) ring_fix_box_3d(p, in, out, bx, nz, ny, nx);
  }
}

template void folded3d_advance<1>(const Pattern3D&, const FoldingPlan&,
                                  const Pattern3D&, const FieldView3D&, const FieldView3D&,
                                  std::vector<AlignedBuffer>&, int, int);
template void folded3d_advance<4>(const Pattern3D&, const FoldingPlan&,
                                  const Pattern3D&, const FieldView3D&, const FieldView3D&,
                                  std::vector<AlignedBuffer>&, int, int);
template void folded3d_advance<8>(const Pattern3D&, const FoldingPlan&,
                                  const Pattern3D&, const FieldView3D&, const FieldView3D&,
                                  std::vector<AlignedBuffer>&, int, int);

}  // namespace sf::detail

namespace sf {
namespace {

// Folded-kernel registration: the folded pass applies power(p, 2) and the
// plane window caps the folded radius at min(W, kMaxR3), so the vector path
// engages only for r = 1 (exactly the 3-D presets).
const KernelRegistrar reg3d_folded{{
    // Tiled stage shares the plane window: tiled radius mirrors max_radius
    // (see folded2d.cpp).
    detail::kernel_entry<Method::Ours2, 1, 3>(Isa::Scalar, /*halo_floor=*/0,
                                              /*max_radius=*/-1,
                                              /*tiled_max_radius=*/-1),
    detail::kernel_entry<Method::Ours2, 4, 3>(Isa::Avx2, 0, 1, 1),
    detail::kernel_entry<Method::Ours2, 8, 3>(Isa::Avx512, 0, 1, 1),
}};

}  // namespace
}  // namespace sf
