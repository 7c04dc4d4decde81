// Temporal computation folding, m = 2: the ours-2step bodies and their
// registration.
//
// The folded pass applies Λ = p² at once, so the intermediate time level is
// never materialized: that is the arithmetic redundancy the method
// eliminates. Within distance r of the physical boundary the folded
// expansion is invalid (the Dirichlet halo never advances in time), so a
// stepwise correction recomputes that shell: level t+1 over the shell's
// r-expansion into a private buffer, then t+2 on the shell — the same two
// single steps, bit for bit, that a multiple-loads run takes there.
//
// 1-D folds transposed rows: the transpose-layout step of Λ, with the APOP
// source folded to (I + p)·src, then the stepwise ring correction through
// the layout's index map.
//
// 2-D and 3-D share one body (paper §3.3, Figure 5). The paper treats a 3-D
// volume as a stack of 2-D slices; a 2-D run is the one-plane case with no
// z-reach. Per W-row band, every source plane within the z-reach of an
// output plane contributes a small set of counterpart columns, kept in a
// ring of 2·Rz+1 planes:
//   1. *Vertical folding*: each basis counterpart c_b is built from W+2R
//      aligned row loads, folded down with the basis column weights λ⁽ᵇ⁾.
//   2. *In-register transpose* of each counterpart square (the §2.3 kernel).
//   3. *Horizontal folding*: the output column at (z, x) is Σ coeff ·
//      c_b(z + dz, x + dx), read from the ring. Each counterpart column is
//      computed once and read by every output column and plane that needs
//      it: the paper's *shifts reuse* (§3.4) in x, and its sliding-window
//      generalization in z.
//   4. Transpose back and store rows (the optional weighted transpose of
//      Fig. 5 folded into step 3's coefficients).
// Everything off the full bands and vector sets runs the multiple-loads step
// on sub-views: the alignment tails apply Λ, and the shell correction
// takes two steps of p over each disjoint shell box (fold/region.hpp).
#include <algorithm>
#include <array>
#include <cstdlib>
#include <vector>

#include "fold/region.hpp"
#include "kernels/stage.hpp"
#include "simd/transpose.hpp"
#include "simd/vecd.hpp"

namespace sf::detail {

template <int W>
void folded1d_advance(const RowGroups<W>& folded, const RowGroups<W>& step,
                      int r, const double* k, const FieldView1D& in,
                      const FieldView1D& out, int lo, int hi) {
  tl_step<W, 1>(folded, in, out, k, lo, hi);

  const int n = in.n();
  if (r == 0) return;
  const double* a = in.data();
  double* o = out.data();
  auto at = [&](const double* row, int i) { return row[tl_index<W>(i, n)]; };
  // One single step at i, the field read through `level`.
  auto stepwise = [&](int i, auto&& level) {
    return step.template point<false>([&](std::size_t g, int t) {
      const int j = i + step.dx[t];
      return step.groups[g].input == 0 ? level(j) : at(k, j);
    });
  };
  for (int side = 0; side < 2; ++side) {
    const int r0 = side == 0 ? 0 : std::max(n - r, 0);
    const int r1 = side == 0 ? std::min(r, n) : n;
    if (std::max(r0, lo) >= std::min(r1, hi)) continue;
    const int f0 = std::max(r0 - r, 0), f1 = std::min(r1 + r, n);
    // Level t+1 over the ring's r-expansion: at most 3r points, and the
    // folded radius 2r is at most folded_max_radius.
    double t1[2 * folded_max_radius<W, 1>()];
    for (int i = f0; i < f1; ++i)
      t1[i - f0] = stepwise(i, [&](int j) { return at(a, j); });
    auto level1 = [&](int j) {
      return j < f0 || j >= f1 ? at(a, j) : t1[j - f0];  // halo never advances
    };
    for (int i = std::max(r0, lo); i < std::min(r1, hi); ++i)
      o[tl_index<W>(i, n)] = stepwise(i, level1);
  }
}

namespace {

template <int W>
using V = simd::vecd<W>;

/// Planes an output plane reads on either side: the largest |dz| of the
/// plan's terms (0 for a 2-D plan).
int z_reach(const FoldingPlan& plan) {
  int rz = 0;
  for (const FoldTerm& t : plan.terms) rz = std::max(rz, std::abs(t.dz));
  return rz;
}

/// One multiple-loads step of `g` from `in` to `out` over `b`.
template <int W, int D>
void box_step(const RowGroups<W>& g, const FieldView<D>& in,
              const FieldView<D>& out, const Box<D>& b) {
  if (b.empty()) return;
  const FieldView<D> o = out.sub(b.lo, b.hi);
  ml_step(g, in.sub(b.lo, b.hi), o, nullptr, 0, o.outer_extent());
}

/// Exact two-step update of shell box `f2` by single steps `g`: t+1 into
/// `scratch` over f2's r-expansion f1 (clipped to the domain), then t+2
/// over f2. The scratch's r-halo is copied from `in`, so neighbours
/// outside the domain read its time-invariant halo. `scratch` is private
/// to the calling thread and only grows.
template <int W, int D>
void shell_step(const RowGroups<W>& g, const FieldView<D>& in,
                const FieldView<D>& out, const Box<D>& f2,
                AlignedBuffer& scratch) {
  const int r = g.radius;
  Box<D> f1, t2;  // t2: f2 in the scratch's indices
  std::array<int, D> n{};
  std::array<std::ptrdiff_t, D> st{};
  std::size_t size = 1, origin = 0;
  for (int ax = 0; ax < D; ++ax) {
    f1.lo[ax] = std::max(f2.lo[ax] - r, 0);
    f1.hi[ax] = std::min(f2.hi[ax] + r, in.extent(ax));
    n[ax] = f1.hi[ax] - f1.lo[ax];
    t2.lo[ax] = f2.lo[ax] - f1.lo[ax];
    t2.hi[ax] = f2.hi[ax] - f1.lo[ax];
    st[ax] = static_cast<std::ptrdiff_t>(size);
    origin += static_cast<std::size_t>(r) * size;
    size *= static_cast<std::size_t>(n[ax] + 2 * r);
  }
  if (scratch.size() < size) scratch = AlignedBuffer(size);
  const FieldView<D> t1(scratch.data() + origin, n, st, r);
  const FieldView<D> from = in.sub(f1.lo, f1.hi);
  for_each_row(
      t1, -r, n[D - 1] + r, r,
      [&](int x0, int x1, bool edge, double* t, const double* i) {
        if (edge) {
          std::copy(i + x0, i + x1, t + x0);
        } else {
          std::copy(i + x0, i, t + x0);
          std::copy(i + n[0], i + x1, t + n[0]);
        }
      },
      from);
  ml_step(g, from, t1, nullptr, 0, n[D - 1]);
  const FieldView<D> o = out.sub(f2.lo, f2.hi);
  ml_step(g, t1.sub(t2.lo, t2.hi), o, nullptr, 0, o.outer_extent());
}

}  // namespace

std::size_t folded_window_doubles(const FoldingPlan& plan, int nx, int W) {
  const std::size_t nsrc = plan.basis.size() + (plan.uses_impulse ? 1 : 0);
  const std::size_t cols =
      static_cast<std::size_t>(nx / W * W + 2 * plan.radius);
  return static_cast<std::size_t>(2 * z_reach(plan) + 1) * nsrc * cols * W;
}

template <int W, int D>
void folded_advance(const RowGroups<W>& step, const RowGroups<W>& folded,
                    const FoldingPlan& plan, const FieldView<D>& in,
                    const FieldView<D>& out, AlignedBuffer& window, bool reuse,
                    int lo, int hi) {
  constexpr int kMaxR = folded_max_radius<W, D>();
  constexpr int kMaxSrc = 2 * kMaxR + 2;  // basis columns + impulse
  const int nx = in.nx();
  const int R = plan.radius, Rz = z_reach(plan), nring = 2 * Rz + 1;
  const int nbasis = static_cast<int>(plan.basis.size());
  const bool impulse = plan.uses_impulse;
  const int nsrc = nbasis + (impulse ? 1 : 0);
  const int nbx = nx / W;
  const int nxv = nbx * W;
  const std::size_t ncols = static_cast<std::size_t>(nxv + 2 * R);
  // The domain with its outer axis clipped to [lo, hi). 2-D: bands over
  // rows [lo, hi) of the one plane; 3-D: over every row, for planes [lo, hi).
  std::array<int, D> ext{};
  for (int ax = 0; ax < D; ++ax) ext[ax] = in.extent(ax);
  Box<D> box{{}, ext};
  box.lo[D - 1] = lo;
  box.hi[D - 1] = hi;
  const int z0 = D == 3 ? lo : 0, z1 = D == 3 ? hi : 1;
  const int nyv = box.hi[1] - (box.hi[1] - box.lo[1]) % W;  // full bands' end
  const std::size_t need = folded_window_doubles(plan, nx, W);
  if (window.size() < need) window = AlignedBuffer(need);

  auto row = [](const FieldView<D>& v, int z, int y) {
    if constexpr (D == 2) return v.row(y);
    else return v.row(z, y);
  };
  // Counterpart s of ring plane q, at column 0: column c of the band lives
  // at c * W, c in [-R, nxv + R).
  auto cp = [&](int q, int s) {
    const int slot = (q % nring + nring) % nring;
    return window.data() +
           (static_cast<std::size_t>(slot * nsrc + s) * ncols + R) * W;
  };

  // Weight of basis column s at row offset dy, and its broadcast.
  auto lam = [&](int s, int dy) {
    return plan.basis[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(dy + R)];
  };
  V<W> bw[kMaxSrc][2 * kMaxR + 1];
  for (int s = 0; s < nbasis; ++s)
    for (int dy = -R; dy <= R; ++dy) bw[s][dy + R] = V<W>::set1(lam(s, dy));
  struct Term {
    int dz, dx, src;
    V<W> w;
    const double* col;  // c_src(z + dz, dx) of the current output plane
  };
  std::vector<Term> terms;
  for (const auto& t : plan.terms)
    terms.push_back({t.dz, t.dx, t.basis_id >= 0 ? t.basis_id : nbasis,
                     V<W>::set1(t.coeff), nullptr});

  for (int y0 = box.lo[1]; y0 < nyv; y0 += W) {
    // Counterpart columns of vector set xb of plane q into the ring;
    // xb = -1 and xb = nbx stand for the R edge columns on either side,
    // which lie in the x-halo (or the tail) and are built scalar.
    auto fill = [&](int q, int xb) {
      if (xb < 0 || xb >= nbx) {
        const int c0 = xb < 0 ? -R : nxv;
        for (int s = 0; s < nsrc; ++s) {
          double* dst = cp(q, s);
          for (int c = c0; c < c0 + R; ++c)
            for (int i = 0; i < W; ++i) {
              double acc = 0;
              if (impulse && s == nbasis) {
                acc = row(in, q, y0 + i)[c];
              } else {
                for (int dy = -R; dy <= R; ++dy)
                  acc += lam(s, dy) * row(in, q, y0 + i + dy)[c];
              }
              dst[c * W + i] = acc;
            }
        }
        return;
      }
      // Load each source row once and fold it into every counterpart
      // (rows are shared across all basis columns).
      V<W> vf[kMaxSrc][W];
      for (int s = 0; s < nsrc; ++s)
        for (int i = 0; i < W; ++i) vf[s][i] = V<W>::zero();
      for (int yy = -R; yy < W + R; ++yy) {
        const V<W> rowv = V<W>::loadu(row(in, q, y0 + yy) + xb * W);
        const int ilo = std::max(0, yy - R), ihi = std::min(W - 1, yy + R);
        for (int i = ilo; i <= ihi; ++i) {
          const int dy = yy - i;
          for (int s = 0; s < nbasis; ++s)
            if (lam(s, dy) != 0.0)
              vf[s][i] = V<W>::fma(bw[s][dy + R], rowv, vf[s][i]);
        }
        if (impulse && yy >= 0 && yy < W) vf[nbasis][yy] = rowv;
      }
      for (int s = 0; s < nsrc; ++s) {
        simd::transpose(vf[s]);
        double* dst = cp(q, s) + static_cast<std::size_t>(xb) * W * W;
        for (int j = 0; j < W; ++j) vf[s][j].store(dst + j * W);
      }
    };

    // Emits output vector set xb of plane z from the ring.
    auto emit = [&](int z, int xb) {
      const std::size_t at = static_cast<std::size_t>(xb) * W * W;
      V<W> oc[W];
      for (int j = 0; j < W; ++j) {
        V<W> acc = V<W>::zero();
        for (const Term& t : terms)
          acc = V<W>::fma(t.w, V<W>::load(t.col + at + j * W), acc);
        oc[j] = acc;
      }
      simd::transpose(oc);
      for (int i = 0; i < W; ++i) oc[i].store(row(out, z, y0 + i) + xb * W);
    };

    // With reuse, every counterpart set is folded and transposed exactly
    // once: the ring planes before the first output plane's z + Rz up
    // front, then plane z + Rz one set ahead of the set being emitted (emit reads at most
    // R <= W columns past its own set). Without (the §3.4 ablation), the
    // three neighbouring sets of every ring plane are recomputed for each
    // output set.
    if (reuse)
      for (int q = z0 - Rz; q < z0 + Rz; ++q)
        for (int xb = -1; xb <= nbx; ++xb) fill(q, xb);
    for (int z = z0; z < z1; ++z) {
      for (Term& t : terms) t.col = cp(z + t.dz, t.src) + t.dx * W;
      if (reuse) {
        fill(z + Rz, -1);
        fill(z + Rz, 0);
      }
      for (int xb = 0; xb < nbx; ++xb) {
        if (reuse)
          fill(z + Rz, xb + 1);
        else
          for (int q = z - Rz; q <= z + Rz; ++q)
            for (int b = xb - 1; b <= xb + 1; ++b) fill(q, b);
        emit(z, xb);
      }
    }
  }

  // Alignment tails: the columns past the last full set, then the rows
  // past the last full band.
  Box<D> tail = box;
  tail.lo[0] = nxv;
  box_step(folded, in, out, tail);
  tail.lo[0] = 0;
  tail.hi[0] = nxv;
  tail.lo[1] = nyv;
  box_step(folded, in, out, tail);

  // Boundary-shell correction over this range, each shell point once.
  if (step.radius > 0) {
    thread_local AlignedBuffer scratch;
    for (const Box<D>& s : shell_boxes<D>(ext, step.radius, box))
      shell_step(step, in, out, s, scratch);
  }
}

template <int W>
void run_ours2_2d(const Pattern2D& p, const FieldView2D& a,
                  const FieldView2D& b, int tsteps) {
  run<Method::Ours2, W, 2>(p, a, b, nullptr, nullptr, tsteps);
}

template <int W>
void run_ours2_2d_noreuse(const Pattern2D& p, const FieldView2D& a,
                          const FieldView2D& b, int tsteps) {
  ping_pong(Stage<W, 2>(p, Method::Ours2, a.nx(), nullptr, nullptr, nullptr,
                        /*reuse=*/false),
            a, b, tsteps);
}

#define SF_INSTANTIATE(W)                                                      \
  template void folded1d_advance<W>(const RowGroups<W>&, const RowGroups<W>&,  \
                                    int, const double*, const FieldView1D&,    \
                                    const FieldView1D&, int, int);             \
  template void folded_advance<W, 2>(const RowGroups<W>&, const RowGroups<W>&, \
                                     const FoldingPlan&, const FieldView2D&,   \
                                     const FieldView2D&, AlignedBuffer&, bool, \
                                     int, int);                                \
  template void folded_advance<W, 3>(const RowGroups<W>&, const RowGroups<W>&, \
                                     const FoldingPlan&, const FieldView3D&,   \
                                     const FieldView3D&, AlignedBuffer&, bool, \
                                     int, int);                                \
  template void run_ours2_2d<W>(const Pattern2D&, const FieldView2D&,          \
                                const FieldView2D&, int);                      \
  template void run_ours2_2d_noreuse<W>(const Pattern2D&, const FieldView2D&,  \
                                        const FieldView2D&, int);
SF_INSTANTIATE(1)
SF_INSTANTIATE(4)
SF_INSTANTIATE(8)
#undef SF_INSTANTIATE

}  // namespace sf::detail

namespace sf {
namespace {

// Ours-2step registration. The folded pass applies power(p, 2), so the halo
// scales with fold_depth = 2 and the vector path engages while the folded
// radius 2r fits folded_max_radius (W in 1-D, min(W, 4) in 2-D, min(W, 2)
// in 3-D: exactly the 3-D presets). The tiled stage runs the same body over
// wedge ranges, so the tiled range mirrors max_radius; the wedge slope is
// fold-doubled (KernelInfo::wedge_slope). 1-D folds transposed rows, so
// that is its preferred resident layout.
template <int D>
KernelRegistrar folded_entries() {
  constexpr int r4 = detail::folded_max_radius<4, D>() / 2;
  constexpr int r8 = detail::folded_max_radius<8, D>() / 2;
  const Layout l = D == 1 ? Layout::Transposed : Layout::Natural;
  return KernelRegistrar{{
      detail::kernel_entry<Method::Ours2, 1, D>(Isa::Scalar, /*halo_floor=*/0,
                                                /*max_radius=*/-1,
                                                /*tiled_max_radius=*/-1),
      detail::kernel_entry<Method::Ours2, 4, D>(Isa::Avx2, 0, r4, r4, l),
      detail::kernel_entry<Method::Ours2, 8, D>(Isa::Avx512, 0, r8, r8, l),
  }};
}

const KernelRegistrar reg1d_folded = folded_entries<1>();
const KernelRegistrar reg2d_folded = folded_entries<2>();
const KernelRegistrar reg3d_folded = folded_entries<3>();

}  // namespace
}  // namespace sf
