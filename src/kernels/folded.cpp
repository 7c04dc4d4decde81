// Temporal computation folding, m = 2: the ours-2step bodies and their
// registration.
//
// The folded pass applies Λ = p² at once, so the intermediate time level is
// never materialized: that is the arithmetic redundancy the method
// eliminates. Within distance r of the physical boundary the folded
// expansion is invalid (the Dirichlet halo never advances in time), so a
// stepwise correction recomputes that shell: level t+1 over the shell's
// r-expansion into a private buffer, then t+2 on the shell.
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
// Alignment tails apply Λ scalar.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <utility>
#include <vector>

#include "kernels/stage.hpp"
#include "simd/transpose.hpp"
#include "simd/vecd.hpp"

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

/// A box of a 2-D or 3-D domain, [lo, hi) per axis, x first; a 2-D box
/// spans z = [0, 1).
struct Slab {
  std::array<int, 3> lo{0, 0, 0}, hi{1, 1, 1};
  bool empty() const {
    return lo[0] >= hi[0] || lo[1] >= hi[1] || lo[2] >= hi[2];
  }
};

/// Element of `v` at x-first coordinates `c`.
template <int D>
double& elem(const FieldView<D>& v, const int* c) {
  if constexpr (D == 2) return v.at(c[1], c[0]);
  else return v.at(c[2], c[1], c[0]);
}

/// Calls `write(c, Σ w·read(c + off))` for every point c of `s`, over the
/// taps of `p` in pattern order.
template <int D, class Read, class Write>
void apply_slab(const Pattern<D>& p, const Slab& s, Read&& read,
                Write&& write) {
  int c[3], n[3];
  for (c[2] = s.lo[2]; c[2] < s.hi[2]; ++c[2])
    for (c[1] = s.lo[1]; c[1] < s.hi[1]; ++c[1])
      for (c[0] = s.lo[0]; c[0] < s.hi[0]; ++c[0]) {
        double acc = 0;
        for (const auto& t : p.taps) {
          n[2] = c[2];
          for (int ax = 0; ax < D; ++ax) n[ax] = c[ax] + t.off[D - 1 - ax];
          acc += t.w * read(n);
        }
        write(c, acc);
      }
}

/// The part of `box` within r of the domain boundary of `v`, as one low
/// and one high slab per axis, x first. Slabs may overlap: the stepwise fix
/// gives a point the same value in every slab.
template <int D>
std::vector<Slab> shell_slabs(const FieldView<D>& v, int r, const Slab& box) {
  std::vector<Slab> slabs;
  for (int ax = 0; ax < D; ++ax) {
    const int n = v.extent(ax);
    for (const auto& [a, b] : {std::pair{0, std::min(r, n)},
                               std::pair{std::max(n - r, r), n}}) {
      Slab s = box;
      s.lo[ax] = std::max(a, box.lo[ax]);
      s.hi[ax] = std::min(b, box.hi[ax]);
      if (!s.empty()) slabs.push_back(s);
    }
  }
  return slabs;
}

/// Exact two-step update of slab `f2`: t+1 into `buf` over f2's
/// r-expansion (clipped to the domain), then t+2 over f2. Neighbours
/// outside the domain read the time-invariant halo of `in`.
template <int D>
void shell_fix(const Pattern<D>& p, const FieldView<D>& in,
               const FieldView<D>& out, const Slab& f2,
               std::vector<double>& buf) {
  const int r = p.radius();
  Slab f1 = f2;
  for (int ax = 0; ax < D; ++ax) {
    f1.lo[ax] = std::max(f2.lo[ax] - r, 0);
    f1.hi[ax] = std::min(f2.hi[ax] + r, in.extent(ax));
  }
  const std::size_t fw = f1.hi[0] - f1.lo[0], fh = f1.hi[1] - f1.lo[1];
  auto slot = [&](const int* c) {
    return (static_cast<std::size_t>(c[2] - f1.lo[2]) * fh +
            static_cast<std::size_t>(c[1] - f1.lo[1])) * fw +
           static_cast<std::size_t>(c[0] - f1.lo[0]);
  };
  auto inside = [&](const int* c) {
    for (int ax = 0; ax < D; ++ax)
      if (c[ax] < f1.lo[ax] || c[ax] >= f1.hi[ax]) return false;
    return true;
  };
  buf.resize(fw * fh * static_cast<std::size_t>(f1.hi[2] - f1.lo[2]));
  apply_slab(
      p, f1, [&](const int* c) { return elem(in, c); },
      [&](const int* c, double v) { buf[slot(c)] = v; });
  apply_slab(
      p, f2,
      [&](const int* c) { return inside(c) ? buf[slot(c)] : elem(in, c); },
      [&](const int* c, double v) { elem(out, c) = v; });
}

}  // namespace

std::size_t folded_window_doubles(const FoldingPlan& plan, int nx, int W) {
  const std::size_t nsrc = plan.basis.size() + (plan.uses_impulse ? 1 : 0);
  const std::size_t cols =
      static_cast<std::size_t>(nx / W * W + 2 * plan.radius);
  return static_cast<std::size_t>(2 * z_reach(plan) + 1) * nsrc * cols * W;
}

template <int W, int D>
void folded_advance(const Pattern<D>& p, const FoldingPlan& plan,
                    const Pattern<D>& lambda, const FieldView<D>& in,
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
  Slab box;
  for (int ax = 0; ax < D; ++ax) box.hi[ax] = in.extent(ax);
  box.lo[D - 1] = lo;
  box.hi[D - 1] = hi;
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
      for (int q = box.lo[2] - Rz; q < box.lo[2] + Rz; ++q)
        for (int xb = -1; xb <= nbx; ++xb) fill(q, xb);
    for (int z = box.lo[2]; z < box.hi[2]; ++z) {
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

  // Alignment tails (the columns past the last full set, then the rows
  // past the last full band), scalar with the folding matrix.
  auto read_in = [&](const int* c) { return elem(in, c); };
  auto write_out = [&](const int* c, double v) { elem(out, c) = v; };
  Slab tail = box;
  tail.lo[0] = nxv;
  apply_slab(lambda, tail, read_in, write_out);
  tail.lo[0] = 0;
  tail.hi[0] = nxv;
  tail.lo[1] = nyv;
  apply_slab(lambda, tail, read_in, write_out);

  // Boundary-shell correction over this range. Each slab uses a buffer
  // private to the call, so concurrent tile updates never share scratch.
  if (p.radius() > 0) {
    std::vector<double> buf;
    for (const Slab& s : shell_slabs(in, p.radius(), box))
      shell_fix(p, in, out, s, buf);
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
  template void folded1d_advance<W>(const RowGroups<W>&, const Pattern1D&,     \
                                    const Pattern1D*, const double*,           \
                                    const FieldView1D&, const FieldView1D&,    \
                                    int, int);                                 \
  template void folded_advance<W, 2>(const Pattern2D&, const FoldingPlan&,     \
                                     const Pattern2D&, const FieldView2D&,     \
                                     const FieldView2D&, AlignedBuffer&, bool, \
                                     int, int);                                \
  template void folded_advance<W, 3>(const Pattern3D&, const FoldingPlan&,     \
                                     const Pattern3D&, const FieldView3D&,     \
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
