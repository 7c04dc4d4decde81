// The step bodies of every single-step method, written once over D, the
// Stage that binds them to a run, and the non-folded registrations. See
// kernels/stage.hpp for the method summary and the design.
#include <algorithm>
#include <vector>

#include "grid/grid_utils.hpp"
#include "kernels/stage.hpp"
#include "kernels/tl_access.hpp"
#include "runtime/worker_pool.hpp"

namespace sf::detail {
namespace {

template <int W>
using V = simd::vecd<W>;

/// Calls `fn(x0, x1, out_row, rows, taps)` for every output row of
/// [lo, hi) of the outer axis (x range [lo, hi) in 1-D, [0, nx) above).
/// `rows[g]` points at x = 0 of row group g's input row — the row of `in`
/// at the group's non-x offset, or the 1-D source row `k` — and `taps[t]`
/// at tap t's input scaled by `scale`: rows[g] + dx[t] * scale, with g the
/// group holding t (scale W steps lifted DLT columns).
template <int W, int D, class Fn>
void for_each_group_row(const RowGroups<W>& g, const FieldView<D>& in,
                        const FieldView<D>& out, const double* k, int lo,
                        int hi, int scale, Fn&& fn) {
  const std::size_t ng = g.groups.size();
  std::vector<std::ptrdiff_t> delta(ng, 0);
  for (std::size_t i = 0; i < ng; ++i)
    for (int ax = 1; ax < D; ++ax)
      delta[i] += g.groups[i].off[ax - 1] * in.axis_stride(ax);
  std::vector<const double*> rows(ng), taps(g.dx.size());
  for_each_row(
      out, lo, hi, 0,
      [&](int x0, int x1, bool, double* o, const double* i) {
        for (std::size_t r = 0; r < ng; ++r) {
          rows[r] = (g.groups[r].input == 0 ? i : k) + delta[r];
          for (int t = g.groups[r].t0; t < g.groups[r].t1; ++t)
            taps[t] = rows[r] + g.dx[t] * scale;
        }
        fn(x0, x1, o, rows.data(), taps.data());
      },
      in);
}

/// Point by point over [x0, x1) of one row (`taps` at scale 1). With
/// `kSplit` the 1-D source term is summed apart, as the reference does;
/// without it every tap continues one chain, as the vector bodies do, so a
/// point's bits do not depend on whether it falls in a row's tail.
template <bool kSplit, int W>
void scalar_span(const RowGroups<W>& g, const double* const* taps, double* o,
                 int x0, int x1) {
  for (int x = x0; x < x1; ++x)
    o[x] = g.template point<kSplit>(
        [&](std::size_t, int t) { return taps[t][x]; });
}

template <int W, int D>
void naive_step(const RowGroups<W>& g, const FieldView<D>& in,
                const FieldView<D>& out, const double* k, int lo, int hi) {
  for_each_group_row(g, in, out, k, lo, hi, 1,
                     [&](int x0, int x1, double* o, const double* const*,
                         const double* const* taps) {
                       scalar_span<true>(g, taps, o, x0, x1);
                     });
}

// Data reorganization: three aligned loads per row group, every tap an
// in-register shift of them. Requires g.radius <= W.
template <int W, int D>
void dr_step(const RowGroups<W>& g, const FieldView<D>& in,
             const FieldView<D>& out, const double* k, int lo, int hi) {
  for_each_group_row(
      g, in, out, k, lo, hi, 1,
      [&](int x0, int x1, double* o, const double* const* rows,
          const double* const* taps) {
        const auto* groups = g.groups.data();
        const int ng = static_cast<int>(g.groups.size());
        const V<W>* w = g.vw.data();
        const int* dx = g.dx.data();
        int x = x0;
        // Two vectors per iteration share the middle loads and their FMA
        // chains overlap.
        for (; x + 2 * W <= x1; x += 2 * W) {
          V<W> a0 = V<W>::zero(), a1 = V<W>::zero();
          for (int r = 0; r < ng; ++r) {
            const double* s = rows[r] + x;
            const V<W> l = V<W>::loadu(s - W);
            const V<W> c0 = V<W>::loadu(s);
            const V<W> c1 = V<W>::loadu(s + W);
            const V<W> rr = V<W>::loadu(s + 2 * W);
            for (int t = groups[r].t0; t < groups[r].t1; ++t) {
              a0 = V<W>::fma(w[t], shifted<W>(l, c0, c1, dx[t]), a0);
              a1 = V<W>::fma(w[t], shifted<W>(c0, c1, rr, dx[t]), a1);
            }
          }
          a0.storeu(o + x);
          a1.storeu(o + x + W);
        }
        for (; x + W <= x1; x += W) {
          V<W> acc = V<W>::zero();
          for (int r = 0; r < ng; ++r) {
            const double* s = rows[r] + x;
            const V<W> l = V<W>::loadu(s - W);
            const V<W> c = V<W>::loadu(s);
            const V<W> rr = V<W>::loadu(s + W);
            for (int t = groups[r].t0; t < groups[r].t1; ++t)
              acc = V<W>::fma(w[t], shifted<W>(l, c, rr, dx[t]), acc);
          }
          acc.storeu(o + x);
        }
        scalar_span<false>(g, taps, o, x, x1);
      });
}

// DLT: rows lifted with L = nx / W; x-neighbours are adjacent columns in
// the same lanes, except at the seams, which go scalar through the logical
// index map. Steps whole rows; requires L >= 2 * g.radius + 1.
template <int W, int D>
void dlt_step(const RowGroups<W>& g, const FieldView<D>& in,
              const FieldView<D>& out, const double* k, int lo, int hi) {
  const int nx = in.nx();
  const int L = nx / W;
  const int seam = g.radius;
  for_each_group_row(
      g, in, out, k, lo, hi, W,
      [&](int, int, double* o, const double* const* rows,
          const double* const* taps) {
        const V<W>* w = g.vw.data();
        const int nt = static_cast<int>(g.vw.size());
        int j = seam;
        // Two columns per iteration: their FMA chains overlap.
        for (; j + 2 <= L - seam; j += 2) {
          V<W> a0 = V<W>::zero(), a1 = V<W>::zero();
          for (int t = 0; t < nt; ++t) {
            a0 = V<W>::fma(w[t], V<W>::load(taps[t] + j * W), a0);
            a1 = V<W>::fma(w[t], V<W>::load(taps[t] + (j + 1) * W), a1);
          }
          a0.store(o + j * W);
          a1.store(o + (j + 1) * W);
        }
        for (; j < L - seam; ++j) {
          V<W> acc = V<W>::zero();
          for (int t = 0; t < nt; ++t)
            acc = V<W>::fma(w[t], V<W>::load(taps[t] + j * W), acc);
          acc.store(o + j * W);
        }
        auto at = [&](int i) {
          return g.template point<false>([&](std::size_t r, int t) {
            return rows[r][dlt_index(i + g.dx[t], nx, W)];
          });
        };
        for (int lane = 0; lane < W; ++lane)
          for (int j = 0; j < seam; ++j) {
            const int il = lane * L + j;            // left seam, logical
            const int ir = lane * L + (L - 1 - j);  // right seam, logical
            o[dlt_index(il, nx, W)] = at(il);
            o[dlt_index(ir, nx, W)] = at(ir);
          }
        for (int i = L * W; i < nx; ++i) o[i] = at(i);
      });
}

/// Row groups the transpose-layout window holds: one per non-x offset
/// within the radius cap, plus the source row in 1-D.
template <int W, int D>
constexpr int tl_max_groups() {
  const int rows = 2 * tl_max_radius<W, D>() + 1;
  return D == 1 ? 2 : D == 2 ? rows : rows * rows;
}

}  // namespace

template <int W, int D>
void ml_step(const RowGroups<W>& g, const FieldView<D>& in,
             const FieldView<D>& out, const double* k, int lo, int hi) {
  for_each_group_row(
      g, in, out, k, lo, hi, 1,
      [&](int x0, int x1, double* o, const double* const*,
          const double* const* taps) {
        const V<W>* w = g.vw.data();
        const int nt = static_cast<int>(g.vw.size());
        int x = x0;
        // Two vectors per iteration: their FMA chains overlap.
        for (; x + 2 * W <= x1; x += 2 * W) {
          V<W> a0 = V<W>::zero(), a1 = V<W>::zero();
          for (int t = 0; t < nt; ++t) {
            a0 = V<W>::fma(w[t], V<W>::loadu(taps[t] + x), a0);
            a1 = V<W>::fma(w[t], V<W>::loadu(taps[t] + x + W), a1);
          }
          a0.storeu(o + x);
          a1.storeu(o + x + W);
        }
        for (; x + W <= x1; x += W) {
          V<W> acc = V<W>::zero();
          for (int t = 0; t < nt; ++t)
            acc = V<W>::fma(w[t], V<W>::loadu(taps[t] + x), acc);
          acc.storeu(o + x);
        }
        scalar_span<false>(g, taps, o, x, x1);
      });
}

template <int W, int D>
void tl_step(const RowGroups<W>& g, const FieldView<D>& in,
             const FieldView<D>& out, const double* k, int lo, int hi) {
  constexpr int bs = W * W;
  constexpr int kWin = W + 2 * tl_max_radius<W, D>();
  const int nx = in.nx();
  const int nb = tl_blocks<W>(nx);
  // The per-row window holds vector i - rx of group r's row around the
  // block at win[r * kWin + i]; tap t of that group reads lane set j at
  // win[win_at[t] + j].
  std::vector<int> win_at(g.dx.size());
  for (std::size_t r = 0; r < g.groups.size(); ++r)
    for (int t = g.groups[r].t0; t < g.groups[r].t1; ++t)
      win_at[t] = static_cast<int>(r) * kWin + g.dx[t] + g.groups[r].rx;
  const int ntaps = static_cast<int>(win_at.size());
  const V<W>* w = g.vw.data();
  for_each_group_row(
      g, in, out, k, lo, hi, 1,
      [&](int x0, int x1, double* o, const double* const* rows,
          const double* const*) {
        auto span = [&](int s0, int s1) {
          for (int i = s0; i < s1; ++i)
            o[tl_index<W>(i, nx)] = g.template point<false>(
                [&](std::size_t r, int t) {
                  return rows[r][tl_index<W>(i + g.dx[t], nx)];
                });
        };
        const int b0 = (x0 + bs - 1) / bs;
        const int b1 = std::min(x1 / bs, nb);
        if (b0 >= b1) {
          span(x0, x1);
          return;
        }
        span(x0, b0 * bs);
        V<W> win[tl_max_groups<W, D>() * kWin];
        for (int blk = b0; blk < b1; ++blk) {
          for (std::size_t r = 0; r < g.groups.size(); ++r) {
            const TLRow<W> row(rows[r], nx);
            const int rx = g.groups[r].rx;
            V<W>* slot = win + r * kWin;
            for (int i = 0; i < W + 2 * rx; ++i) slot[i] = row.vec(blk, i - rx);
          }
          for (int j = 0; j < W; ++j) {
            V<W> acc = V<W>::zero();
            for (int t = 0; t < ntaps; ++t)
              acc = V<W>::fma(w[t], win[win_at[t] + j], acc);
            acc.store(o + blk * bs + j * W);
          }
        }
        span(b1 * bs, x1);
      });
}

template <int W, int D>
Stage<W, D>::Stage(const Pattern<D>& p, Method m, int nx,
                   const Pattern1D* src, const FieldView<D>* k,
                   WorkerPool* pool, bool reuse)
    : p_(p), method_(m), pool_(pool), reuse_(reuse) {
  if constexpr (D == 1)
    if (k != nullptr) src_ = src;
  groups_ = RowGroups<W>(p, src_);
  const int r = groups_.radius;
  if (method_ == Method::Ours2) {
    Pattern1D fsrc;  // 1-D: (I + p) applied to src
    if constexpr (D == 1)
      if (src_ != nullptr) fsrc = compose(power_sum(p, 2), *src_);
    folded_ = RowGroups<W>(power(p, 2), src_ != nullptr ? &fsrc : nullptr);
    if constexpr (D == 1) {
      if (folded_.radius > folded_max_radius<W, 1>()) method_ = Method::Ours;
    } else {
      plan_ = plan_folding(p, 2);
      if (plan_.radius > folded_max_radius<W, D>())
        method_ = Method::Naive;
    }
  }
  if ((method_ == Method::DataReorg && r > W) ||
      (method_ == Method::DLT && nx / W < 2 * r + 1) ||
      (method_ == Method::Ours && r > tl_max_radius<W, D>()))
    method_ = Method::Naive;

  if constexpr (D == 1) {
    const Layout l = layout();
    if (src_ == nullptr) return;
    if (l == Layout::Natural || k->layout() == l) {
      k_ = k->data();  // natural methods and resident arrays: zero-copy
      return;
    }
    staging_.emplace(k->n(), k->halo());
    copy(*k, *staging_);
    if (l == Layout::Transposed) grid_transpose_layout<W>(*staging_);
    else grid_to_dlt(*staging_, W);
    k_ = staging_->data();
  }
}

template <int W, int D>
Layout Stage<W, D>::layout() const {
  switch (method_) {
    case Method::Ours: return Layout::Transposed;
    case Method::Ours2: return D == 1 ? Layout::Transposed : Layout::Natural;
    case Method::DLT: return Layout::DLT;
    default: return Layout::Natural;
  }
}

template <int W, int D>
void Stage<W, D>::step(const FieldView<D>& in, const FieldView<D>& out,
                       int lo, int hi, int wk) const {
  switch (method_) {
    case Method::MultipleLoads: ml_step(groups_, in, out, k_, lo, hi); break;
    case Method::DataReorg: dr_step(groups_, in, out, k_, lo, hi); break;
    case Method::DLT: dlt_step(groups_, in, out, k_, lo, hi); break;
    case Method::Ours: tl_step(groups_, in, out, k_, lo, hi); break;
    case Method::Ours2:
      if constexpr (D == 1) {
        folded1d_advance<W>(folded_, groups_, p_.radius(), k_, in, out, lo,
                            hi);
      } else {
        // The folded window lives in the owning worker's pool arena
        // (allocated there, so its pages sit on the worker's NUMA node;
        // the pipelined schedule's prologue sizes it). Off-pool callers use
        // a calling-thread-local window. Both only grow.
        thread_local AlignedBuffer tls_window;
        AlignedBuffer& window =
            pool_ != nullptr && wk >= 0 ? pool_->arena(wk) : tls_window;
        folded_advance<W, D>(groups_, folded_, plan_, in, out, window,
                             reuse_, lo, hi);
      }
      break;
    default: naive_step(groups_, in, out, k_, lo, hi); break;
  }
}

template <int W, int D>
void Stage<W, D>::remainder(const FieldView<D>& in,
                            const FieldView<D>& out) const {
  // 1-D folds transposed rows; 2-D/3-D fold natural ones.
  if constexpr (D == 1) tl_step(groups_, in, out, k_, 0, in.n());
  else ml_step(groups_, in, out, k_, 0, in.outer_extent());
}

#define SF_INSTANTIATE(W, D)                                             \
  template class Stage<W, D>;                                            \
  template void ml_step<W, D>(const RowGroups<W>&, const FieldView<D>&, \
                              const FieldView<D>&, const double*, int, int); \
  template void tl_step<W, D>(const RowGroups<W>&, const FieldView<D>&, \
                              const FieldView<D>&, const double*, int, int);
SF_INSTANTIATE(1, 1)
SF_INSTANTIATE(4, 1)
SF_INSTANTIATE(8, 1)
SF_INSTANTIATE(1, 2)
SF_INSTANTIATE(4, 2)
SF_INSTANTIATE(8, 2)
SF_INSTANTIATE(1, 3)
SF_INSTANTIATE(4, 3)
SF_INSTANTIATE(8, 3)
#undef SF_INSTANTIATE

}  // namespace sf::detail

namespace sf {
namespace {

using detail::kernel_entry;

// ---------------------------------------------------------------------------
// Registration of the single-step methods; ours-2step registers with its
// folded bodies (folded.cpp). Capabilities (see kernels/registry.hpp):
//  * naive/multiple-loads read at most `radius` beyond the interior;
//  * data-reorg's aligned L/C/R loads touch one full vector beyond it
//    (halo_floor = W) and its shifts reach at most W (max_radius = W);
//  * the transpose layout assembles edge lanes from scalar halo reads, so
//    plain `radius` halo suffices; its window caps the radius at
//    tl_max_radius (W in 1-D, min(W, 4) in 2-D, min(W, 2) in 3-D), and the
//    layout is its preferred resident one (transposed-tagged views skip
//    the per-call involution).
// Naive is ISA-independent scalar code; it is registered at every level so
// exact-ISA lookups succeed, with width 1 reflecting how it executes.
// Tileability (tiled_max_radius): naive and multiple-loads wedge-tile at
// any radius (their step is the same [lo, hi) region step split tiling
// calls); data-reorg has no tiled stage; DLT tiles rows/planes at any
// radius (its lifted-row-count precondition is shape-dependent and checked
// by tiled_path_engages) but not 1-D columns (the lifted seam couples
// column 0 to column L-1); ours tiles while r fits its window.
// ---------------------------------------------------------------------------
template <int D>
KernelRegistrar single_step_entries() {
  using M = Method;
  const Layout tl = Layout::Transposed;
  const int dlt_tiled = D == 1 ? -1 : 0;
  return KernelRegistrar{{
      kernel_entry<M::Naive, 1, D>(Isa::Scalar, 0, 0, 0),
      kernel_entry<M::Naive, 1, D>(Isa::Avx2, 0, 0, 0),
      kernel_entry<M::Naive, 1, D>(Isa::Avx512, 0, 0, 0),
      kernel_entry<M::MultipleLoads, 1, D>(Isa::Scalar, 0, 0, 0),
      kernel_entry<M::MultipleLoads, 4, D>(Isa::Avx2, 0, 0, 0),
      kernel_entry<M::MultipleLoads, 8, D>(Isa::Avx512, 0, 0, 0),
      kernel_entry<M::DataReorg, 1, D>(Isa::Scalar, /*halo_floor=*/1,
                                       /*max_radius=*/1),
      kernel_entry<M::DataReorg, 4, D>(Isa::Avx2, 4, 4),
      kernel_entry<M::DataReorg, 8, D>(Isa::Avx512, 8, 8),
      kernel_entry<M::DLT, 1, D>(Isa::Scalar, 0, 0, dlt_tiled),
      kernel_entry<M::DLT, 4, D>(Isa::Avx2, 0, 0, dlt_tiled),
      kernel_entry<M::DLT, 8, D>(Isa::Avx512, 0, 0, dlt_tiled),
      kernel_entry<M::Ours, 1, D>(Isa::Scalar, 0, 1, 1, tl),
      kernel_entry<M::Ours, 4, D>(Isa::Avx2, 0, detail::tl_max_radius<4, D>(),
                                  detail::tl_max_radius<4, D>(), tl),
      kernel_entry<M::Ours, 8, D>(Isa::Avx512, 0,
                                  detail::tl_max_radius<8, D>(),
                                  detail::tl_max_radius<8, D>(), tl),
  }};
}

const KernelRegistrar reg1d = single_step_entries<1>();
const KernelRegistrar reg2d = single_step_entries<2>();
const KernelRegistrar reg3d = single_step_entries<3>();

}  // namespace
}  // namespace sf
