// 1-D executors for every method of the paper's comparison.
//
// All kernels share the Jacobi ping-pong driver and the Dirichlet-halo
// semantics of stencil/reference.hpp. The vector methods differ only in how
// they organize data for SIMD — which is exactly the variable the paper's
// Figure 8 isolates:
//   MultipleLoads  one unaligned load per tap,
//   DataReorg      aligned loads + in-register concatenation shifts,
//   DLT            global dimension-lifting transpose with seam fixups,
//   Ours           the register-transpose layout (one aligned load per
//                  in-block vector, blend+rotate for the two edge vectors),
//   Ours2          Ours + temporal folding with m=2 (Λ = p², intermediate
//                  time level never materialized; boundary ring recomputed
//                  stepwise).
#include <stdexcept>
#include <vector>

#include "fold/region.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "kernels/tl_access.hpp"
#include "layout/dlt_layout.hpp"
#include "simd/transpose.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

template <int W>
using V = simd::vecd<W>;

/// Runtime tap table with per-tap broadcast weights.
template <int W>
struct VTaps1 {
  std::vector<int> off;
  std::vector<V<W>> w;
  int r = 0;

  explicit VTaps1(const Pattern1D& p) {
    for (const auto& t : p.taps) {
      off.push_back(t.off[0]);
      w.push_back(V<W>::set1(t.w));
    }
    r = p.radius();
  }
  int size() const { return static_cast<int>(off.size()); }
};

double scalar_apply(const Pattern1D& p, const double* in, int i) {
  double acc = 0;
  for (const auto& t : p.taps) acc += t.w * in[i + t.off[0]];
  return acc;
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------
void run_naive1d(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b, const Pattern1D* src,
                 const FieldView1D* k, int tsteps) {
  run_reference(p, a, b, tsteps, src, k);
}

// ---------------------------------------------------------------------------
// Multiple loads
// ---------------------------------------------------------------------------
template <int W>
void run_ml1d(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b, const Pattern1D* src,
              const FieldView1D* k, int tsteps) {
  const int n = a.n();
  VTaps1<W> taps(p);
  VTaps1<W> staps(src != nullptr ? *src : Pattern1D{});
  const double* kk = k != nullptr ? k->data() : nullptr;

  const FieldView1D* cur = &a;
  const FieldView1D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    const double* in = cur->data();
    double* out = nxt->data();
    int x = 0;
    for (; x + W <= n; x += W) {
      V<W> acc = V<W>::zero();
      for (int i = 0; i < taps.size(); ++i)
        acc = V<W>::fma(taps.w[i], V<W>::loadu(in + x + taps.off[i]), acc);
      for (int i = 0; i < staps.size(); ++i)
        acc = V<W>::fma(staps.w[i], V<W>::loadu(kk + x + staps.off[i]), acc);
      acc.store(out + x);
    }
    for (; x < n; ++x) {
      double acc = scalar_apply(p, in, x);
      if (src != nullptr) acc += scalar_apply(*src, kk, x);
      out[x] = acc;
    }
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

// ---------------------------------------------------------------------------
// Data reorganization
// ---------------------------------------------------------------------------
template <int W>
void run_dr1d(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b, const Pattern1D* src,
              const FieldView1D* k, int tsteps) {
  const int n = a.n();
  if (p.radius() > W || (src != nullptr && src->radius() > W)) {
    run_naive1d(p, a, b, src, k, tsteps);  // shifts cannot reach that far
    return;
  }
  VTaps1<W> taps(p);
  VTaps1<W> staps(src != nullptr ? *src : Pattern1D{});
  const double* kk = k != nullptr ? k->data() : nullptr;

  const FieldView1D* cur = &a;
  const FieldView1D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    const double* in = cur->data();
    double* out = nxt->data();
    int x = 0;
    for (; x + W <= n; x += W) {
      V<W> l = V<W>::loadu(in + x - W);
      V<W> c = V<W>::loadu(in + x);
      V<W> r = V<W>::loadu(in + x + W);
      V<W> acc = V<W>::zero();
      for (int i = 0; i < taps.size(); ++i)
        acc = V<W>::fma(taps.w[i], shifted<W>(l, c, r, taps.off[i]), acc);
      if (src != nullptr) {
        V<W> kl = V<W>::loadu(kk + x - W);
        V<W> kc = V<W>::loadu(kk + x);
        V<W> kr = V<W>::loadu(kk + x + W);
        for (int i = 0; i < staps.size(); ++i)
          acc = V<W>::fma(staps.w[i], shifted<W>(kl, kc, kr, staps.off[i]), acc);
      }
      acc.store(out + x);
    }
    for (; x < n; ++x) {
      double acc = scalar_apply(p, in, x);
      if (src != nullptr) acc += scalar_apply(*src, kk, x);
      out[x] = acc;
    }
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

// ---------------------------------------------------------------------------
// DLT
// ---------------------------------------------------------------------------
template <int W>
void run_dlt1d(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b, const Pattern1D* src,
               const FieldView1D* k, int tsteps) {
  const int n = a.n();
  const int L = n / W;
  const int n0 = L * W;
  const int r = p.radius();
  const int sr = src != nullptr ? src->radius() : 0;
  if (L < 2 * std::max(r, sr) + 1) {
    run_naive1d(p, a, b, src, k, tsteps);  // too short to lift
    return;
  }
  VTaps1<W> taps(p);
  VTaps1<W> staps(src != nullptr ? *src : Pattern1D{});

  grid_to_dlt(a, W);
  // The source array is lifted into a private copy so `k` stays untouched.
  Grid1D kd(k != nullptr ? k->n() : 1, k != nullptr ? k->halo() : 1);
  if (k != nullptr) {
    copy(*k, kd);
    grid_to_dlt(kd, W);
  }
  const double* kk = k != nullptr ? kd.data() : nullptr;

  const int seam = std::max(r, sr);
  const FieldView1D* cur = &a;
  const FieldView1D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    const double* in = cur->data();
    double* out = nxt->data();
    // Lifted interior columns: neighbours are adjacent columns, same lanes.
    for (int j = seam; j < L - seam; ++j) {
      V<W> acc = V<W>::zero();
      for (int i = 0; i < taps.size(); ++i)
        acc = V<W>::fma(taps.w[i], V<W>::load(in + (j + taps.off[i]) * W), acc);
      for (int i = 0; i < staps.size(); ++i)
        acc = V<W>::fma(staps.w[i], V<W>::load(kk + (j + staps.off[i]) * W), acc);
      acc.store(out + j * W);
    }
    // Seam columns and the unlifted tail, via the logical index map.
    auto scalar_at = [&](int i) {
      double acc = 0;
      for (const auto& tp : p.taps) acc += tp.w * in[dlt_index(i + tp.off[0], n, W)];
      if (src != nullptr)
        for (const auto& tp : src->taps)
          acc += tp.w * kk[dlt_index(i + tp.off[0], n, W)];
      return acc;
    };
    for (int lane = 0; lane < W; ++lane)
      for (int j = 0; j < seam; ++j) {
        const int il = lane * L + j;          // left seam, logical
        const int ir = lane * L + (L - 1 - j);  // right seam, logical
        out[dlt_index(il, n, W)] = scalar_at(il);
        out[dlt_index(ir, n, W)] = scalar_at(ir);
      }
    for (int i = n0; i < n; ++i) out[i] = scalar_at(i);
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
  grid_from_dlt(a, W);
}

// ---------------------------------------------------------------------------
// Ours: register-transpose layout, 1-step
// ---------------------------------------------------------------------------

/// One time step over a transposed row; shared by Ours and the remainder
/// step of Ours2. Taps' radius must be <= W.
template <int W>
void tl_step_1d(const VTaps1<W>& taps, const Pattern1D& p, const VTaps1<W>& staps,
                const Pattern1D* src, const double* kk, int n,
                const double* in_p, double* out_p) {
  TLRow<W> in(in_p, n);
  TLRow<W> kin(kk != nullptr ? kk : in_p, n);
  const int bs = W * W;
  const int R = taps.r;
  V<W> vv[3 * W];
  V<W> vk[3 * W];

  for (int blk = 0; blk < in.nb; ++blk) {
    for (int i = 0; i < W + 2 * R; ++i) vv[i] = in.vec(blk, i - R);
    if (src != nullptr)
      for (int i = 0; i < W + 2 * staps.r; ++i) vk[i] = kin.vec(blk, i - staps.r);
    for (int j = 0; j < W; ++j) {
      V<W> acc = V<W>::zero();
      for (int i = 0; i < taps.size(); ++i)
        acc = V<W>::fma(taps.w[i], vv[j + taps.off[i] + R], acc);
      for (int i = 0; i < staps.size(); ++i)
        acc = V<W>::fma(staps.w[i], vk[j + staps.off[i] + staps.r], acc);
      acc.store(out_p + blk * bs + j * W);
    }
  }
  // Untransposed tail.
  for (int i = in.nb * bs; i < n; ++i) {
    double acc = 0;
    for (const auto& t : p.taps) acc += t.w * in.logical(i + t.off[0]);
    if (src != nullptr)
      for (const auto& t : src->taps) acc += t.w * kin.logical(i + t.off[0]);
    out_p[i] = acc;
  }
}

template <int W>
void run_ours1_1d(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b, const Pattern1D* src,
                  const FieldView1D* k, int tsteps) {
  const int n = a.n();
  if (p.radius() > W || (src != nullptr && src->radius() > W)) {
    run_naive1d(p, a, b, src, k, tsteps);  // edge assembly covers one block
    return;
  }
  VTaps1<W> taps(p);
  VTaps1<W> staps(src != nullptr ? *src : Pattern1D{});

  // Transposed-resident views (core/engine.hpp) are already in layout: the
  // per-call involution in and out is skipped, and a resident source array
  // is read zero-copy instead of through a transformed private copy.
  const bool resident = a.layout() == Layout::Transposed;
  if (!resident) grid_transpose_layout<W>(a);
  StagedSource1D<W> ks(k);
  const double* kk = ks.data;

  const FieldView1D* cur = &a;
  const FieldView1D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    tl_step_1d<W>(taps, p, staps, src, kk, n, cur->data(), nxt->data());
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
  if (!resident) grid_transpose_layout<W>(a);  // involution: original order
}

// ---------------------------------------------------------------------------
// Ours2: transpose layout + temporal folding, m = 2
// ---------------------------------------------------------------------------
template <int W>
void run_ours2_1d(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b, const Pattern1D* src,
                  const FieldView1D* k, int tsteps) {
  const int n = a.n();
  const int r = p.radius();
  const Pattern1D lam = power(p, 2);
  const int R = lam.radius();
  Pattern1D fsrc;  // folded source: (I + p) applied to src
  if (src != nullptr) fsrc = compose(power_sum(p, 2), *src);
  if (R > W || (src != nullptr && fsrc.radius() > W)) {
    run_ours1_1d<W>(p, a, b, src, k, tsteps);  // folding needs R <= W
    return;
  }

  VTaps1<W> taps(p);
  VTaps1<W> ltaps(lam);
  VTaps1<W> staps(src != nullptr ? *src : Pattern1D{});
  VTaps1<W> fstaps(src != nullptr ? fsrc : Pattern1D{});

  // Resident views skip the involution; see run_ours1_1d.
  const bool resident = a.layout() == Layout::Transposed;
  if (!resident) grid_transpose_layout<W>(a);
  StagedSource1D<W> ks(k);
  const double* kk = ks.data;

  // Scratch for the stepwise boundary-ring correction (width 2r frames).
  const auto f1segs = frame_segs(n, std::min(2 * r, n));
  std::vector<std::vector<double>> t1(f1segs.size());
  for (std::size_t s = 0; s < f1segs.size(); ++s)
    t1[s].resize(static_cast<std::size_t>(f1segs[s].b - f1segs[s].a));

  const FieldView1D* cur = &a;
  const FieldView1D* nxt = &b;
  int t = 0;
  for (; t + 2 <= tsteps; t += 2) {
    // Folded vector pass (values inside the ring are provisional).
    tl_step_1d<W>(ltaps, lam, fstaps, src != nullptr ? &fsrc : nullptr, kk, n,
                  cur->data(), nxt->data());

    // Ring correction: recompute t+1 on frames of width 2r, then t+2 on the
    // ring of width r, all scalar through the layout-aware accessors.
    TLRow<W> in(cur->data(), n);
    TLRowMut<W> out(nxt->data(), n);
    TLRow<W> kin(kk != nullptr ? kk : cur->data(), n);
    auto level0 = [&](int i) { return in.logical(i); };
    for (std::size_t s = 0; s < f1segs.size(); ++s) {
      const Seg seg = f1segs[s];
      for (int i = seg.a; i < seg.b; ++i) {
        double acc = 0;
        for (const auto& tp : p.taps) acc += tp.w * level0(i + tp.off[0]);
        if (src != nullptr)
          for (const auto& tp : src->taps) acc += tp.w * kin.logical(i + tp.off[0]);
        t1[s][static_cast<std::size_t>(i - seg.a)] = acc;
      }
    }
    auto level1 = [&](int i) -> double {
      if (i < 0 || i >= n) return in.logical(i);  // halo never advances
      for (std::size_t s = 0; s < f1segs.size(); ++s)
        if (i >= f1segs[s].a && i < f1segs[s].b)
          return t1[s][static_cast<std::size_t>(i - f1segs[s].a)];
      return 0.0;  // unreachable: ring neighbours lie in the frames
    };
    for (const Seg& seg : frame_segs(n, std::min(r, n))) {
      for (int i = seg.a; i < seg.b; ++i) {
        double acc = 0;
        for (const auto& tp : p.taps) acc += tp.w * level1(i + tp.off[0]);
        if (src != nullptr)
          for (const auto& tp : src->taps) acc += tp.w * kin.logical(i + tp.off[0]);
        out.logical(i) = acc;
      }
    }
    std::swap(cur, nxt);
  }
  for (; t < tsteps; ++t) {
    tl_step_1d<W>(taps, p, staps, src, kk, n, cur->data(), nxt->data());
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
  if (!resident) grid_transpose_layout<W>(a);
}

// ---------------------------------------------------------------------------
// Registration. Capabilities (see kernels/registry.hpp):
//  * naive/multiple-loads read at most `radius` beyond the interior;
//  * data-reorg's aligned L/C/R loads touch one full vector beyond it
//    (halo_floor = W) and its shifts reach at most W (max_radius = W);
//  * the transpose-layout methods assemble edge lanes from scalar halo
//    reads, so plain `radius` halo suffices; folding (m = 2) doubles it;
//  * Ours2's folded pass needs power(p, 2).radius() = 2r <= W.
// ---------------------------------------------------------------------------
const KernelRegistrar reg1d{{
    // Naive is ISA-independent scalar code; it is registered at every
    // level so exact-ISA lookups succeed, with width 1 reflecting how it
    // actually executes.
    // Tileability (last parameter): the wedge stage runs apply_pattern for
    // Naive (any radius); multiple-loads/data-reorg have no tiled stage;
    // 1-D DLT cannot be wedge-tiled (the lifted seam couples column 0 to
    // column L-1, see run_tile_plan); ours/ours-2step tile while the
    // (fold-doubled) radius fits the transposed vector window W.
    kernel1d_info(Method::Naive, Isa::Scalar, 1, 1, &run_naive1d, 0, 0, 0),
    kernel1d_info(Method::Naive, Isa::Avx2, 1, 1, &run_naive1d, 0, 0, 0),
    kernel1d_info(Method::Naive, Isa::Avx512, 1, 1, &run_naive1d, 0, 0, 0),
    kernel1d_info(Method::MultipleLoads, Isa::Scalar, 1, 1, &run_ml1d<1>),
    kernel1d_info(Method::MultipleLoads, Isa::Avx2, 4, 1, &run_ml1d<4>),
    kernel1d_info(Method::MultipleLoads, Isa::Avx512, 8, 1, &run_ml1d<8>),
    kernel1d_info(Method::DataReorg, Isa::Scalar, 1, 1, &run_dr1d<1>,
                  /*halo_floor=*/1, /*max_radius=*/1),
    kernel1d_info(Method::DataReorg, Isa::Avx2, 4, 1, &run_dr1d<4>, 4, 4),
    kernel1d_info(Method::DataReorg, Isa::Avx512, 8, 1, &run_dr1d<8>, 8, 8),
    kernel1d_info(Method::DLT, Isa::Scalar, 1, 1, &run_dlt1d<1>),
    kernel1d_info(Method::DLT, Isa::Avx2, 4, 1, &run_dlt1d<4>),
    kernel1d_info(Method::DLT, Isa::Avx512, 8, 1, &run_dlt1d<8>),
    // The transpose-layout methods keep field data in Layout::Transposed
    // between steps, so they declare it as their preferred resident layout
    // (transposed-tagged views skip the per-call involution).
    kernel1d_info(Method::Ours, Isa::Scalar, 1, 1, &run_ours1_1d<1>, 0, 1, 1,
                  Layout::Transposed),
    kernel1d_info(Method::Ours, Isa::Avx2, 4, 1, &run_ours1_1d<4>, 0, 4, 4,
                  Layout::Transposed),
    kernel1d_info(Method::Ours, Isa::Avx512, 8, 1, &run_ours1_1d<8>, 0, 8, 8,
                  Layout::Transposed),
    kernel1d_info(Method::Ours2, Isa::Scalar, 1, 2, &run_ours2_1d<1>, 0, -1,
                  -1),
    kernel1d_info(Method::Ours2, Isa::Avx2, 4, 2, &run_ours2_1d<4>, 0, 2, 2,
                  Layout::Transposed),
    kernel1d_info(Method::Ours2, Isa::Avx512, 8, 2, &run_ours2_1d<8>, 0, 4, 4,
                  Layout::Transposed),
}};

}  // namespace

}  // namespace sf
