// The kernel layer, written once over the dimensionality D.
//
// Every executor advances a Jacobi problem and differs from the others
// only in how it organizes data for SIMD, which is exactly the variable
// the paper's Figure 8 isolates:
//   Naive          scalar loops, the reference semantics;
//   MultipleLoads  one unaligned load per tap;
//   DataReorg      aligned loads + in-register concatenation shifts;
//   DLT            global dimension-lifting transpose with seam fixups;
//   Ours           the register-transpose layout (one aligned load per
//                  in-block vector, blend+rotate for the two edge vectors);
//   Ours2          temporal folding with m = 2 (Λ = p², the intermediate
//                  time level never materialized; boundary ring
//                  recomputed stepwise).
//
// The paper treats a 3-D volume as a stack of 2-D slices and vectorizes x
// the same way in every dimension (§3.3). So does this layer:
//
//  * A *row group* is the taps of a pattern that share one non-x offset:
//    one input row per output row, read at x + dx. RowGroups turns a
//    pattern into its groups; the 1-D APOP source term is simply one more
//    group, read from the source array `k` instead of the field.
//  * Naive, multiple-loads, data-reorg, DLT and the transpose layout each
//    have exactly one *step* body (kernels.cpp): one time step over
//    [lo, hi) of the outer axis of a FieldView<D>, built on for_each_row
//    and the row groups.
//  * Stage<W, D> binds one method to one run's operands (pattern, source
//    term, fold plan) and offers step() — one super-step over [lo, hi) —
//    and remainder(), the single step of a folded run's odd tail. Untiled
//    runs and the split-tiling engine (tiling/split_tiling.cpp) call the
//    same Stage.
//  * ping_pong() is the one run loop: layout transform in and out (skipped
//    for resident views), the super-step loop, the folded remainder and
//    the copy-back. Every registered run_* entry point goes through it;
//    the tiled engine passes its wedge schedule as the sweep.
//
// What stays per dimension is what genuinely differs: the folded (m = 2)
// advance bodies — the 1-D transposed ring (folded1d.cpp), the 2-D
// shifts-reuse ring buffer (folded2d.cpp) and the 3-D plane window
// (folded3d.cpp) — and the registration tables, which are data.
//
// Layout contract: Stage::step/remainder read and write data already in
// Stage::layout(); ping_pong() transforms Natural views in and out, and
// views already tagged with that layout execute resident.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "fold/folding_plan.hpp"
#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "layout/dlt_layout.hpp"
#include "layout/transpose_layout.hpp"
#include "simd/vecd.hpp"
#include "stencil/pattern.hpp"
#include "stencil/reference.hpp"

namespace sf {

class WorkerPool;

namespace detail {

/// Largest radius the transpose-layout step handles: edge vectors reach at
/// most one block (W) to either side, and the per-row window is sized
/// from these caps — 4 in 2-D, 2 in 3-D, where a row group per (dz, dy)
/// multiplies the window.
template <int W, int D>
constexpr int tl_max_radius() {
  return D == 1 ? W : std::min(W, D == 2 ? 4 : 2);
}

/// Largest folded radius (plan.radius = 2r) the 2-D ring buffer and the
/// 3-D plane window hold.
template <int D>
constexpr int folded_max_radius() {
  return D == 2 ? 4 : 2;
}

/// A pattern (plus the optional 1-D source term) read as row groups: the
/// taps sharing one non-x offset, in tap order, each group naming the
/// input it reads (0 = the field, 1 = the source array) and its non-x
/// offsets. Patterns keep their taps sorted by offset, so walking the
/// groups in order visits the taps in pattern order.
template <int W>
struct RowGroups {
  struct Group {
    int input = 0;       ///< 0: the field; 1: the 1-D source array.
    int off[2] = {};     ///< Offsets along axis 1 (y) and axis 2 (z).
    int rx = 0;          ///< Largest |dx| of the group's taps.
    int t0 = 0, t1 = 0;  ///< The group's taps: [t0, t1) of dx / w / vw.
  };
  std::vector<Group> groups;
  std::vector<int> dx;
  std::vector<double> w;
  std::vector<simd::vecd<W>> vw;  ///< w, broadcast.
  int radius = 0;  ///< Chebyshev radius over every tap of both inputs.
  bool has_source = false;

  RowGroups() = default;
  template <int D>
  RowGroups(const Pattern<D>& p, const Pattern1D* src) {
    add(p, 0);
    if (src != nullptr) add(*src, 1);
    has_source = src != nullptr;
  }

  /// The value at one point: `read(g, t)` yields the input of tap t,
  /// which belongs to group g. With `kSplit` the source term is summed on
  /// its own and added last, p(A) + src(K), as the reference does;
  /// otherwise every tap continues one chain, as the layout methods'
  /// vector bodies do.
  template <bool kSplit, class Read>
  double point(Read&& read) const {
    double acc = 0, acc_src = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      double& sum = kSplit && groups[g].input == 1 ? acc_src : acc;
      for (int t = groups[g].t0; t < groups[g].t1; ++t)
        sum = std::fma(w[t], read(g, t), sum);
    }
    return kSplit && has_source ? acc + acc_src : acc;
  }

 private:
  template <int D>
  void add(const Pattern<D>& p, int input) {
    // Groups in order of first appearance of their non-x offset (for
    // sorted patterns, contiguous runs of taps), then each group's taps.
    auto same_row = [](const Group& g, const typename Pattern<D>::Tap& t) {
      for (int ax = 1; ax < D; ++ax)
        if (g.off[ax - 1] != t.off[D - 1 - ax]) return false;
      return true;
    };
    const std::size_t first = groups.size();
    for (const auto& t : p.taps) {
      std::size_t g = first;
      while (g < groups.size() && !same_row(groups[g], t)) ++g;
      if (g < groups.size()) continue;
      Group row;
      row.input = input;
      for (int ax = 1; ax < D; ++ax) row.off[ax - 1] = t.off[D - 1 - ax];
      groups.push_back(row);
    }
    for (std::size_t g = first; g < groups.size(); ++g) {
      groups[g].t0 = static_cast<int>(dx.size());
      for (const auto& t : p.taps) {
        if (!same_row(groups[g], t)) continue;
        const int x = t.off[D - 1];
        groups[g].rx = std::max(groups[g].rx, std::abs(x));
        dx.push_back(x);
        w.push_back(t.w);
        vw.push_back(simd::vecd<W>::set1(t.w));
      }
      groups[g].t1 = static_cast<int>(dx.size());
    }
    radius = std::max(radius, p.radius());
  }
};

/// One transpose-layout step over [lo, hi) of the outer axis; the rows of
/// `in`, `out` and the 1-D source row `k` are in the transpose layout.
/// Whole vector sets go vectorized, partial ones scalar through the index
/// map. Requires g.radius <= tl_max_radius<W, D>().
template <int W, int D>
void tl_step(const RowGroups<W>& g, const FieldView<D>& in,
             const FieldView<D>& out, const double* k, int lo, int hi);

/// One method bound to one run's operands. The constructor resolves the
/// method that actually engages for this pattern and row extent `nx`:
/// data-reorg, DLT, the transpose layout and folding fall back (to Naive,
/// or 1-D folding to Ours) where their vector path cannot reach, exactly
/// the ranges the registry's max_radius declares.
template <int W, int D>
class Stage {
 public:
  /// `src` over `k` is the 1-D APOP source term (ignored above 1-D); a
  /// source array not already in the working layout is staged through a
  /// private copy, so `k` stays untouched. `pool` supplies the 3-D folded
  /// plane window of pool workers; `reuse` toggles the 2-D shifts-reuse
  /// ring buffer (the §3.4 ablation).
  Stage(const Pattern<D>& p, Method m, int nx, const Pattern1D* src = nullptr,
        const FieldView<D>* k = nullptr, WorkerPool* pool = nullptr,
        bool reuse = true);

  /// The method that engages (after the fallbacks above).
  Method method() const { return method_; }
  /// The layout step() and remainder() work in.
  Layout layout() const;
  /// Time steps one step() advances: 2 for ours-2step, else 1.
  int fold_depth() const { return method_ == Method::Ours2 ? 2 : 1; }
  /// The 2-D/3-D folding plan (empty unless method() is Ours2).
  const FoldingPlan& plan() const { return plan_; }

  /// One super-step from `in` to `out` over [lo, hi) of the outer axis.
  /// `wk` is the executing pool worker (-1 on the calling thread). Safe to
  /// call concurrently on disjoint ranges.
  void step(const FieldView<D>& in, const FieldView<D>& out, int lo, int hi,
            int wk = -1) const;
  /// One plain time step over the whole domain: the odd tail of a folded
  /// run.
  void remainder(const FieldView<D>& in, const FieldView<D>& out) const;

 private:
  const Pattern<D>& p_;
  Method method_;
  const Pattern1D* src_ = nullptr;  // 1-D source term, null without `k`
  std::optional<Grid1D> staging_;   // private copy of `k` in layout
  const double* k_ = nullptr;       // the source array step() reads
  RowGroups<W> groups_;             // p (+ src): every single step
  RowGroups<W> folded_;             // 1-D Ours2: power(p, 2) (+ folded src)
  Pattern<D> lam_;                  // 2-D/3-D Ours2: power(p, 2)
  FoldingPlan plan_;
  WorkerPool* pool_;
  bool reuse_;
};

/// Transforms `a` and `b` into (`in`) or out of layout `l`. A 1-D row
/// keeps its halo in natural order and every step writes each interior
/// cell of `b` before reading it, so `b` stays put in 1-D; above 1-D steps
/// read y/z-neighbours of boundary rows, so both buffers, halo rows
/// included, are transformed.
template <int W, int D>
void transform_pair(Layout l, const FieldView<D>& a, const FieldView<D>& b,
                    bool in) {
  const FieldView<D>* views[2] = {&a, &b};
  for (int i = 0; i < (D == 1 ? 1 : 2); ++i) {
    if (l == Layout::Transposed) grid_transpose_layout<W>(*views[i]);
    else if (in) grid_to_dlt(*views[i], W);
    else grid_from_dlt(*views[i], W);
  }
}

/// `supers` full-domain super-steps starting from `a`; returns the buffer
/// parity they end on (1 = the result is in `b`).
template <int W, int D>
int full_sweeps(const Stage<W, D>& s, const FieldView<D>& a,
                const FieldView<D>& b, int supers) {
  const FieldView<D>* bufs[2] = {&a, &b};
  int cursor = 0;
  for (int i = 0; i < supers; ++i, cursor ^= 1)
    s.step(*bufs[cursor], *bufs[cursor ^ 1], 0, a.outer_extent());
  return cursor;
}

/// The ping-pong loop: advances `tsteps` steps and leaves the result in
/// `a`. `sweep(supers)` runs the super-steps and returns the parity they
/// end on; ping_pong() owns everything around it — the layout transform in
/// (unless `layout_in` is false because the sweep transforms as it goes)
/// and out, skipped for views already in the stage's layout; the single
/// steps of the folded remainder; and the copy-back.
template <int W, int D, class Sweep>
void ping_pong(const Stage<W, D>& s, const FieldView<D>& a,
               const FieldView<D>& b, int tsteps, Sweep&& sweep,
               bool layout_in = true) {
  const Layout l = s.layout();
  const bool transform = l != Layout::Natural && a.layout() != l;
  if (transform && layout_in) transform_pair<W>(l, a, b, true);
  const int supers = tsteps / s.fold_depth();
  int cursor = sweep(supers);
  const FieldView<D>* bufs[2] = {&a, &b};
  for (int t = supers * s.fold_depth(); t < tsteps; ++t, cursor ^= 1)
    s.remainder(*bufs[cursor], *bufs[cursor ^ 1]);
  if (cursor != 0) copy_interior(b, a);
  if (transform) transform_pair<W>(l, a, b, false);
}

/// The untiled run: full-domain sweeps.
template <int W, int D>
void ping_pong(const Stage<W, D>& s, const FieldView<D>& a,
               const FieldView<D>& b, int tsteps) {
  ping_pong(s, a, b, tsteps,
            [&](int supers) { return full_sweeps(s, a, b, supers); });
}

/// The registered executor of method M at width W (Run1D's signature; the
/// source term is ignored above 1-D).
template <Method M, int W, int D>
void run(const Pattern<D>& p, const FieldView<D>& a, const FieldView<D>& b,
         const Pattern1D* src, const FieldView<D>* k, int tsteps) {
  ping_pong(Stage<W, D>(p, M, a.nx(), src, k), a, b, tsteps);
}

/// run() with Run2D/Run3D's signature.
template <Method M, int W, int D>
void run_nd(const Pattern<D>& p, const FieldView<D>& a, const FieldView<D>& b,
            int tsteps) {
  run<M, W, D>(p, a, b, nullptr, nullptr, tsteps);
}

/// Registry entry of method M at width W in D dimensions (the capability
/// parameters as in kernel1d_info()).
template <Method M, int W, int D>
KernelInfo kernel_entry(Isa isa, int halo_floor = 0, int max_radius = 0,
                        int tiled_max_radius = -1,
                        Layout preferred = Layout::Natural) {
  const int fold = M == Method::Ours2 ? 2 : 1;
  if constexpr (D == 1)
    return kernel1d_info(M, isa, W, fold, &run<M, W, 1>, halo_floor,
                         max_radius, tiled_max_radius, preferred);
  else if constexpr (D == 2)
    return kernel2d_info(M, isa, W, fold, &run_nd<M, W, 2>, halo_floor,
                         max_radius, tiled_max_radius, preferred);
  else
    return kernel3d_info(M, isa, W, fold, &run_nd<M, W, 3>, halo_floor,
                         max_radius, tiled_max_radius, preferred);
}

// ---------------------------------------------------------------------------
// The folded (m = 2) advance bodies: the only kernels written per D.
// Each advances `in` two time levels into `out` over [lo, hi) of the outer
// axis, with a private-buffer boundary-ring correction where the range
// touches the domain shell (the folded expansion assumes the halo
// advances in time). Correctness over a partial range relies on the
// caller guaranteeing, as split tiling's wedge slopes do, that `in` holds
// time-t values within 2r of the range.
// ---------------------------------------------------------------------------

/// 1-D: the transpose-layout step of power(p, 2) (`folded`, with the
/// folded source (I + p)·src) followed by the stepwise ring correction of
/// p (+ src) on transposed rows.
template <int W>
void folded1d_advance(const RowGroups<W>& folded, const Pattern1D& p,
                      const Pattern1D* src, const double* k,
                      const FieldView1D& in, const FieldView1D& out, int lo,
                      int hi);

/// 2-D: the paper's Fig. 5 pipeline per W-row band; `reuse` toggles the
/// shifts-reuse ring buffer. Requires plan.radius <= min(W, 4).
template <int W>
void folded2d_advance(const Pattern2D& p, const FoldingPlan& plan,
                      const Pattern2D& lambda, const FieldView2D& in,
                      const FieldView2D& out, bool reuse, int ry0, int ry1);

/// Shape of the folded-3D sliding plane window for a domain of row extent
/// `nx` at SIMD width `W`: buffer count and doubles per buffer. The single
/// source of the sizing — folded3d_advance's fits-check and the wedge
/// schedule's per-worker arena prologue both call it, so they can never
/// drift.
struct Folded3DWindowShape {
  std::size_t nbufs = 0;    ///< (2R+1) window slots x counterpart sources.
  std::size_t doubles = 0;  ///< Per-buffer capacity in doubles.
};
Folded3DWindowShape folded3d_window_shape(const FoldingPlan& plan, int nx,
                                          int W);

/// 3-D: sliding plane window over [rz0, rz1). `window` caches per-plane
/// counterpart columns and must be private to the calling thread (it is
/// grown to folded3d_window_shape() when it does not already fit).
/// Requires plan.radius <= min(W, 2).
template <int W>
void folded3d_advance(const Pattern3D& p, const FoldingPlan& plan,
                      const Pattern3D& lambda, const FieldView3D& in,
                      const FieldView3D& out,
                      std::vector<AlignedBuffer>& window, int rz0, int rz1);

/// The registered 2-D ours-2step executor, and the same run with the
/// shifts-reuse ring buffer disabled (each vector set's counterparts
/// recomputed from scratch) — the §3.4 ablation.
template <int W>
void run_ours2_2d(const Pattern2D& p, const FieldView2D& a,
                  const FieldView2D& b, int tsteps);
template <int W>
void run_ours2_2d_noreuse(const Pattern2D& p, const FieldView2D& a,
                          const FieldView2D& b, int tsteps);

}  // namespace detail
}  // namespace sf
