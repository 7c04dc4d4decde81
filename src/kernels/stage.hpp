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
//  * The folded (m = 2) advance is one body for 2-D and 3-D
//    (folded.cpp): a 2-D run is a 3-D run with one plane and no z-reach.
//    Off the full bands it reuses the multiple-loads step on sub-views:
//    one step of Λ on the alignment tails, and two single steps on each
//    box of the boundary shell.
//
// What stays per dimension is what genuinely differs: the 1-D folded
// advance, which folds transposed rows (folded.cpp), and the registration
// tables, which are data.
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

/// Largest folded radius (2r at m = 2) the folded bodies hold: the
/// transposed window's W in 1-D; in 2-D and 3-D the counterpart and
/// basis-weight tables are sized from min(W, 4) and min(W, 2).
template <int W, int D>
constexpr int folded_max_radius() {
  return D == 1 ? W : std::min(W, D == 2 ? 4 : 2);
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

/// One multiple-loads step over [lo, hi) of the outer axis: one unaligned
/// load per tap, row tails scalar in the same FMA chain. Natural layout;
/// on sub-views (FieldView::sub) it steps any box, which is how the folded
/// advance takes its alignment tails and boundary shell, and over any
/// [lo, hi) it is the split-tiling wedge advance.
template <int W, int D>
void ml_step(const RowGroups<W>& g, const FieldView<D>& in,
             const FieldView<D>& out, const double* k, int lo, int hi);

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
  /// private copy, so `k` stays untouched. `pool` supplies the 2-D/3-D
  /// folded window of pool workers; `reuse` toggles the folded shifts
  /// reuse (the §3.4 ablation).
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
  RowGroups<W> folded_;             // Ours2: power(p, 2) (+ folded src)
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
// The folded (m = 2) advance bodies (folded.cpp). Each advances `in` two
// time levels into `out` over [lo, hi) of the outer axis, with a
// private-buffer stepwise correction where the range touches the domain
// shell (the folded expansion assumes the halo advances in time).
// Correctness over a partial range relies on the caller guaranteeing, as
// split tiling's wedge slopes do, that `in` holds time-t values within 2r
// of the range.
// ---------------------------------------------------------------------------

/// 1-D: the transpose-layout step of power(p, 2) (`folded`, with the
/// folded source (I + p)·src) followed by the stepwise ring correction of
/// width r = p.radius() by the single steps `step` (p + src) on transposed
/// rows.
template <int W>
void folded1d_advance(const RowGroups<W>& folded, const RowGroups<W>& step,
                      int r, const double* k, const FieldView1D& in,
                      const FieldView1D& out, int lo, int hi);

/// Doubles the 2-D/3-D folded window needs for a domain of row extent `nx`
/// at SIMD width `W`: a ring of 2·Rz+1 planes (Rz the plan's z-reach, 0 in
/// 2-D) of counterpart rows, each holding columns [-R, nx/W·W + R) of one
/// W-row band. 0 for an empty (1-D) plan. The one source of the sizing:
/// folded_advance's grow check and the wedge schedule's per-worker arena
/// prologue both call it.
std::size_t folded_window_doubles(const FoldingPlan& plan, int nx, int W);

/// 2-D and 3-D: the paper's Fig. 5 pipeline per W-row band, a 2-D run
/// being one plane with no z-reach; bands cover rows [lo, hi) in 2-D and
/// every row of planes [lo, hi) in 3-D. The alignment tails take one
/// multiple-loads step of `folded` (power(p, 2)), and the boundary shell
/// two of `step` (p). `window` holds the counterpart ring; it must be
/// private to the calling thread and is grown to folded_window_doubles()
/// when smaller. `reuse` toggles the shifts reuse (the §3.4 ablation).
/// Requires plan.radius <= folded_max_radius<W, D>().
template <int W, int D>
void folded_advance(const RowGroups<W>& step, const RowGroups<W>& folded,
                    const FoldingPlan& plan, const FieldView<D>& in,
                    const FieldView<D>& out, AlignedBuffer& window, bool reuse,
                    int lo, int hi);

/// The registered 2-D ours-2step executor, and the same run with the
/// shifts reuse disabled (each vector set's counterparts recomputed for
/// every output set) — the §3.4 ablation.
template <int W>
void run_ours2_2d(const Pattern2D& p, const FieldView2D& a,
                  const FieldView2D& b, int tsteps);
template <int W>
void run_ours2_2d_noreuse(const Pattern2D& p, const FieldView2D& a,
                          const FieldView2D& b, int tsteps);

}  // namespace detail
}  // namespace sf
