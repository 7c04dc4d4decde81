// Generic (scalar) temporal-folding executor for any dimension and any
// unrolling factor m: the reference implementation the folded tests
// compare against.
//
// One folded *advance* produces the exact m-step Jacobi result:
//  * deep interior (distance >= rho = (m-1)*r from the boundary): one
//    application of the folding matrix Λ = p^m — this is where the paper's
//    arithmetic-redundancy saving comes from;
//  * boundary shell (distance < rho): recomputed stepwise over shrinking
//    shells (fold/region.hpp) into scratch grids, because the Dirichlet
//    halo never advances in time and the folded expansion would otherwise
//    assume it does.
//
// The vectorized ours-2step kernels (src/kernels/folded.cpp) apply the same
// rule at m = 2; their shell equals two single steps bit for bit, and
// their interior matches this executor to FP tolerance.
#pragma once

#include <algorithm>
#include <array>
#include <utility>

#include "fold/region.hpp"
#include "grid/grid.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/pattern.hpp"
#include "stencil/reference.hpp"

namespace sf {

/// Runs p with temporal folding of depth m, scalar, over FieldView<D>.
template <int D>
class FoldedRunner {
 public:
  /// `src` adds the 1-D APOP source term (ignored above 1-D): step =
  /// p(A) + src(K).
  FoldedRunner(const Pattern<D>& p, int m, const Pattern1D* src = nullptr)
      : p_(p), m_(m), r_(p.radius()), lambda_(power(p, m)) {
    if constexpr (D == 1)
      if (src != nullptr) {
        src_ = *src;
        has_src_ = true;
        folded_src_ = compose(power_sum(p, m), *src);
      }
  }

  /// Runs `tsteps` total steps: floor(tsteps/m) folded advances plus a
  /// stepwise remainder. Result lands in `a`; `k` is the source array.
  void run(const FieldView<D>& a, const FieldView<D>& b, int tsteps,
           const FieldView<D>* k = nullptr) {
    std::array<int, D> n{};
    for (int ax = 0; ax < D; ++ax) n[ax] = a.extent(ax);
    // Scratch levels of the shell; their halos mirror a's.
    Grid<D> sa(n, a.halo()), sb(n, a.halo());
    copy(a, sa);
    copy(a, sb);
    const FieldView<D>* in = &a;
    const FieldView<D>* out = &b;
    int t = 0;
    for (; t + m_ <= tsteps; t += m_) {
      advance(*in, *out, k, sa, sb);
      std::swap(in, out);
    }
    for (; t < tsteps; ++t) {
      apply(p_, src_, *in, *out, {{}, n}, k);
      std::swap(in, out);
    }
    if (in != &a) copy_interior(*in, a);
  }

 private:
  /// out = q(in) (+ s(K) in 1-D) over `box`.
  void apply(const Pattern<D>& q, const Pattern1D& s, const FieldView<D>& in,
             const FieldView<D>& out, const Box<D>& box,
             const FieldView<D>* k) const {
    apply_box<D>(q, in, out, box.lo, box.hi);
    if constexpr (D == 1)
      if (has_src_ && k != nullptr)
        add_source(s, *k, out, box.lo[0], box.hi[0]);
  }

  /// out = the exact m-step update of in.
  void advance(const FieldView<D>& in, const FieldView<D>& out,
               const FieldView<D>* k, const FieldView<D>& sa,
               const FieldView<D>& sb) const {
    const int rho = (m_ - 1) * r_;
    Box<D> all, deep;
    for (int ax = 0; ax < D; ++ax) {
      all.hi[ax] = in.extent(ax);
      deep.lo[ax] = rho;
      deep.hi[ax] = in.extent(ax) - rho;
    }
    // Deep interior: single folded application.
    apply(lambda_, folded_src_, in, out, deep, k);

    // Shell correction: stepwise over shrinking shells.
    const FieldView<D>* cur = &in;
    const FieldView<D>* nxt = &sa;
    for (int step = 1; step < m_; ++step) {
      const int w = (2 * m_ - step - 1) * r_;
      for (const Box<D>& s : shell_boxes<D>(all.hi, w, all))
        apply(p_, src_, *cur, *nxt, s, k);
      cur = nxt;
      nxt = nxt == &sa ? &sb : &sa;
    }
    for (const Box<D>& s : shell_boxes<D>(all.hi, rho, all))
      apply(p_, src_, *cur, out, s, k);
  }

  Pattern<D> p_;
  int m_, r_;
  Pattern<D> lambda_;
  bool has_src_ = false;
  Pattern1D src_, folded_src_;
};

}  // namespace sf
