// Stencil patterns and their algebra.
//
// A Pattern<D> is a finite set of taps (offset, weight): the update rule
//   out[x] = sum_taps w * in[x + off].
// Composing two patterns (applying q after p) is the convolution of their
// tap sets; power(p, m) is the paper's *folding matrix* — the single pattern
// whose one-shot application equals m naive time steps (§3, Eq. 4-6).
#pragma once

#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace sf {

template <int D>
struct Pattern {
  static constexpr int dims = D;  ///< Dimensionality of the offsets.
  using Offset = std::array<int, D>;

  struct Tap {
    Offset off;
    double w;
  };

  std::vector<Tap> taps;  // kept sorted by offset, unique offsets

  static Pattern identity() {
    Pattern p;
    p.taps.push_back({Offset{}, 1.0});
    return p;
  }

  /// Builds a pattern from (offset, weight) pairs; merges duplicate offsets
  /// and drops zero weights.
  static Pattern from_taps(const std::vector<Tap>& raw) {
    std::map<Offset, double> acc;
    for (const auto& t : raw) acc[t.off] += t.w;
    Pattern p;
    for (const auto& [off, w] : acc)
      if (w != 0.0) p.taps.push_back({off, w});
    return p;
  }

  /// Chebyshev radius: max |component| over all taps.
  int radius() const {
    int r = 0;
    for (const auto& t : taps)
      for (int d = 0; d < D; ++d) r = std::max(r, std::abs(t.off[d]));
    return r;
  }

  std::size_t size() const { return taps.size(); }

  double weight_at(const Offset& off) const {
    for (const auto& t : taps)
      if (t.off == off) return t.w;
    return 0.0;
  }

  /// Convolution: the pattern computing q(p(in)), i.e. apply p, then q.
  friend Pattern compose(const Pattern& q, const Pattern& p) {
    std::map<Offset, double> acc;
    for (const auto& a : q.taps)
      for (const auto& b : p.taps) {
        Offset o;
        for (int d = 0; d < D; ++d) o[d] = a.off[d] + b.off[d];
        acc[o] += a.w * b.w;
      }
    Pattern r;
    for (const auto& [off, w] : acc)
      if (w != 0.0) r.taps.push_back({off, w});
    return r;
  }

  /// Folding matrix for an m-step update: p composed with itself m times.
  friend Pattern power(const Pattern& p, int m) {
    Pattern r = identity();
    for (int i = 0; i < m; ++i) r = compose(r, p);
    return r;
  }

  /// Geometric sum I + p + p^2 + ... + p^{m-1}; the folded pattern a
  /// time-invariant source term accumulates over m steps (used by APOP).
  friend Pattern power_sum(const Pattern& p, int m) {
    std::map<Offset, double> acc;
    Pattern cur = identity();
    for (int k = 0; k < m; ++k) {
      for (const auto& t : cur.taps) acc[t.off] += t.w;
      cur = compose(cur, p);
    }
    Pattern r;
    for (const auto& [off, w] : acc)
      if (w != 0.0) r.taps.push_back({off, w});
    return r;
  }

  /// True if every tap lies on a coordinate axis (star stencil).
  bool is_star() const {
    for (const auto& t : taps) {
      int nonzero = 0;
      for (int d = 0; d < D; ++d) nonzero += t.off[d] != 0;
      if (nonzero > 1) return false;
    }
    return true;
  }

  /// True if p(-off) == p(off) for all taps (centro-symmetric).
  bool is_symmetric() const {
    for (const auto& t : taps) {
      Offset neg;
      for (int d = 0; d < D; ++d) neg[d] = -t.off[d];
      if (weight_at(neg) != t.w) return false;
    }
    return true;
  }

  /// Number of FLOPs a straightforward weighted-sum evaluation spends per
  /// output point: one multiply per tap plus (taps-1) adds. This is the
  /// convention used for every GFLOP/s number the harness reports.
  long flops_per_point() const {
    return taps.empty() ? 0 : static_cast<long>(2 * taps.size() - 1);
  }
};

using Pattern1D = Pattern<1>;
using Pattern2D = Pattern<2>;
using Pattern3D = Pattern<3>;

std::string to_string(const Pattern1D& p);
std::string to_string(const Pattern2D& p);
std::string to_string(const Pattern3D& p);

/// Dense (2r+1)^2 matrix view of a 2-D pattern (the folding matrix of §3.2);
/// element [dy+r][dx+r] = weight at offset (dy,dx). Row-major.
std::vector<double> dense_matrix(const Pattern2D& p, int r);

}  // namespace sf
