// Initialization and comparison helpers for halo fields. Each helper is
// written once over the row walker (grid/field_view.hpp for_each_row) and
// takes FieldViews or Grids alike.
#pragma once

#include <algorithm>
#include <cmath>
#include <random>

#include "grid/grid.hpp"

namespace sf {

/// Fills interior + halo with reproducible pseudo-random values in [-1, 1].
template <class G>
void fill_random(const G& g, std::uint64_t seed) {
  const auto v = g.view();
  const int h = v.halo();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for_each_row(v, -h, v.outer_extent() + h, h,
               [&](int x0, int x1, bool, double* row) {
                 for (int x = x0; x < x1; ++x) row[x] = d(rng);
               });
}

/// Copies interior and halo.
template <class S, class T>
void copy(const S& src, const T& dst) {
  const auto s = src.view();
  const int h = s.halo();
  for_each_row(
      s, -h, s.outer_extent() + h, h,
      [](int x0, int x1, bool, const double* from, double* to) {
        for (int x = x0; x < x1; ++x) to[x] = from[x];
      },
      dst.view());
}

/// Max |a-b| over the interior.
template <class A, class B>
double max_abs_diff(const A& a, const B& b) {
  const auto va = a.view();
  double m = 0;
  for_each_row(
      va, 0, va.outer_extent(), 0,
      [&](int x0, int x1, bool, const double* ra, const double* rb) {
        for (int x = x0; x < x1; ++x) m = std::max(m, std::fabs(ra[x] - rb[x]));
      },
      b.view());
  return m;
}

/// Max |v| over the interior (for relative tolerances).
template <class G>
double max_abs(const G& g) {
  const auto v = g.view();
  double m = 0;
  for_each_row(v, 0, v.outer_extent(), 0,
               [&](int x0, int x1, bool, const double* row) {
                 for (int x = x0; x < x1; ++x) m = std::max(m, std::fabs(row[x]));
               });
  return m;
}

}  // namespace sf
