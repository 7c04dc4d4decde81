// The kernel layer is written once over the dimensionality D: these checks
// pin the properties that design relies on, for every method, dimension
// and ISA level.
//  * A pattern embedded one dimension up (ny = 1, or nz = 1) gives the
//    same bits as the lower-dimensional run.
//  * Seeded random patterns at r = 1, at the registry's max_radius and one
//    beyond it (where the kernel falls back internally) match the naive
//    reference, untiled and through the tiled stage at tiled_max_radius.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {
namespace {

const Isa kIsas[] = {Isa::Scalar, Isa::Avx2, Isa::Avx512};

bool isa_runs(Isa isa) { return isa != Isa::Avx512 || cpu_has_avx512(); }

/// The same pattern with one more axis, outermost, at offset 0.
template <int D>
Pattern<D + 1> embed(const Pattern<D>& p) {
  std::vector<typename Pattern<D + 1>::Tap> taps;
  for (const auto& t : p.taps) {
    typename Pattern<D + 1>::Offset o{};
    for (int d = 0; d < D; ++d) o[d + 1] = t.off[d];
    taps.push_back({o, t.w});
  }
  return Pattern<D + 1>::from_taps(taps);
}

/// Interior values of `a` and `b` (same extents) that differ in any bit.
template <class A, class B>
long bit_mismatches(const A& a, const B& b) {
  long n = 0;
  const auto va = a.view();
  for_each_row(
      va, 0, va.outer_extent(), 0,
      [&](int x0, int x1, bool, const double* ra, const double* rb) {
        for (int x = x0; x < x1; ++x)
          n += std::memcmp(&ra[x], &rb[x], sizeof(double)) != 0;
      },
      b.view());
  return n;
}

TEST(KernelsND, EmbeddedPatternBitwise) {
  // Ours-2step is left out on purpose: its 2-D and 3-D folding plans
  // differ by design (different regressions), so only its error bound is
  // shared.
  const Method methods[] = {Method::MultipleLoads, Method::DataReorg,
                            Method::DLT, Method::Ours};
  const int halo = 8, tsteps = 3;
  for (Isa isa : kIsas) {
    if (!isa_runs(isa)) continue;
    for (Method m : methods) {
      const KernelInfo& k1 = require_kernel(m, 1, isa);
      const KernelInfo& k2 = require_kernel(m, 2, isa);
      const KernelInfo& k3 = require_kernel(m, 3, isa);
      for (const StencilSpec& spec : all_presets()) {
        const std::string what = spec.name + " " + method_name(m) + " " +
                                 isa_name(isa);
        if (spec.dims == 1) {
          // A 1-D row run as 2-D with ny = 1 and as 3-D with nz = ny = 1;
          // the field row, x-halo included, is the same in all three.
          for (int n : {70, 203}) {
            Grid1D a(n, halo), b(n, halo);
            Grid2D a2(1, n, halo), b2(1, n, halo);
            Grid3D a3(1, 1, n, halo), b3(1, 1, n, halo);
            fill_random(a2, 31 + n);
            fill_random(a3, 32 + n);
            for (int x = -halo; x < n + halo; ++x)
              a.at(x) = a2.at(0, x) = a3.at(0, 0, x) = std::sin(0.37 * x);
            copy(a, b);
            copy(a2, b2);
            copy(a3, b3);
            k1.run1(spec.p1, a, b, nullptr, nullptr, tsteps);
            k2.run2(embed(spec.p1), a2, b2, tsteps);
            k3.run3(embed(embed(spec.p1)), a3, b3, tsteps);
            const FieldView1D row2(a2.row(0), n, halo);
            const FieldView1D row3(a3.row(0, 0), n, halo);
            EXPECT_EQ(bit_mismatches(a, row2), 0) << what << " n " << n;
            EXPECT_EQ(bit_mismatches(a, row3), 0) << what << " n " << n;
          }
        } else if (spec.dims == 2) {
          const int ny = 13, nx = 70;
          Grid2D a(ny, nx, halo), b(ny, nx, halo);
          Grid3D a3(1, ny, nx, halo), b3(1, ny, nx, halo);
          fill_random(a, 41);
          fill_random(a3, 42);
          for (int y = -halo; y < ny + halo; ++y)
            for (int x = -halo; x < nx + halo; ++x) a3.at(0, y, x) = a.at(y, x);
          copy(a, b);
          copy(a3, b3);
          k2.run2(spec.p2, a, b, tsteps);
          k3.run3(embed(spec.p2), a3, b3, tsteps);
          const FieldView2D plane(a3.row(0, 0), ny, nx, a3.stride(), halo);
          EXPECT_EQ(bit_mismatches(a, plane), 0) << what;
        }
      }
    }
  }
}

/// A seeded random pattern of radius exactly r: the centre, both ends of
/// every axis and a few random offsets, weights normalized to sum(|w|) = 1
/// so repeated application stays bounded.
template <int D>
Pattern<D> random_pattern(int r, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> wd(-1.0, 1.0);
  std::uniform_int_distribution<int> od(-r, r);
  std::vector<typename Pattern<D>::Tap> taps;
  taps.push_back({{}, wd(rng)});
  for (int ax = 0; ax < D; ++ax)
    for (int s : {-r, r}) {
      typename Pattern<D>::Offset o{};
      o[ax] = s;
      taps.push_back({o, wd(rng)});
    }
  for (int i = 0; i < 6; ++i) {
    typename Pattern<D>::Offset o{};
    for (int& c : o) c = od(rng);
    taps.push_back({o, wd(rng)});
  }
  Pattern<D> p = Pattern<D>::from_taps(taps);
  double sum = 0;
  for (const auto& t : p.taps) sum += std::fabs(t.w);
  for (auto& t : p.taps) t.w /= sum;
  return p;
}

template <int D>
struct Field;
template <>
struct Field<1> {
  Grid1D g;
  Field(const std::vector<int>& e, int h) : g(e[0], h) {}
};
template <>
struct Field<2> {
  Grid2D g;
  Field(const std::vector<int>& e, int h) : g(e[0], e[1], h) {}
};
template <>
struct Field<3> {
  Grid3D g;
  Field(const std::vector<int>& e, int h) : g(e[0], e[1], e[2], h) {}
};

/// Runs `k` untiled (or, with `plan`, through the tiled stage) on a random
/// radius-r pattern — plus a random source term of the same radius in 1-D —
/// and checks it against the naive reference within the sweeps' 1e-12
/// relative bound. `ext` lists the extents outermost first.
template <int D>
void check_against_reference(const KernelInfo& k, int r,
                             const std::vector<int>& ext, int tsteps,
                             const TilePlan* plan, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Pattern<D> p = random_pattern<D>(r, rng);
  const Pattern1D src = random_pattern<1>(r, rng);
  const int halo = k.required_halo(r);
  Field<D> a(ext, halo), b(ext, halo), ra(ext, halo), rb(ext, halo);
  Field<1> kf({ext.back()}, halo);
  fill_random(a.g, seed + 1);
  fill_random(kf.g, seed + 2);
  copy(a.g, b.g);
  copy(a.g, ra.g);
  copy(a.g, rb.g);
  const FieldView1D kv = kf.g.view();
  const FieldView<D> av = a.g.view(), bv = b.g.view();
  if constexpr (D == 1) {
    run_reference(p, ra.g, rb.g, tsteps, &src, &kv);
    if (plan != nullptr) run_tile_plan<1>(p, av, bv, &src, &kv, tsteps, *plan);
    else k.run1(p, av, bv, &src, &kv, tsteps);
  } else {
    run_reference(p, ra.g, rb.g, tsteps);
    if (plan != nullptr) run_tile_plan<D>(p, av, bv, tsteps, *plan);
    else k.run<D>(p, av, bv, nullptr, nullptr, tsteps);
  }
  const double tol = 1e-12 * std::max(1.0, max_abs(ra.g));
  EXPECT_LE(max_abs_diff(a.g, ra.g), tol)
      << D << "-D " << k.name << " " << isa_name(k.isa) << " r " << r
      << (plan != nullptr ? " tiled" : "") << " extent " << ext.back();
}

/// Radii that reach the edges of a capability range: 1, the cap and one
/// past it (the fallback); "any radius" (0) and "never engages" (-1)
/// ranges are probed at 1 and 3.
std::vector<int> probe_radii(int cap) {
  if (cap > 1) return {1, cap, cap + 1};
  if (cap == 1) return {1, 2};
  return {1, 3};
}

template <int D>
void sweep_radius_caps() {
  // x extents: 50 is too short for DLT's lifted columns at r = 3 and W = 8
  // (its shape fallback) and holds no full transposed block at W = 8;
  // 150 holds full blocks plus a tail at every width.
  for (const KernelInfo* k : KernelRegistry::instance().all()) {
    if (k->dims != D || !isa_runs(k->isa)) continue;
    for (int r : probe_radii(k->max_radius))
      for (int nx : {50, 150}) {
        std::vector<int> ext = {nx};
        if (D >= 2) ext.insert(ext.begin(), 9);
        if (D == 3) ext.insert(ext.begin(), 5);
        check_against_reference<D>(*k, r, ext, 3, nullptr,
                                   1000 * r + nx + D);
      }
  }
}

TEST(KernelsND, RadiusCapsAndFallbacks1D) { sweep_radius_caps<1>(); }
TEST(KernelsND, RadiusCapsAndFallbacks2D) { sweep_radius_caps<2>(); }
TEST(KernelsND, RadiusCapsAndFallbacks3D) { sweep_radius_caps<3>(); }

template <int D>
void sweep_tiled_radius_caps() {
  // Two workers and a tile a third of the outer extent: blocked wedges
  // with a tile boundary in the interior, and an odd step count for the
  // folded remainder.
  for (const KernelInfo* k : KernelRegistry::instance().all()) {
    if (k->dims != D || !isa_runs(k->isa) || k->tiled_max_radius < 0)
      continue;
    const int cap = k->tiled_max_radius > 0 ? k->tiled_max_radius : 3;
    const std::vector<int> ext = D == 1   ? std::vector<int>{600}
                                 : D == 2 ? std::vector<int>{60, 150}
                                          : std::vector<int>{60, 6, 150};
    TilePlan plan;
    plan.method = k->method;
    plan.isa = k->isa;
    plan.threads = 2;
    plan.tile = ext.front() / 3;
    for (int r : {1, cap})
      check_against_reference<D>(*k, r, ext, 5, &plan, 77 * r + D);
  }
}

TEST(KernelsND, TiledRadiusCaps1D) { sweep_tiled_radius_caps<1>(); }
TEST(KernelsND, TiledRadiusCaps2D) { sweep_tiled_radius_caps<2>(); }
TEST(KernelsND, TiledRadiusCaps3D) { sweep_tiled_radius_caps<3>(); }

}  // namespace
}  // namespace sf
