// The kernel layer is written once over the dimensionality D: these checks
// pin the properties that design relies on, for every method, dimension
// and ISA level.
//  * A pattern embedded one dimension up (ny = 1, or nz = 1) gives the
//    same bits as the lower-dimensional run.
//  * Seeded random patterns at r = 1, at the registry's max_radius and one
//    beyond it (where the kernel falls back internally) match the naive
//    reference, untiled and through the tiled stage at tiled_max_radius.
//  * Ours-2step's boundary shell is two single steps, bit for bit.
//  * Split-tiled multiple-loads gives the untiled bits.
//  * Every run stays inside the addressable span of the caller's views.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cpu.hpp"
#include "core/engine.hpp"
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

/// Interior points of `a` and `b` (same extents) within distance < r of the
/// boundary that differ in any bit.
template <int D>
long shell_mismatches(const FieldView<D>& a, const FieldView<D>& b, int r) {
  std::array<int, 3> e{1, 1, 1}, c{};
  for (int ax = 0; ax < D; ++ax) e[ax] = a.extent(ax);
  long n = 0;
  for (c[2] = 0; c[2] < e[2]; ++c[2])
    for (c[1] = 0; c[1] < e[1]; ++c[1])
      for (c[0] = 0; c[0] < e[0]; ++c[0]) {
        bool shell = false;
        std::ptrdiff_t oa = 0, ob = 0;
        for (int ax = 0; ax < D; ++ax) {
          shell = shell || c[ax] < r || c[ax] >= e[ax] - r;
          oa += c[ax] * a.axis_stride(ax);
          ob += c[ax] * b.axis_stride(ax);
        }
        n += shell && std::memcmp(a.data() + oa, b.data() + ob,
                                  sizeof(double)) != 0;
      }
  return n;
}

/// Runs two steps of `spec` with ours-2step (untiled, or with `tile` > 0
/// through the tiled stage on two workers) and with multiple-loads, and
/// checks that the boundary shell agrees bit for bit. The 1-D APOP ring
/// sums p and its source in one chain, as every multiple-loads point does,
/// vector body and scalar row tail alike.
template <int D>
void expect_folded_shell_is_two_steps(const StencilSpec& spec, Isa isa,
                                      const std::vector<int>& ext, int tile,
                                      std::uint64_t seed = 5) {
  const Pattern<D>& p = [&]() -> const Pattern<D>& {
    if constexpr (D == 1) return spec.p1;
    else if constexpr (D == 2) return spec.p2;
    else return spec.p3;
  }();
  const KernelInfo& k2 = require_kernel(Method::Ours2, D, isa);
  const KernelInfo& single = require_kernel(Method::MultipleLoads, D, isa);
  const int halo = std::max(k2.required_halo(p.radius()),
                            single.required_halo(p.radius()));
  Field<D> a(ext, halo), b(ext, halo), sa(ext, halo), sb(ext, halo);
  Field<1> kf({ext.back()}, halo);
  fill_random(a.g, seed + ext.back());
  fill_random(kf.g, seed + 1);
  copy(a.g, b.g);
  copy(a.g, sa.g);
  copy(a.g, sb.g);
  const FieldView1D kv = kf.g.view();
  const Pattern1D* src = D == 1 && spec.has_source ? &spec.src1 : nullptr;
  const FieldView<D>* kk = nullptr;
  if constexpr (D == 1) kk = src != nullptr ? &kv : nullptr;
  if (tile > 0) {
    TilePlan plan;
    plan.method = Method::Ours2;
    plan.isa = isa;
    plan.threads = 2;
    plan.tile = tile;
    run_tile_plan<D>(p, a.g, b.g, src, kk, 2, plan);
  } else {
    k2.run<D>(p, a.g, b.g, src, kk, 2);
  }
  single.run<D>(p, sa.g, sb.g, src, kk, 2);
  std::string shape;
  for (int e : ext) shape += std::to_string(e) + " ";
  EXPECT_EQ(shell_mismatches<D>(a.g, sa.g, p.radius()), 0)
      << spec.name << " " << isa_name(isa) << " extents " << shape
      << (tile > 0 ? "tiled" : "untiled") << " seed " << seed;
}

TEST(KernelsND, FoldedShellIsTwoSingleSteps) {
  // Ours-2step recomputes the points within r of the boundary as two
  // single steps, the very steps multiple-loads takes there; only the
  // folded interior reassociates. Extents outermost first: x tails and
  // partial bands, tiny domains (nx < W, ny < W, n < 2r), and tiled runs
  // whose wedges clip the shell on the outer axis.
  for (Isa isa : kIsas) {
    if (!isa_runs(isa)) continue;
    for (const StencilSpec& spec : all_presets()) {
      // A 1-D ring holds only 2r points per run, so it takes many draws
      // to see a last-bit difference.
      if (spec.dims == 1)
        for (std::uint64_t seed = 0; seed < 64; ++seed)
          for (int n : {203, 64, 7, 3}) {
            expect_folded_shell_is_two_steps<1>(spec, isa, {n}, 0, seed);
            if (n > 100)
              expect_folded_shell_is_two_steps<1>(spec, isa, {n}, n / 3, seed);
          }
      if (spec.dims == 2) {
        for (const std::vector<int>& e : std::vector<std::vector<int>>{
                 {37, 41}, {24, 67}, {13, 5}, {3, 19}, {2, 2}})
          expect_folded_shell_is_two_steps<2>(spec, isa, e, 0);
        expect_folded_shell_is_two_steps<2>(spec, isa, {60, 41}, 20);
      }
      if (spec.dims == 3) {
        for (const std::vector<int>& e : std::vector<std::vector<int>>{
                 {7, 9, 21}, {13, 11, 40}, {3, 4, 5}, {2, 9, 3}})
          expect_folded_shell_is_two_steps<3>(spec, isa, e, 0);
        expect_folded_shell_is_two_steps<3>(spec, isa, {30, 9, 21}, 10);
      }
    }
  }
}

/// Runs `tsteps` steps of `spec` with multiple-loads through the Engine,
/// untiled and split-tiled (Tiling::On, `threads` workers, a third of the
/// outer extent per tile), from the same random field and, for APOP, the
/// same random source array, and checks the results agree bit for bit.
/// `ext` lists the extents outermost first.
template <int D>
void expect_tiled_ml_matches_untiled(const StencilSpec& spec, Isa isa,
                                     const std::vector<int>& ext, int threads,
                                     int tsteps) {
  ExecOptions o;
  o.method = Method::MultipleLoads;
  o.isa = isa;
  o.threads = threads;
  o.tiling = Tiling::Off;
  const Extents e{ext.back(), D >= 2 ? ext[D - 2] : 0, D == 3 ? ext[0] : 0};
  const PreparedStencil untiled = Engine::instance().prepare(spec, e, o);
  o.tiling = Tiling::On;
  o.tile = ext.front() / 3;
  const PreparedStencil tiled = Engine::instance().prepare(spec, e, o);
  std::string what = spec.name + " " + isa_name(isa) + " threads " +
                     std::to_string(threads) + " tsteps " +
                     std::to_string(tsteps) + " extents";
  for (int x : ext) what += " " + std::to_string(x);
  ASSERT_TRUE(tiled.plan().tiled && tiled.plan().blocked) << what;
  const int h = tiled.halo();
  Field<D> a(ext, h), b(ext, h), ua(ext, h), ub(ext, h);
  Field<1> kf({ext.back()}, h);
  const std::uint64_t seed = 91 + static_cast<std::uint64_t>(ext.back());
  fill_random(a.g, seed);
  fill_random(kf.g, seed + 1);
  copy(a.g, b.g);
  copy(a.g, ua.g);
  copy(a.g, ub.g);
  if constexpr (D == 1) {
    if (spec.has_source) {
      tiled.run(a.g.view(), b.g.view(), kf.g.view(), tsteps);
      untiled.run(ua.g.view(), ub.g.view(), kf.g.view(), tsteps);
      EXPECT_EQ(bit_mismatches(a.g, ua.g), 0) << what;
      return;
    }
  }
  tiled.run(a.g.view(), b.g.view(), tsteps);
  untiled.run(ua.g.view(), ub.g.view(), tsteps);
  EXPECT_EQ(bit_mismatches(a.g, ua.g), 0) << what;
}

TEST(KernelsND, TiledMultipleLoadsMatchesUntiled) {
  // Split tiling runs the same multiple-loads region step over wedge
  // ranges, so it reproduces the untiled bits. 1-D tile edges move the
  // split between a row's vector body and its scalar tail; APOP's source
  // term rides in the same FMA chain in both.
  const std::vector<std::vector<int>> shapes[] = {
      {{203}, {1031}},
      {{61, 64}, {64, 67}},
      {{13, 11, 40}, {37, 16, 16}},
  };
  for (Isa isa : kIsas) {
    if (!isa_runs(isa)) continue;
    for (const StencilSpec& spec : all_presets())
      for (const std::vector<int>& ext : shapes[spec.dims - 1])
        for (int threads : {1, 2, 4})
          for (int tsteps : {3, 8})
            spec.visit([&](const auto& p) {
              constexpr int D = std::decay_t<decltype(p)>::dims;
              expect_tiled_ml_matches_untiled<D>(spec, isa, ext, threads,
                                                 tsteps);
            });
  }
}

/// A caller-owned field of extents `n` (x first) at halo `h`, with every
/// double outside the view's addressable span — from the first halo cell
/// of the first halo row/plane to the last halo cell of the last, as
/// PreparedStencil::run validation computes it — poisoned. Under ASan any
/// access there faults; elsewhere the poisoning is a no-op.
template <int D>
class PoisonedField {
 public:
  PoisonedField(const std::array<int, D>& n, int h) {
    std::array<std::ptrdiff_t, 3> st{1, 0, 0};
    for (int ax = 1; ax < D; ++ax)
      st[ax] = static_cast<std::ptrdiff_t>(round_up(
          static_cast<std::size_t>(st[ax - 1] * (n[ax - 1] + 2 * h)), 8));
    const std::ptrdiff_t pad = 16;  // poisoned doubles on either side
    std::ptrdiff_t origin = static_cast<std::ptrdiff_t>(round_up(pad + h, 8));
    lo_ = origin - h;
    hi_ = origin + n[0] + h;
    for (int ax = 1; ax < D; ++ax) {
      origin += h * st[ax];
      hi_ += (n[ax] + 2 * h - 1) * st[ax];
    }
    buf_ = AlignedBuffer(static_cast<std::size_t>(hi_ + pad));
    double* d = buf_.data() + origin;
    if constexpr (D == 1) view_ = FieldView1D(d, n[0], h);
    else if constexpr (D == 2)
      view_ = FieldView2D(d, n[1], n[0], static_cast<int>(st[1]), h);
    else
      view_ = FieldView3D(d, n[2], n[1], n[0], static_cast<int>(st[1]),
                          static_cast<std::size_t>(st[2]), h);
    fill_random(view_, 7 + static_cast<std::uint64_t>(n[0]));
    poison(true);
  }
  ~PoisonedField() { poison(false); }
  PoisonedField(const PoisonedField&) = delete;
  PoisonedField& operator=(const PoisonedField&) = delete;

  const FieldView<D>& view() const { return view_; }

 private:
  void poison(bool on) {
    double* b = buf_.data();
    const std::size_t tail = buf_.size() - static_cast<std::size_t>(hi_);
    if (on) {
      ASAN_POISON_MEMORY_REGION(b, lo_ * sizeof(double));
      ASAN_POISON_MEMORY_REGION(b + hi_, tail * sizeof(double));
    } else {
      ASAN_UNPOISON_MEMORY_REGION(b, lo_ * sizeof(double));
      ASAN_UNPOISON_MEMORY_REGION(b + hi_, tail * sizeof(double));
    }
  }

  AlignedBuffer buf_;
  std::ptrdiff_t lo_ = 0, hi_ = 0;  // the span, in doubles from buf_
  FieldView<D> view_;
};

template <int D>
void run_inside_span(const StencilSpec& spec, Method m, Isa isa, bool tiled,
                     const std::array<int, D>& n) {
  ExecOptions o;
  o.method = m;
  o.isa = isa;
  o.tiling = tiled ? Tiling::On : Tiling::Off;
  o.threads = 2;
  o.tile = tiled ? n[D - 1] / 3 : 0;
  const PreparedStencil ps = Engine::instance().prepare(
      spec, Extents{n[0], D >= 2 ? n[1] : 0, D == 3 ? n[2] : 0}, o);
  const int h = ps.halo();
  PoisonedField<D> a(n, h), b(n, h);
  if constexpr (D == 1) {
    if (spec.has_source) {
      PoisonedField<1> k(n, h);
      ps.run(a.view(), b.view(), k.view(), 5);
      return;
    }
  }
  ps.run(a.view(), b.view(), 5);
}

TEST(KernelsND, RunsStayInsideViewSpan) {
  // Every preset x method x ISA through PreparedStencil::run on caller
  // views at the prepared halo, untiled and tiled on two workers; extents
  // with x tails and partial row bands. An ASan build faults on any
  // access beyond a view's span (the CI sanitizer job); the run completes
  // either way.
  const Method methods[] = {Method::Naive, Method::MultipleLoads,
                            Method::DataReorg, Method::DLT, Method::Ours,
                            Method::Ours2};
  for (const StencilSpec& spec : all_presets())
    for (Method m : methods)
      for (Isa isa : kIsas) {
        if (!isa_runs(isa)) continue;
        for (bool tiled : {false, true}) {
          SCOPED_TRACE(spec.name + " " + method_name(m) + " " + isa_name(isa) +
                       (tiled ? " tiled" : " untiled"));
          if (spec.dims == 1) run_inside_span<1>(spec, m, isa, tiled, {203});
          if (spec.dims == 2) {
            run_inside_span<2>(spec, m, isa, tiled, {64, 61});
            run_inside_span<2>(spec, m, isa, tiled, {61, 64});
          }
          if (spec.dims == 3)
            run_inside_span<3>(spec, m, isa, tiled, {37, 10, 9});
        }
      }
}

}  // namespace
}  // namespace sf
