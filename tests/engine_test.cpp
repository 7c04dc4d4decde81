// Tests for the prepared-execution layer (core/engine.hpp): prepare-once /
// run-many result stability against the Solver facade, zero-copy execution
// on caller-owned buffers, concurrent runs, FieldView validation, the
// Engine's plan cache, and the tuner's shape-bucket widening.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/solver.hpp"
#include "core/tuner.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

constexpr std::uint64_t kSeed = 42;  // the Solver's default seed

// Runs `s` (which resolves sizes/steps), then executes the equivalent
// PreparedStencil on caller-owned grids with identical initial conditions
// and returns the max |diff| against the Solver's result grid. Exercises
// every dimensionality through one code path.
double prepared_vs_solver(Solver s, Tiling tiling) {
  s.tiling(tiling);
  s.run();

  ExecOptions opts;
  opts.tiling = tiling;
  opts.tsteps = s.tsteps();
  PreparedStencil ps = Engine::instance().prepare(
      s.spec(), Extents{s.nx(), s.ny(), s.nz()}, opts);
  EXPECT_EQ(ps.halo(), s.halo());
  EXPECT_EQ(&ps.kernel(), &s.kernel());

  const Workspace& ws = s.workspace();
  const int h = ps.halo();
  double diff = 0;
  if (s.spec().dims == 1) {
    Grid1D a(static_cast<int>(s.nx()), h), b(static_cast<int>(s.nx()), h);
    fill_random(a, kSeed);
    copy(a, b);
    if (s.spec().has_source) {
      Grid1D k(static_cast<int>(s.nx()), h);
      fill_random(k, kSeed + 1);  // the Solver's source-array seed
      ps.run(a.view(), b.view(), k.view(), s.tsteps());
    } else {
      ps.run(a.view(), b.view(), s.tsteps());
    }
    diff = max_abs_diff(a, *ws.grids<1>().a);
  } else if (s.spec().dims == 2) {
    Grid2D a(static_cast<int>(s.ny()), static_cast<int>(s.nx()), h);
    Grid2D b(static_cast<int>(s.ny()), static_cast<int>(s.nx()), h);
    fill_random(a, kSeed);
    copy(a, b);
    ps.run(a.view(), b.view(), s.tsteps());
    diff = max_abs_diff(a, *ws.grids<2>().a);
  } else {
    Grid3D a(static_cast<int>(s.nz()), static_cast<int>(s.ny()),
             static_cast<int>(s.nx()), h);
    Grid3D b(static_cast<int>(s.nz()), static_cast<int>(s.ny()),
             static_cast<int>(s.nx()), h);
    fill_random(a, kSeed);
    copy(a, b);
    ps.run(a.view(), b.view(), s.tsteps());
    diff = max_abs_diff(a, *ws.grids<3>().a);
  }
  return diff;
}

// ---------------------------------------------------------------------------
// Prepare-once / run-many equivalence with the Solver, all nine presets,
// tiled and untiled. Bitwise identity: both paths negotiate the same plan
// and execute the same kernel code on identically-seeded buffers.
// ---------------------------------------------------------------------------

class EngineVsSolver : public ::testing::TestWithParam<Preset> {};

TEST_P(EngineVsSolver, BitwiseIdenticalUntiled) {
  EXPECT_EQ(prepared_vs_solver(Solver::make(GetParam()), Tiling::Off), 0.0);
}

TEST_P(EngineVsSolver, BitwiseIdenticalTiled) {
  EXPECT_EQ(prepared_vs_solver(Solver::make(GetParam()), Tiling::On), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, EngineVsSolver,
    ::testing::Values(Preset::Heat1D, Preset::P1D5, Preset::Apop,
                      Preset::Heat2D, Preset::Box2D9, Preset::Life,
                      Preset::GB, Preset::Heat3D, Preset::Box3D27));

// ---------------------------------------------------------------------------
// Run-many stability and zero-copy semantics.
// ---------------------------------------------------------------------------

TEST(Engine, RunManyIsStableAndZeroCopy) {
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{96, 80}, {});
  const int h = ps.halo();
  Grid2D a(80, 96, h), b(80, 96, h), first(80, 96, h);

  double* const caller_memory = a.data();
  for (int rep = 0; rep < 3; ++rep) {
    fill_random(a, 7);
    copy(a, b);
    ps.run(a.view(), b.view(), 8);
    // Results land in the caller's buffer, not a library-internal copy.
    EXPECT_EQ(a.data(), caller_memory);
    if (rep == 0)
      copy(a, first);
    else
      EXPECT_EQ(max_abs_diff(a, first), 0.0) << "rep " << rep;
  }
}

TEST(Engine, ScratchInteriorIsNeverRead) {
  // The zero-copy contract: run() syncs b's *halo* from a, and no kernel
  // reads a b-interior cell it has not itself written — so poisoning b's
  // interior must not change the result.
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 64}, {});
  const int h = ps.halo();
  Grid2D a(64, 64, h), b(64, 64, h), ra(64, 64, h), rb(64, 64, h);
  fill_random(a, 3);
  copy(a, ra);
  copy(a, rb);
  copy(a, b);
  for (int y = 0; y < b.ny(); ++y)
    for (int x = 0; x < b.nx(); ++x)
      b.at(y, x) = std::numeric_limits<double>::quiet_NaN();
  ps.run(a.view(), b.view(), 6);
  run_reference(preset(Preset::Heat2D).p2, ra, rb, 6);
  EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)));
}

// ---------------------------------------------------------------------------
// Concurrency: one immutable handle, several threads, separate field sets.
// ---------------------------------------------------------------------------

TEST(Engine, ConcurrentRunsOnSeparateFieldSets) {
  for (Tiling tiling : {Tiling::Off, Tiling::On}) {
    ExecOptions opts;
    opts.tiling = tiling;
    opts.tsteps = 8;
    PreparedStencil ps =
        Engine::instance().prepare(Preset::Heat2D, Extents{72, 64}, opts);
    const int h = ps.halo();

    // Serial baseline.
    Grid2D sa(64, 72, h), sb(64, 72, h);
    fill_random(sa, 11);
    copy(sa, sb);
    ps.run(sa.view(), sb.view(), 8);

    constexpr int kThreads = 3;
    std::vector<Grid2D> as, bs;
    for (int i = 0; i < kThreads; ++i) {
      as.emplace_back(64, 72, h);
      bs.emplace_back(64, 72, h);
      fill_random(as.back(), 11);
      copy(as.back(), bs.back());
    }
    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i)
      workers.emplace_back([&, i] {
        for (int rep = 0; rep < 2; ++rep) {
          fill_random(as[i], 11);
          copy(as[i], bs[i]);
          ps.run(as[i].view(), bs[i].view(), 8);
        }
      });
    for (auto& w : workers) w.join();
    for (int i = 0; i < kThreads; ++i)
      EXPECT_EQ(max_abs_diff(as[i], sa), 0.0)
          << "thread " << i << " tiling=" << static_cast<int>(tiling);
  }
}

// ---------------------------------------------------------------------------
// FieldView validation.
// ---------------------------------------------------------------------------

TEST(Engine, RejectsBadViews) {
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, {});
  const int h = ps.halo();
  Grid2D a(48, 64, h), b(48, 64, h);

  // Empty handle.
  EXPECT_THROW(PreparedStencil{}.run(a.view(), b.view(), 1),
               std::invalid_argument);
  // Halo below the negotiated minimum.
  Grid2D thin(48, 64, h > 0 ? h - 1 : 0);
  EXPECT_THROW(ps.run(thin.view(), b.view(), 1), std::invalid_argument);
  // Extent mismatch.
  Grid2D wrong(48, 72, h);
  EXPECT_THROW(ps.run(wrong.view(), b.view(), 1), std::invalid_argument);
  // Non-natural layout tag.
  EXPECT_THROW(ps.run(a.view().with_layout(Layout::Transposed), b.view(), 1),
               std::invalid_argument);
  EXPECT_THROW(ps.run(a.view(), b.view().with_layout(Layout::DLT), 1),
               std::invalid_argument);
  // Aliased ping-pong buffers.
  EXPECT_THROW(ps.run(a.view(), a.view(), 1), std::invalid_argument);
  // Hand-built view with a stride that is not a multiple of 8 doubles.
  FieldView2D crooked(a.data(), 48, 64, a.stride() + 1, h);
  EXPECT_THROW(ps.run(crooked, b.view(), 1), std::invalid_argument);
  // Misaligned interior.
  FieldView2D shifted(a.data() + 1, 48, 64, a.stride(), h);
  EXPECT_THROW(ps.run(shifted, b.view(), 1), std::invalid_argument);
  // Stride large enough for the interior but too small for both halos:
  // consecutive rows would alias. (DataReorg's halo floor of 4 makes
  // nx + halo = 64 a multiple of 8 while nx + 2*halo = 68 is the true
  // minimum.)
  ExecOptions dr;
  dr.method = Method::DataReorg;
  dr.isa = Isa::Avx2;
  PreparedStencil pdr =
      Engine::instance().prepare(Preset::Heat2D, Extents{60, 48}, dr);
  ASSERT_EQ(pdr.halo(), 4);
  Grid2D da(48, 60, 4), db(48, 60, 4);
  FieldView2D tight(da.data(), 48, 60, /*stride=*/64, 4);
  EXPECT_THROW(pdr.run(tight, db.view(), 1), std::invalid_argument);
  // 3-D: plane stride too small for the haloed plane extent.
  PreparedStencil p3 =
      Engine::instance().prepare(Preset::Heat3D, Extents{32, 32, 32}, {});
  const int h3 = p3.halo();
  Grid3D a3(32, 32, 32, h3), b3(32, 32, 32, h3);
  FieldView3D squashed(a3.data(), 32, 32, 32, a3.stride(),
                       a3.plane_stride() - 8, h3);
  EXPECT_THROW(p3.run(squashed, b3.view(), 1), std::invalid_argument);
  // Dimensionality mismatch.
  Grid1D a1(64, h), b1(64, h);
  EXPECT_THROW(ps.run(a1.view(), b1.view(), 1), std::invalid_argument);
}

TEST(Engine, EnforcesSourceArity) {
  PreparedStencil apop = Engine::instance().prepare(Preset::Apop, {}, {});
  PreparedStencil heat = Engine::instance().prepare(Preset::Heat1D, {}, {});
  const int n1 = static_cast<int>(apop.nx());
  Grid1D a(n1, apop.halo()), b(n1, apop.halo()), k(n1, apop.halo());
  fill_random(a, 1);
  fill_random(k, 2);
  copy(a, b);
  // APOP needs its source view; Heat1D must reject one.
  EXPECT_THROW(apop.run(a.view(), b.view(), 2), std::invalid_argument);
  const int n2 = static_cast<int>(heat.nx());
  Grid1D ha(n2, heat.halo()), hb(n2, heat.halo()), hk(n2, heat.halo());
  fill_random(ha, 1);
  copy(ha, hb);
  EXPECT_THROW(heat.run(ha.view(), hb.view(), hk.view(), 2),
               std::invalid_argument);
  // The source array must not alias either ping-pong buffer.
  Grid1D k2(n1, apop.halo());
  fill_random(k2, 3);
  EXPECT_THROW(apop.run(a.view(), b.view(), b.view(), 2),
               std::invalid_argument);
  EXPECT_THROW(apop.run(a.view(), b.view(), a.view(), 2),
               std::invalid_argument);
}

TEST(Engine, PrepareRejectsExtentsNoViewCanHave) {
  // FieldView extents are int: prepare() and plan_key() (which resolve the
  // same request) refuse negative or > INT_MAX extents and a negative
  // horizon instead of narrowing them.
  Engine& eng = Engine::instance();
  for (Extents bad : {Extents{-5, 64}, Extents{5000000000L}, Extents{8, 8, -1}}) {
    EXPECT_THROW(eng.prepare(Preset::Heat2D, bad), std::invalid_argument);
    EXPECT_THROW(eng.plan_key(preset(Preset::Heat1D), bad),
                 std::invalid_argument);
  }
  ExecOptions backwards;
  backwards.tsteps = -3;
  EXPECT_THROW(eng.prepare(Preset::Heat2D, Extents{64, 64}, backwards),
               std::invalid_argument);
  EXPECT_NO_THROW(eng.plan_key(preset(Preset::Heat1D),
                               Extents{std::numeric_limits<int>::max()}));
  // In-range extents whose product overflows the plan's byte counts; with
  // levels = -1 the working set is sized before any other planning step.
  ExecOptions auto_levels;
  auto_levels.levels = -1;
  const long imax = std::numeric_limits<int>::max();
  for (const auto& [p, big] :
       {std::pair{Preset::Heat2D, Extents{imax, imax}},
        std::pair{Preset::Heat3D, Extents{imax, imax, imax}}}) {
    EXPECT_THROW(eng.prepare(p, big, auto_levels), std::invalid_argument);
    EXPECT_THROW(eng.plan_key(preset(p), big, auto_levels),
                 std::invalid_argument);
  }
  // An in-range nx whose padded row (nx plus the prepared halo on both
  // sides, rounded up to 8 doubles) no int row stride can hold.
  EXPECT_THROW(eng.prepare(Preset::Heat2D, Extents{imax, 4}),
               std::invalid_argument);
  EXPECT_THROW(eng.prepare(Preset::Heat3D, Extents{imax, 4, 4}),
               std::invalid_argument);
}

// A small grid of dimensionality D with halo `h` (extents unlike per axis).
template <int D>
Grid<D> small_grid(int h) {
  if constexpr (D == 1)
    return Grid<1>(300, h);
  else if constexpr (D == 2)
    return Grid<2>(40, 36, h);
  else
    return Grid<3>(12, 10, 20, h);
}

// A Grid *is* its view, so a moved grid must carry its view along: the
// buffer changes owner, never address. Each way of moving a grid into
// place keeps data(), passes validation, and runs bitwise equal to a grid
// that never moved.
template <int D>
void check_moved_grids(Preset p) {
  SCOPED_TRACE(preset(p).name);
  const Extents ext =
      D == 1 ? Extents{300} : D == 2 ? Extents{36, 40} : Extents{20, 10, 12};
  const PreparedStencil ps = Engine::instance().prepare(p, ext);
  const int h = ps.halo();
  Grid<D> ref = small_grid<D>(h), ref_b = small_grid<D>(h);
  fill_random(ref, kSeed);
  copy(ref, ref_b);
  ps.run(ref, ref_b, 6);

  auto check = [&](const Grid<D>& a, const double* before) {
    EXPECT_EQ(a.data(), before);
    Grid<D> b = small_grid<D>(h);
    EXPECT_NO_THROW(ps.validate_views(a, b));
    fill_random(a, kSeed);
    copy(a, b);
    ps.run(a, b, 6);
    EXPECT_EQ(max_abs_diff(a, ref), 0.0);
  };
  {
    Grid<D> src = small_grid<D>(h);
    const double* before = src.data();
    Grid<D> moved(std::move(src));
    check(moved, before);
  }
  {
    Grid<D> src = small_grid<D>(h);
    const double* before = src.data();
    Grid<D> target = small_grid<D>(h);
    target = std::move(src);
    check(target, before);
  }
  {
    std::optional<Grid<D>> slot;
    slot.emplace(small_grid<D>(h));  // the old grid the next emplace ends
    Grid<D> fresh = small_grid<D>(h);
    const double* before = fresh.data();
    slot.emplace(std::move(fresh));
    check(*slot, before);
  }
}

TEST(Grid, MovedGridsKeepTheirViews) {
  check_moved_grids<1>(Preset::Heat1D);
  check_moved_grids<2>(Preset::Heat2D);
  check_moved_grids<3>(Preset::Heat3D);
}

TEST(Engine, PrepareRejectsOptionsOutOfRange) {
  // Options no request can mean throw instead of being remapped onto a
  // valid one: a levels value outside [-1, 3] and a negative thread count,
  // tile or time block.
  Engine& eng = Engine::instance();
  std::vector<ExecOptions> bad(5);
  bad[0].levels = -7;
  bad[1].levels = 42;
  bad[2].threads = -1;
  bad[3].tile = -8;
  bad[4].time_block = -2;
  for (const ExecOptions& o : bad) {
    EXPECT_THROW(eng.prepare(Preset::Heat2D, Extents{64, 64}, o),
                 std::invalid_argument);
    EXPECT_THROW(eng.plan_key(preset(Preset::Heat2D), Extents{64, 64}, o),
                 std::invalid_argument);
  }
  ExecOptions edge;
  for (int levels : {-1, 3}) {
    edge.levels = levels;
    EXPECT_NO_THROW(eng.plan_key(preset(Preset::Heat2D), Extents{64, 64},
                                 edge));
  }
}

TEST(Engine, RejectsPartiallyOverlappingViews) {
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, {});
  const int h = ps.halo();
  // One big allocation; b's view starts one row into a's span.
  Grid2D big(48 + 2, 64, h);
  FieldView2D a(big.data(), 48, 64, big.stride(), h);
  FieldView2D b(big.row(1), 48, 64, big.stride(), h);
  EXPECT_THROW(ps.run(a, b, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transposed-resident execution: validation, bitwise agreement with the
// per-call-transform path, and the layout conversion helpers.
// ---------------------------------------------------------------------------

// Max |diff| between the per-call-transform path and the transposed-
// resident path on identically-seeded caller-owned grids. Dimension-generic
// like the Solver comparison above.
double resident_vs_percall(const StencilSpec& spec, Method m, int tsteps) {
  ExecOptions opts;
  opts.method = m;
  opts.tiling = Tiling::Off;
  opts.tsteps = tsteps;
  PreparedStencil natural = Engine::instance().prepare(spec, {}, opts);
  opts.layout = Layout::Transposed;
  PreparedStencil res = Engine::instance().prepare(spec, {}, opts);
  EXPECT_EQ(res.resident_layout(), Layout::Transposed);
  const int h = natural.halo();

  if (spec.dims == 1) {
    const int n = static_cast<int>(natural.nx());
    Grid1D a(n, h), b(n, h), ra(n, h), rb(n, h);
    fill_random(a, 3);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    if (spec.has_source) {
      Grid1D k(n, h), rk(n, h);
      fill_random(k, 4);
      copy(k, rk);
      natural.run(a.view(), b.view(), k.view(), tsteps);
      auto rav = to_resident_layout(res, ra.view());
      auto rbv = to_resident_layout(res, rb.view());
      auto rkv = to_resident_layout(res, rk.view());
      res.run(rav, rbv, rkv, tsteps);
      to_natural_layout(res, rav);
    } else {
      natural.run(a.view(), b.view(), tsteps);
      auto rav = to_resident_layout(res, ra.view());
      auto rbv = to_resident_layout(res, rb.view());
      res.run(rav, rbv, tsteps);
      to_natural_layout(res, rav);
    }
    return max_abs_diff(a, ra);
  }
  if (spec.dims == 2) {
    const int nx = static_cast<int>(natural.nx());
    const int ny = static_cast<int>(natural.ny());
    Grid2D a(ny, nx, h), b(ny, nx, h), ra(ny, nx, h), rb(ny, nx, h);
    fill_random(a, 3);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    natural.run(a.view(), b.view(), tsteps);
    auto rav = to_resident_layout(res, ra.view());
    auto rbv = to_resident_layout(res, rb.view());
    res.run(rav, rbv, tsteps);
    to_natural_layout(res, rav);
    return max_abs_diff(a, ra);
  }
  const int nx = static_cast<int>(natural.nx());
  const int ny = static_cast<int>(natural.ny());
  const int nz = static_cast<int>(natural.nz());
  Grid3D a(nz, ny, nx, h), b(nz, ny, nx, h);
  Grid3D ra(nz, ny, nx, h), rb(nz, ny, nx, h);
  fill_random(a, 3);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);
  natural.run(a.view(), b.view(), tsteps);
  auto rav = to_resident_layout(res, ra.view());
  auto rbv = to_resident_layout(res, rb.view());
  res.run(rav, rbv, tsteps);
  to_natural_layout(res, rav);
  return max_abs_diff(a, ra);
}

TEST(ResidentLayout, BitwiseMatchesPerCallTransform) {
  // Every transpose-capable preset x method: the resident path must agree
  // bitwise with the per-call-transform path (identical arithmetic, the
  // involution merely hoisted out of the calls). Odd horizon exercises the
  // folded kernels' remainder step too.
  int covered = 0;
  for (const StencilSpec& spec : all_presets()) {
    for (Method m : {Method::Ours, Method::Ours2}) {
      const KernelInfo* k = find_kernel(m, spec.dims, Isa::Auto);
      if (k == nullptr ||
          k->resident_layout(effective_radius(spec)) != Layout::Transposed)
        continue;
      EXPECT_EQ(resident_vs_percall(spec, m, 5), 0.0)
          << spec.name << " / " << method_name(m);
      ++covered;
    }
  }
  EXPECT_GE(covered, 9);  // ours in 1/2/3-D covers all nine presets
}

TEST(ResidentLayout, ResidentAdvanceStreamMatchesOneRun) {
  // The target scenario: a stream of short advances on resident buffers
  // equals one long natural-layout run.
  ExecOptions opts;
  opts.method = Method::Ours;
  opts.tiling = Tiling::Off;
  opts.tsteps = 1;
  PreparedStencil natural =
      Engine::instance().prepare(Preset::Heat2D, Extents{96, 80}, opts);
  opts.layout = Layout::Transposed;
  PreparedStencil res =
      Engine::instance().prepare(Preset::Heat2D, Extents{96, 80}, opts);
  const int h = res.halo();
  Grid2D a(80, 96, h), b(80, 96, h), ra(80, 96, h), rb(80, 96, h);
  fill_random(a, 9);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);
  auto av = to_resident_layout(res, a.view());
  auto bv = to_resident_layout(res, b.view());
  for (int t = 0; t < 8; ++t) res.advance(av, bv, 1);
  to_natural_layout(res, av);
  for (int t = 0; t < 8; ++t) natural.run(ra.view(), rb.view(), 1);
  EXPECT_EQ(max_abs_diff(a, ra), 0.0);
}

TEST(ResidentLayout, ValidationTable) {
  ExecOptions opts;
  opts.method = Method::Ours;
  opts.tiling = Tiling::Off;
  PreparedStencil natural =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, opts);
  EXPECT_EQ(natural.preferred_layout(), Layout::Transposed);
  EXPECT_EQ(natural.resident_layout(), Layout::Natural);
  opts.layout = Layout::Transposed;
  PreparedStencil res =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, opts);
  EXPECT_EQ(res.preferred_layout(), Layout::Transposed);
  EXPECT_EQ(res.resident_layout(), Layout::Transposed);
  const int h = res.halo();
  Grid2D a(48, 64, h), b(48, 64, h);
  fill_random(a, 1);
  copy(a, b);

  // Natural-only handle still rejects resident tags (historical contract).
  EXPECT_THROW(
      natural.run(a.view().with_layout(Layout::Transposed),
                  b.view().with_layout(Layout::Transposed), 1),
      std::invalid_argument);
  // Resident handle accepts both natural and transposed pairs...
  res.run(a.view(), b.view(), 1);
  auto av = to_resident_layout(res, a.view());
  auto bv = to_resident_layout(res, b.view());
  res.run(av, bv, 1);
  // ...but never a mixed pair or a foreign layout tag.
  EXPECT_THROW(res.run(av, b.view().with_layout(Layout::Natural), 1),
               std::invalid_argument);
  EXPECT_THROW(res.run(av.with_layout(Layout::DLT), bv, 1),
               std::invalid_argument);
  // The transforms permute differently per SIMD width, so a resident tag
  // must carry the width it was built with: a hand-tag that dropped it
  // (width 0) or recorded another kernel's width is rejected, never
  // silently misread.
  EXPECT_THROW(res.run(av.with_layout(Layout::Transposed), bv, 1),
               std::invalid_argument);
  const int other_w = res.kernel().width == 8 ? 4 : 8;
  EXPECT_THROW(
      res.run(av.with_layout(Layout::Transposed, other_w), bv, 1),
      std::invalid_argument);
  to_natural_layout(res, av);
  to_natural_layout(res, bv);

  // Preparing a resident layout the kernel does not keep must throw.
  ExecOptions bad;
  bad.method = Method::MultipleLoads;
  bad.layout = Layout::Transposed;
  EXPECT_THROW(
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, bad),
      std::invalid_argument);
  bad.method = Method::Ours;
  bad.layout = Layout::DLT;
  EXPECT_THROW(
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, bad),
      std::invalid_argument);
}

TEST(ResidentLayout, ConversionHelpersAreIdempotentInvolutions) {
  ExecOptions opts;
  opts.method = Method::Ours;
  opts.layout = Layout::Transposed;
  PreparedStencil res =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 40}, opts);
  const int h = res.halo();
  Grid2D g(40, 72, h), ref(40, 72, h);
  fill_random(g, 21);
  copy(g, ref);
  auto v = to_resident_layout(res, g.view());
  EXPECT_EQ(v.layout(), Layout::Transposed);
  auto v2 = to_resident_layout(res, v);  // idempotent: no second transform
  EXPECT_EQ(v2.layout(), Layout::Transposed);
  auto back = to_natural_layout(res, v2);
  EXPECT_EQ(back.layout(), Layout::Natural);
  EXPECT_EQ(max_abs_diff(g, ref), 0.0);  // involution round-trip
  // A resident view transformed at another kernel's width must be refused
  // by both conversion directions — un-transposing W=4-permuted bytes with
  // a W=8 pattern would scramble them undetectably.
  const int other_w = res.kernel().width == 8 ? 4 : 8;
  auto foreign = g.view().with_layout(Layout::Transposed, other_w);
  EXPECT_THROW(to_natural_layout(res, foreign), std::invalid_argument);
  EXPECT_THROW(to_resident_layout(res, foreign), std::invalid_argument);
  EXPECT_EQ(max_abs_diff(g, ref), 0.0);  // untouched by the refusals
  // Natural-preferring kernels: conversion is the identity.
  ExecOptions ml;
  ml.method = Method::MultipleLoads;
  PreparedStencil pml =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 40}, ml);
  auto nv = to_resident_layout(pml, g.view());
  EXPECT_EQ(nv.layout(), Layout::Natural);
  EXPECT_EQ(max_abs_diff(g, ref), 0.0);
}

TEST(Solver, ResidentLayoutOptInIsBitwiseIdentical) {
  for (Preset p : {Preset::Heat1D, Preset::Heat2D, Preset::Heat3D}) {
    Solver def = Solver::make(p).method(Method::Ours).tiling(Tiling::Off);
    Solver res = Solver::make(p)
                     .method(Method::Ours)
                     .tiling(Tiling::Off)
                     .resident_layout(true);
    def.run();
    res.run();
    const Workspace& wd = def.workspace();
    const Workspace& wr = res.workspace();
    double diff = 0;
    if (def.spec().dims == 1)
      diff = max_abs_diff(*wd.grids<1>().a, *wr.grids<1>().a);
    else if (def.spec().dims == 2)
      diff = max_abs_diff(*wd.grids<2>().a, *wr.grids<2>().a);
    else
      diff = max_abs_diff(*wd.grids<3>().a, *wr.grids<3>().a);
    EXPECT_EQ(diff, 0.0) << def.spec().name;
  }
}

TEST(Solver, ResidentLayoutSurvivesTunePass) {
  // The tuning pass stores a geometry and re-prepares; the replacement
  // handle must keep accepting resident views (regression: the re-prepare
  // once used the bare options, silently dropping the resident opt-in and
  // putting the per-call transform back inside the timed region).
  Solver s = Solver::make(Preset::Heat2D)
                 .size(96, 80)
                 .steps(16)
                 .method(Method::Ours)
                 .tiling(Tiling::On)
                 .threads(2)
                 .tune(true)
                 .resident_layout(true);
  s.resolve();
  ASSERT_TRUE(s.plan().tiled && s.plan().blocked)
      << "geometry no longer blocks; pick a shape the tuner measures";
  ASSERT_EQ(s.prepared().resident_layout(), Layout::Transposed);
  s.run();
  EXPECT_EQ(s.plan().source, PlanSource::Tuned);  // the pass actually fired
  EXPECT_EQ(s.prepared().resident_layout(), Layout::Transposed);
}

// ---------------------------------------------------------------------------
// Halo policy: the Clean fast path matches the sync'd path when b's halo
// is in fact unchanged (always true between advances: kernels never write
// halos).
// ---------------------------------------------------------------------------

TEST(Engine, HaloCleanMatchesSyncedPath) {
  ExecOptions opts;
  opts.tsteps = 4;
  PreparedStencil synced =
      Engine::instance().prepare(Preset::Heat2D, Extents{80, 64}, opts);
  opts.halo_policy = HaloPolicy::Clean;
  PreparedStencil clean =
      Engine::instance().prepare(Preset::Heat2D, Extents{80, 64}, opts);
  EXPECT_EQ(synced.halo_policy(), HaloPolicy::Sync);
  EXPECT_EQ(clean.halo_policy(), HaloPolicy::Clean);
  const int h = synced.halo();

  Grid2D sa(64, 80, h), sb(64, 80, h), ca(64, 80, h), cb(64, 80, h);
  fill_random(sa, 13);
  copy(sa, sb);  // halos equal on both pairs: Clean's precondition holds
  copy(sa, ca);
  copy(sa, cb);
  for (int t = 0; t < 6; ++t) {
    synced.advance(sa.view(), sb.view(), 1);
    clean.advance(ca.view(), cb.view(), 1);
  }
  EXPECT_EQ(max_abs_diff(sa, ca), 0.0);
}

TEST(Engine, HaloCleanResidentStreamMatchesSyncedNatural) {
  // The bench's headline streaming mode — transposed-resident buffers plus
  // HaloPolicy::Clean — must agree bitwise with the safe configuration
  // (natural views, per-call halo sync): the halo stays a fixed point of
  // both the kernels and the transform's x-permutation across the stream.
  ExecOptions opts;
  opts.method = Method::Ours;
  opts.tiling = Tiling::Off;
  opts.tsteps = 1;
  PreparedStencil synced =
      Engine::instance().prepare(Preset::Box2D9, Extents{96, 64}, opts);
  opts.layout = Layout::Transposed;
  opts.halo_policy = HaloPolicy::Clean;
  PreparedStencil resclean =
      Engine::instance().prepare(Preset::Box2D9, Extents{96, 64}, opts);
  const int h = synced.halo();

  Grid2D sa(64, 96, h), sb(64, 96, h), ca(64, 96, h), cb(64, 96, h);
  fill_random(sa, 19);
  copy(sa, sb);
  copy(sa, ca);
  copy(sa, cb);
  auto cav = to_resident_layout(resclean, ca.view());
  auto cbv = to_resident_layout(resclean, cb.view());
  for (int t = 0; t < 7; ++t) {
    synced.advance(sa.view(), sb.view(), 1);
    resclean.advance(cav, cbv, 1);
  }
  to_natural_layout(resclean, cav);
  EXPECT_EQ(max_abs_diff(sa, ca), 0.0);
}

// ---------------------------------------------------------------------------
// Plan cache: identical requests share one prepared state.
// ---------------------------------------------------------------------------

TEST(Engine, PlanCacheSharesPreparedState) {
  ExecOptions opts;
  opts.tsteps = 12;
  const long before = Engine::instance().plan_cache_hits();
  PreparedStencil p1 =
      Engine::instance().prepare(Preset::Box2D9, Extents{100, 90}, opts);
  PreparedStencil p2 =
      Engine::instance().prepare(Preset::Box2D9, Extents{100, 90}, opts);
  EXPECT_GE(Engine::instance().plan_cache_hits(), before + 1);
  // Same underlying immutable state, not merely equal values.
  EXPECT_EQ(&p1.plan(), &p2.plan());
  // A different request resolves to different prepared state.
  opts.tsteps = 14;
  PreparedStencil p3 =
      Engine::instance().prepare(Preset::Box2D9, Extents{100, 90}, opts);
  EXPECT_NE(&p1.plan(), &p3.plan());
}

TEST(Engine, PlanCacheSurvivesUnrelatedTuneStore) {
  // Plan-cache invalidation is per-key: tuning one configuration must not
  // evict prepared handles whose own TuneCache lookup is unchanged. A
  // store for a far-away shape leaves this preparation's lookup result
  // identical, so re-preparing is a cache hit on the same state.
  ExecOptions opts;
  opts.tsteps = 16;
  PreparedStencil before =
      Engine::instance().prepare(Preset::Heat2D, Extents{112, 96}, opts);
  const std::size_t after_insert = Engine::instance().plan_cache_size();
  const KernelInfo& k = require_kernel(Method::Ours2, 2);
  TuneCache::instance().store(make_tune_key(k, 1, 8192, 8192, 1, 1000, 64),
                              TunedGeometry{512, 32});
  const long hits = Engine::instance().plan_cache_hits();
  PreparedStencil after =
      Engine::instance().prepare(Preset::Heat2D, Extents{112, 96}, opts);
  EXPECT_EQ(Engine::instance().plan_cache_hits(), hits + 1);
  EXPECT_EQ(&before.plan(), &after.plan());  // same shared prepared state
  EXPECT_LE(Engine::instance().plan_cache_size(), after_insert);  // no leak
}

TEST(Engine, PlanCacheInvalidatesOnlyTheTunedKey) {
  // Two tiled preparations with distinct tune keys; a store matching the
  // first one's configuration re-plans it (and recalls the tuned geometry)
  // while the second survives in cache untouched.
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.tsteps = 16;
  PreparedStencil pa =
      Engine::instance().prepare(Preset::Heat2D, Extents{112, 96}, opts);
  PreparedStencil pb =
      Engine::instance().prepare(Preset::Box2D9, Extents{100, 90}, opts);
  ASSERT_TRUE(pa.plan().tiled);
  ASSERT_TRUE(pb.plan().tiled);

  // Tune exactly pa's configuration (its kernel/radius/shape/horizon at
  // the negotiated thread count).
  TuneCache::instance().store(
      make_tune_key(pa.kernel(), 1, 112, 96, 1, 16, pa.plan().tile.threads),
      TunedGeometry{32, 4});

  // pb's key (different shape bucket) was untouched: served from cache.
  const long hits = Engine::instance().plan_cache_hits();
  PreparedStencil pb2 =
      Engine::instance().prepare(Preset::Box2D9, Extents{100, 90}, opts);
  EXPECT_EQ(Engine::instance().plan_cache_hits(), hits + 1);
  EXPECT_EQ(&pb.plan(), &pb2.plan());

  // pa's key changed: its stale entry is dropped, the re-preparation plans
  // afresh and recalls the just-stored geometry.
  PreparedStencil pa2 =
      Engine::instance().prepare(Preset::Heat2D, Extents{112, 96}, opts);
  EXPECT_NE(&pa.plan(), &pa2.plan());
  EXPECT_EQ(pa2.plan().source, PlanSource::Cached);
  EXPECT_EQ(pa2.plan().tile.tile, 32);
}

// ---------------------------------------------------------------------------
// Tuner shape buckets: nearby shapes reuse measurements, exact entries win.
// ---------------------------------------------------------------------------

TEST(TuneBuckets, QuarterOctaveRounding) {
  EXPECT_EQ(tune_bucket(4096), 4096);
  EXPECT_EQ(tune_bucket(4000), tune_bucket(4050));   // a few % apart: share
  EXPECT_NE(tune_bucket(3000), tune_bucket(4000));   // ~25% apart: split
  EXPECT_NE(tune_bucket(2000), tune_bucket(4000));   // an octave apart
  EXPECT_LE(tune_bucket(12345), 12345);              // floor, not ceiling
}

TEST(TuneBuckets, NearbyShapesHitExactShapesWin) {
  TuneCache cache;
  const KernelInfo& k = require_kernel(Method::Ours2, 2);
  const TuneKey exact = make_tune_key(k, 1, 4000, 4000, 1, 500, 4);
  const TuneKey nearby = make_tune_key(k, 1, 4050, 3990, 1, 500, 4);
  const TuneKey far = make_tune_key(k, 1, 9000, 4000, 1, 500, 4);
  cache.store(exact, TunedGeometry{640, 64});
  ASSERT_TRUE(cache.lookup_rounded(nearby).has_value());
  EXPECT_EQ(cache.lookup_rounded(nearby)->tile, 640);
  EXPECT_FALSE(cache.lookup_rounded(far).has_value());
  // Different threads / radius / kernel never cross-match.
  EXPECT_FALSE(
      cache.lookup_rounded(make_tune_key(k, 1, 4050, 3990, 1, 500, 8))
          .has_value());
  EXPECT_FALSE(
      cache.lookup_rounded(make_tune_key(k, 2, 4050, 3990, 1, 500, 4))
          .has_value());
  // An exact-shape entry outranks a bucket neighbour.
  cache.store(nearby, TunedGeometry{512, 32});
  EXPECT_EQ(cache.lookup_rounded(nearby)->tile, 512);
  EXPECT_EQ(cache.lookup_rounded(exact)->tile, 640);
}

// ---------------------------------------------------------------------------
// Validation toggle: SF_VALIDATE=0 / ExecOptions::validate drops the
// per-call view checks (the HaloPolicy::Clean streaming fast path) —
// invalid views must still throw by default.
// ---------------------------------------------------------------------------

TEST(Engine, InvalidViewsThrowByDefault) {
  ExecOptions opts;
  opts.tsteps = 6;
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, opts);
  EXPECT_TRUE(ps.validates());
  const int h = ps.halo();
  Grid2D a(48, 64, h), b(48, 64, h), wrong(24, 24, h);
  EXPECT_THROW(ps.run(a.view(), wrong.view(), 1), std::invalid_argument);
  EXPECT_THROW(ps.run(a.view(), a.view(), 1), std::invalid_argument);
}

TEST(Engine, ValidationOffMatchesValidatedRunBitwise) {
  ExecOptions opts;
  opts.tsteps = 4;
  opts.halo_policy = HaloPolicy::Clean;
  PreparedStencil checked =
      Engine::instance().prepare(Preset::Heat2D, Extents{80, 64}, opts);
  opts.validate = false;
  PreparedStencil unchecked =
      Engine::instance().prepare(Preset::Heat2D, Extents{80, 64}, opts);
  EXPECT_TRUE(checked.validates());
  EXPECT_FALSE(unchecked.validates());
  // The flag is part of the effective request: distinct prepared states.
  EXPECT_NE(&checked.plan(), &unchecked.plan());

  const int h = checked.halo();
  Grid2D va(64, 80, h), vb(64, 80, h), ua(64, 80, h), ub(64, 80, h);
  fill_random(va, 23);
  copy(va, vb);
  copy(va, ua);
  copy(va, ub);
  for (int t = 0; t < 5; ++t) {
    checked.advance(va.view(), vb.view(), 1);
    unchecked.advance(ua.view(), ub.view(), 1);
  }
  EXPECT_EQ(max_abs_diff(va, ua), 0.0);
}

TEST(Engine, EnvValidateZeroDisablesChecks) {
  ASSERT_EQ(setenv("SF_VALIDATE", "0", 1), 0);
  ExecOptions opts;
  opts.tsteps = 6;
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, opts);
  EXPECT_FALSE(ps.validates());
  unsetenv("SF_VALIDATE");
  // Cleared env: a fresh prepare validates again (and is not the cached
  // unvalidated preparation).
  PreparedStencil again =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, opts);
  EXPECT_TRUE(again.validates());
  // SF_VALIDATE=1 (or anything but "0") keeps validation on.
  ASSERT_EQ(setenv("SF_VALIDATE", "1", 1), 0);
  PreparedStencil on =
      Engine::instance().prepare(Preset::Heat2D, Extents{64, 48}, opts);
  EXPECT_TRUE(on.validates());
  unsetenv("SF_VALIDATE");
}

TEST(TuneBuckets, BucketedLookupsNeverCrossKernelOrRadiusKeys) {
  // Shape/horizon round into buckets; kernel identity (name + ISA + dims)
  // and radius must stay exact — a bucketed hit for another kernel's (or
  // another radius's) geometry would deploy a wedge slope negotiated for
  // different reads.
  TuneCache cache;
  const KernelInfo& ours2 = require_kernel(Method::Ours2, 2);
  const KernelInfo& ours = require_kernel(Method::Ours, 2);
  cache.store(make_tune_key(ours2, 1, 4000, 4000, 1, 500, 4),
              TunedGeometry{640, 64});
  // Identical shape/threads, different kernel: no cross-match, either way.
  EXPECT_FALSE(
      cache.lookup_rounded(make_tune_key(ours, 1, 4000, 4000, 1, 500, 4))
          .has_value());
  cache.store(make_tune_key(ours, 1, 4000, 4000, 1, 500, 4),
              TunedGeometry{320, 16});
  EXPECT_EQ(
      cache.lookup_rounded(make_tune_key(ours2, 1, 4010, 3990, 1, 500, 4))
          ->tile,
      640);
  EXPECT_EQ(
      cache.lookup_rounded(make_tune_key(ours, 1, 4010, 3990, 1, 500, 4))
          ->tile,
      320);
  // Same kernel, different radius: bucketed shapes never bridge it.
  EXPECT_FALSE(
      cache.lookup_rounded(make_tune_key(ours2, 2, 4010, 3990, 1, 500, 4))
          .has_value());
  // Same kernel at another ISA level is a different kernel identity too.
  const KernelInfo* ours2_scalar = find_kernel(Method::Ours2, 2, Isa::Scalar);
  ASSERT_NE(ours2_scalar, nullptr);
  EXPECT_FALSE(cache
                   .lookup_rounded(make_tune_key(*ours2_scalar, 1, 4010,
                                                 3990, 1, 500, 4))
                   .has_value());
}

}  // namespace
}  // namespace sf
