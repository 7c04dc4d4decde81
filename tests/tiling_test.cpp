// Temporal split tiling: exact equivalence with the naive reference for
// every tiled method, dimension, and awkward geometry; plus the paper's
// Fig. 7 tessellation states.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/cpu.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {
namespace {

TEST(Tessellation, PaperFigure7States) {
  // 3-point stencil (r = 1, slope 1), H = 4, tile 9: interior tiles read
  // (0,1,2,3,4,3,2,1,0) after the triangle stage; everything reads 4 after
  // the inverted-triangle stage.
  auto tr = trace_tessellation_1d(27, 9, 4, 1);
  const int expect[9] = {0, 1, 2, 3, 4, 3, 2, 1, 0};
  for (int i = 0; i < 9; ++i) EXPECT_EQ(tr.after_up[9 + i], expect[i]) << i;
  for (int x = 0; x < 27; ++x) EXPECT_EQ(tr.after_down[x], 4) << x;
}

TEST(Tessellation, FoldedSkipsOddLevels) {
  // With m = 2 the slope doubles: states go 0,2,4 across a tile (Fig. 7
  // "odd time steps are skipped").
  auto tr = trace_tessellation_1d(30, 10, 2, 2);
  for (int x = 0; x < 30; ++x) EXPECT_EQ(tr.after_down[x], 2);
  EXPECT_EQ(tr.after_up[10], 0);
  EXPECT_EQ(tr.after_up[12], 1);  // one folded super-step = 2 time steps
  EXPECT_EQ(tr.after_up[14], 2);
}

struct Case {
  int dims;
  Preset preset;
  Method method;
  int n0, n1, n2;  // extents (unused dims = 1)
  int tsteps;
  int tile;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s = std::to_string(c.dims) + "d_" + preset(c.preset).name + "_" +
                  method_name(c.method) + "_n" + std::to_string(c.n0) + "_t" +
                  std::to_string(c.tsteps) + "_b" + std::to_string(c.tile);
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

class Tiled : public ::testing::TestWithParam<Case> {};

TEST_P(Tiled, MatchesReference) {
  const Case c = GetParam();
  const auto& spec = preset(c.preset);
  TilePlan opt;
  opt.method = c.method;
  opt.isa = Isa::Auto;
  opt.tile = c.tile;
  opt.threads = 4;

  if (c.dims == 1) {
    const int radius =
        std::max(spec.p1.radius(), spec.has_source ? spec.src1.radius() : 0);
    const int halo = require_kernel(c.method, 1).required_halo(radius);
    Grid1D a(c.n0, halo), b(c.n0, halo), ra(c.n0, halo), rb(c.n0, halo);
    Grid1D k(c.n0, halo);
    fill_random(a, 99 + c.n0);
    fill_random(k, 7);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    const Pattern1D* src = spec.has_source ? &spec.src1 : nullptr;
    const FieldView1D kv = k.view();
    const FieldView1D* kk = spec.has_source ? &kv : nullptr;
    run_reference(spec.p1, ra, rb, c.tsteps, src, kk);
    run_tile_plan(spec.p1, a, b, src, kk, c.tsteps, opt);
    EXPECT_LE(max_abs_diff(a, ra), 1e-11 * std::max(1.0, max_abs(ra)));
  } else if (c.dims == 2) {
    const int halo = require_kernel(c.method, 2).required_halo(spec.p2.radius());
    Grid2D a(c.n0, c.n1, halo), b(c.n0, c.n1, halo);
    Grid2D ra(c.n0, c.n1, halo), rb(c.n0, c.n1, halo);
    fill_random(a, 31 + c.n0);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    run_reference(spec.p2, ra, rb, c.tsteps);
    run_tile_plan(spec.p2, a, b, c.tsteps, opt);
    EXPECT_LE(max_abs_diff(a, ra), 1e-11 * std::max(1.0, max_abs(ra)));
  } else {
    const int halo = require_kernel(c.method, 3).required_halo(spec.p3.radius());
    Grid3D a(c.n0, c.n1, c.n2, halo), b(c.n0, c.n1, c.n2, halo);
    Grid3D ra(c.n0, c.n1, c.n2, halo), rb(c.n0, c.n1, c.n2, halo);
    fill_random(a, 77 + c.n0);
    copy(a, b);
    copy(a, ra);
    copy(a, rb);
    run_reference(spec.p3, ra, rb, c.tsteps);
    run_tile_plan(spec.p3, a, b, c.tsteps, opt);
    EXPECT_LE(max_abs_diff(a, ra), 1e-11 * std::max(1.0, max_abs(ra)));
  }
}

std::vector<Case> make_cases() {
  std::vector<Case> v;
  const std::vector<Method> methods = {Method::Naive, Method::DLT, Method::Ours,
                                       Method::Ours2};
  // 1-D: tile sizes chosen to force several tiles and wedge interactions.
  for (Preset p : {Preset::Heat1D, Preset::P1D5, Preset::Apop})
    for (Method m : methods) {
      v.push_back({1, p, m, 512, 1, 1, 12, 64});
      v.push_back({1, p, m, 1000, 1, 1, 9, 128});
      v.push_back({1, p, m, 100, 1, 1, 8, 0});  // auto tile
    }
  // 2-D.
  for (Preset p : {Preset::Heat2D, Preset::Box2D9, Preset::Life, Preset::GB})
    for (Method m : methods) {
      v.push_back({2, p, m, 64, 48, 1, 10, 16});
      v.push_back({2, p, m, 45, 41, 1, 7, 12});
    }
  // 3-D.
  for (Preset p : {Preset::Heat3D, Preset::Box3D27})
    for (Method m : methods) {
      v.push_back({3, p, m, 32, 16, 24, 8, 8});
      v.push_back({3, p, m, 21, 13, 19, 5, 7});
    }
  // Untiled fallback methods run through the same entry point.
  v.push_back({2, Preset::Box2D9, Method::MultipleLoads, 40, 40, 1, 6, 16});
  v.push_back({1, Preset::Heat1D, Method::DataReorg, 300, 1, 1, 6, 50});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Tiled, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(Tiled, ThreadCountInvariance) {
  // Same bit-exact result for 1, 2 and 8 threads (stages are barriers; tiles
  // are disjoint).
  const auto& spec = preset(Preset::Box2D9);
  const int ny = 96, nx = 64, tsteps = 12;
  const int halo = require_kernel(Method::Ours2, 2).required_halo(spec.p2.radius());
  Grid2D ref(ny, nx, halo), refb(ny, nx, halo);
  fill_random(ref, 1);
  copy(ref, refb);
  TilePlan opt;
  opt.method = Method::Ours2;
  opt.tile = 24;
  opt.threads = 1;
  run_tile_plan(spec.p2, ref, refb, tsteps, opt);

  for (int threads : {2, 8}) {
    Grid2D a(ny, nx, halo), b(ny, nx, halo);
    fill_random(a, 1);
    copy(a, b);
    TilePlan o2 = opt;
    o2.threads = threads;
    run_tile_plan(spec.p2, a, b, tsteps, o2);
    EXPECT_EQ(max_abs_diff(a, ref), 0.0) << threads << " threads";
  }
}

TEST(Tiled, LongHorizon) {
  // Many time blocks back to back.
  const auto& spec = preset(Preset::Heat1D);
  const int n = 2048, tsteps = 64;
  const int halo = require_kernel(Method::Ours2, 1).required_halo(spec.p1.radius());
  Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo);
  fill_random(a, 3);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);
  run_reference(spec.p1, ra, rb, tsteps);
  TilePlan opt;
  opt.method = Method::Ours2;
  opt.tile = 256;
  opt.time_block = 16;
  opt.threads = 4;
  run_tile_plan(spec.p1, a, b, nullptr, nullptr, tsteps, opt);
  EXPECT_LE(max_abs_diff(a, ra), 1e-10);
}

TEST(Tiled, NegotiateWedgeRespectsOverridesAndBlocks) {
  // All-auto: one tile per thread, block height from the Fig. 7 triangle
  // geometry, wedges disjoint.
  TilePlan req;
  req.threads = 4;
  WedgeGeometry g = negotiate_wedge(1024, 2, 2, 64, req);
  EXPECT_EQ(g.threads, 4);
  EXPECT_EQ(g.tile, 256);
  EXPECT_TRUE(g.blocked);
  EXPECT_GT(g.time_block, 0);
  EXPECT_EQ(g.time_block % 2, 0);  // whole folded super-steps
  EXPECT_GE(g.tile, (2 * (g.time_block / 2) + 1) * 2);

  // Explicit geometry passes through (clamped only by the triangle
  // constraint).
  req.tile = 64;
  req.time_block = 8;
  g = negotiate_wedge(1024, 2, 2, 64, req);
  EXPECT_EQ(g.tile, 64);
  EXPECT_EQ(g.time_block, 8);

  // A domain that fits one per-thread tile cannot block.
  TilePlan one;
  one.threads = 1;
  g = negotiate_wedge(16, 2, 2, 64, one);
  EXPECT_FALSE(g.blocked);
}

// ---------------------------------------------------------------------------
// Pipelined wedge schedule: serial == barrier == pipelined, bitwise
// ---------------------------------------------------------------------------

// xorshift64: deterministic across platforms, no <random> seeding quirks.
std::uint64_t fz_next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
int fz_in(std::uint64_t& s, int lo, int hi) {  // uniform-ish in [lo, hi]
  return lo + static_cast<int>(fz_next(s) %
                               static_cast<std::uint64_t>(hi - lo + 1));
}

/// The three TilePlans of one equivalence check. `base` carries
/// method/tile/time_block: an *explicit* tile is required — auto geometry
/// negotiates per thread count and the runs would legitimately differ.
struct PlanTriple {
  TilePlan serial, barrier, piped;
};
PlanTriple plan_triple(const TilePlan& base, int threads, Affinity aff) {
  PlanTriple t;
  t.serial = base;
  t.serial.threads = 1;
  t.serial.affinity = Affinity::None;
  t.barrier = base;
  t.barrier.threads = threads;
  t.barrier.affinity = aff;
  t.barrier.barrier = true;
  t.piped = t.barrier;
  t.piped.barrier = false;
  return t;
}

void check_equiv_1d(const StencilSpec& spec, Method m, int n, int tsteps,
                    const PlanTriple& t, int seed) {
  const int radius =
      std::max(spec.p1.radius(), spec.has_source ? spec.src1.radius() : 0);
  const int halo = require_kernel(m, 1).required_halo(radius);
  const Pattern1D* src = spec.has_source ? &spec.src1 : nullptr;
  Grid1D k(n, halo);
  fill_random(k, seed + 1);
  const FieldView1D kv = k.view();
  const FieldView1D* kk = spec.has_source ? &kv : nullptr;
  Grid1D sa(n, halo), sb(n, halo), ba(n, halo), bb(n, halo), pa(n, halo),
      pb(n, halo), ra(n, halo), rb(n, halo);
  for (Grid1D* g : {&sa, &ba, &pa, &ra}) fill_random(*g, seed);
  copy(sa, sb);
  copy(ba, bb);
  copy(pa, pb);
  copy(ra, rb);
  run_tile_plan(spec.p1, sa, sb, src, kk, tsteps, t.serial);
  run_tile_plan(spec.p1, ba, bb, src, kk, tsteps, t.barrier);
  run_tile_plan(spec.p1, pa, pb, src, kk, tsteps, t.piped);
  EXPECT_EQ(max_abs_diff(ba, sa), 0.0) << "barrier vs serial";
  EXPECT_EQ(max_abs_diff(pa, sa), 0.0) << "pipelined vs serial";
  run_reference(spec.p1, ra, rb, tsteps, src, kk);
  EXPECT_LE(max_abs_diff(pa, ra), 1e-11 * std::max(1.0, max_abs(ra)));
}

void check_equiv_2d(const StencilSpec& spec, Method m, int ny, int nx,
                    int tsteps, const PlanTriple& t, int seed) {
  const int halo = require_kernel(m, 2).required_halo(spec.p2.radius());
  Grid2D sa(ny, nx, halo), sb(ny, nx, halo), ba(ny, nx, halo),
      bb(ny, nx, halo), pa(ny, nx, halo), pb(ny, nx, halo), ra(ny, nx, halo),
      rb(ny, nx, halo);
  for (Grid2D* g : {&sa, &ba, &pa, &ra}) fill_random(*g, seed);
  copy(sa, sb);
  copy(ba, bb);
  copy(pa, pb);
  copy(ra, rb);
  run_tile_plan(spec.p2, sa, sb, tsteps, t.serial);
  run_tile_plan(spec.p2, ba, bb, tsteps, t.barrier);
  run_tile_plan(spec.p2, pa, pb, tsteps, t.piped);
  EXPECT_EQ(max_abs_diff(ba, sa), 0.0) << "barrier vs serial";
  EXPECT_EQ(max_abs_diff(pa, sa), 0.0) << "pipelined vs serial";
  run_reference(spec.p2, ra, rb, tsteps);
  EXPECT_LE(max_abs_diff(pa, ra), 1e-11 * std::max(1.0, max_abs(ra)));
}

void check_equiv_3d(const StencilSpec& spec, Method m, int nz, int ny, int nx,
                    int tsteps, const PlanTriple& t, int seed) {
  const int halo = require_kernel(m, 3).required_halo(spec.p3.radius());
  Grid3D sa(nz, ny, nx, halo), sb(nz, ny, nx, halo), ba(nz, ny, nx, halo),
      bb(nz, ny, nx, halo), pa(nz, ny, nx, halo), pb(nz, ny, nx, halo),
      ra(nz, ny, nx, halo), rb(nz, ny, nx, halo);
  for (Grid3D* g : {&sa, &ba, &pa, &ra}) fill_random(*g, seed);
  copy(sa, sb);
  copy(ba, bb);
  copy(pa, pb);
  copy(ra, rb);
  run_tile_plan(spec.p3, sa, sb, tsteps, t.serial);
  run_tile_plan(spec.p3, ba, bb, tsteps, t.barrier);
  run_tile_plan(spec.p3, pa, pb, tsteps, t.piped);
  EXPECT_EQ(max_abs_diff(ba, sa), 0.0) << "barrier vs serial";
  EXPECT_EQ(max_abs_diff(pa, sa), 0.0) << "pipelined vs serial";
  run_reference(spec.p3, ra, rb, tsteps);
  EXPECT_LE(max_abs_diff(pa, ra), 1e-11 * std::max(1.0, max_abs(ra)));
}

/// One seeded-random geometry draw + equivalence check: dims, preset,
/// method, extents, explicit tile (possibly degenerate: single tile,
/// ntiles < workers), time block (possibly H = 1), threads, affinity.
void fuzz_iteration(std::uint64_t& s, int iter) {
  const int dims = 1 + iter % 3;
  static const Method methods[] = {Method::Naive, Method::DLT, Method::Ours,
                                   Method::Ours2};
  const Method m = methods[fz_in(s, 0, 3)];
  const int tsteps = fz_in(s, 1, 18);
  const int time_block = fz_in(s, 0, 3) == 0 ? fz_in(s, 1, 10) : 0;
  const int threads = fz_in(s, 2, 8);
  static const Affinity affs[] = {Affinity::None, Affinity::None,
                                  Affinity::Compact, Affinity::Scatter};
  const Affinity aff = affs[fz_in(s, 0, 3)];
  const int seed = 1000 + iter;
  SCOPED_TRACE("iter=" + std::to_string(iter) + " dims=" +
               std::to_string(dims) + " method=" + method_name(m) +
               " tsteps=" + std::to_string(tsteps) + " tb=" +
               std::to_string(time_block) + " threads=" +
               std::to_string(threads));
  TilePlan base;
  base.method = m;
  base.time_block = time_block;
  if (dims == 1) {
    static const Preset presets[] = {Preset::Heat1D, Preset::P1D5,
                                     Preset::Apop};
    const auto& spec = preset(presets[fz_in(s, 0, 2)]);
    const int n = fz_in(s, 48, 1200);
    base.tile = fz_in(s, 8, n + 8);  // may exceed n: single-tile/unblocked
    SCOPED_TRACE(std::string(spec.name) + " n=" + std::to_string(n) +
                 " tile=" + std::to_string(base.tile));
    check_equiv_1d(spec, m, n, tsteps, plan_triple(base, threads, aff), seed);
  } else if (dims == 2) {
    static const Preset presets[] = {Preset::Heat2D, Preset::Box2D9,
                                     Preset::Life, Preset::GB};
    const auto& spec = preset(presets[fz_in(s, 0, 3)]);
    const int ny = fz_in(s, 24, 128), nx = fz_in(s, 16, 96);
    base.tile = fz_in(s, 6, ny + 6);
    SCOPED_TRACE(std::string(spec.name) + " ny=" + std::to_string(ny) +
                 " nx=" + std::to_string(nx) + " tile=" +
                 std::to_string(base.tile));
    check_equiv_2d(spec, m, ny, nx, tsteps, plan_triple(base, threads, aff),
                   seed);
  } else {
    static const Preset presets[] = {Preset::Heat3D, Preset::Box3D27};
    const auto& spec = preset(presets[fz_in(s, 0, 1)]);
    const int nz = fz_in(s, 10, 40), ny = fz_in(s, 8, 28),
              nx = fz_in(s, 8, 28);
    base.tile = fz_in(s, 4, nz + 4);
    SCOPED_TRACE(std::string(spec.name) + " nz=" + std::to_string(nz) +
                 " ny=" + std::to_string(ny) + " nx=" + std::to_string(nx) +
                 " tile=" + std::to_string(base.tile));
    check_equiv_3d(spec, m, nz, ny, nx, tsteps, plan_triple(base, threads, aff),
                   seed);
  }
}

TEST(TiledPipeline, FuzzQuick) {
  std::uint64_t s = 0x5f5f5f5f12345678ull;
  for (int iter = 0; iter < 36; ++iter) fuzz_iteration(s, iter);
}

// The fused up/down walk interleaves differently per worker count: one
// worker walks every tile, N workers walk their shards concurrently with
// the boundary wedges behind the stage sync. Every (schedule, thread-count)
// combination must be bitwise equal to the serial run — for regular
// geometries, degenerate ones (tile > n: a single tile), and H = 1 time
// blocks.
TEST(TiledTree, DepthsBitwiseIdentical1D) {
  const auto& spec = preset(Preset::Heat1D);
  const int halo = require_kernel(Method::Ours2, 1).required_halo(1);
  struct Case {
    int n, tile, tsteps, threads;
  };
  for (const Case& c : {Case{700, 96, 12, 4}, Case{300, 400, 9, 3},
                        Case{420, 10, 7, 5}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " tile=" +
                 std::to_string(c.tile));
    TilePlan flat;
    flat.method = Method::Ours2;
    flat.tile = c.tile;
    flat.threads = 1;
    Grid1D ra(c.n, halo), rb(c.n, halo);
    fill_random(ra, 77);
    copy(ra, rb);
    run_tile_plan(spec.p1, ra, rb, nullptr, nullptr, c.tsteps, flat);
    for (bool barrier : {true, false})
      for (int threads : {1, c.threads}) {
        SCOPED_TRACE("barrier=" + std::to_string(barrier) + " threads=" +
                     std::to_string(threads));
        TilePlan walk = flat;
        walk.threads = threads;
        walk.barrier = barrier;
        Grid1D ta(c.n, halo), tb(c.n, halo);
        fill_random(ta, 77);
        copy(ta, tb);
        run_tile_plan(spec.p1, ta, tb, nullptr, nullptr, c.tsteps, walk);
        EXPECT_EQ(max_abs_diff(ta, ra), 0.0);
      }
  }
}

TEST(TiledTree, DepthsBitwiseIdentical3D) {
  const auto& spec = preset(Preset::Heat3D);
  const int halo = require_kernel(Method::Ours2, 3).required_halo(1);
  struct Case {
    int nz, tile, tsteps, threads;
  };
  for (const Case& c : {Case{40, 12, 10, 4}, Case{24, 64, 6, 3}}) {
    SCOPED_TRACE("nz=" + std::to_string(c.nz) + " tile=" +
                 std::to_string(c.tile));
    TilePlan flat;
    flat.method = Method::Ours2;
    flat.tile = c.tile;
    flat.threads = 1;
    Grid3D ra(c.nz, 20, 16, halo), rb(c.nz, 20, 16, halo);
    fill_random(ra, 99);
    copy(ra, rb);
    run_tile_plan(spec.p3, ra, rb, c.tsteps, flat);
    for (bool barrier : {true, false}) {
      SCOPED_TRACE("barrier=" + std::to_string(barrier));
      TilePlan walk = flat;
      walk.threads = c.threads;
      walk.barrier = barrier;
      Grid3D ta(c.nz, 20, 16, halo), tb(c.nz, 20, 16, halo);
      fill_random(ta, 99);
      copy(ta, tb);
      run_tile_plan(spec.p3, ta, tb, c.tsteps, walk);
      EXPECT_EQ(max_abs_diff(ta, ra), 0.0);
    }
  }
}

// Acceptance sweep: all nine presets at their native dimensionality,
// pinned (compact + scatter) and unpinned — pipelined bitwise equal to the
// barrier schedule and to the serial run.
TEST(TiledPipeline, AllPresetsPinnedAndUnpinned) {
  for (Affinity aff :
       {Affinity::None, Affinity::Compact, Affinity::Scatter}) {
    SCOPED_TRACE(affinity_name(aff));
    TilePlan base;
    base.method = Method::Ours2;
    for (Preset p : {Preset::Heat1D, Preset::P1D5, Preset::Apop}) {
      base.tile = 96;
      check_equiv_1d(preset(p), base.method, 700, 12,
                     plan_triple(base, 4, aff), 11);
    }
    for (Preset p :
         {Preset::Heat2D, Preset::Box2D9, Preset::Life, Preset::GB}) {
      base.tile = 20;
      check_equiv_2d(preset(p), base.method, 96, 64, 10,
                     plan_triple(base, 4, aff), 12);
    }
    for (Preset p : {Preset::Heat3D, Preset::Box3D27}) {
      base.tile = 10;
      check_equiv_3d(preset(p), base.method, 32, 20, 18, 8,
                     plan_triple(base, 4, aff), 13);
    }
  }
}

// Regression (empty-range workers): with fewer tiles than workers the tail
// workers execute zero wedges but must still publish their sequence
// counters every round — a worker waiting on an idle neighbor would
// otherwise deadlock. Pinned under both policies, where workers share CPUs
// and the skew is worst.
TEST(TiledPipeline, MoreWorkersThanTilesPublishesAndCompletes) {
  for (Affinity aff : {Affinity::Compact, Affinity::Scatter}) {
    SCOPED_TRACE(affinity_name(aff));
    TilePlan base;
    base.method = Method::Ours2;
    base.tile = 48;  // ny = 96 -> 2 tiles, 8 workers: 6 empty ranges
    check_equiv_2d(preset(Preset::Heat2D), base.method, 96, 64, 12,
                   plan_triple(base, 8, aff), 21);
  }
}

TEST(TiledPipeline, SingleTileFallsBackUnblocked) {
  TilePlan base;
  base.method = Method::Ours;
  base.tile = 512;  // tile >= n: cannot block, full sweeps on every path
  check_equiv_1d(preset(Preset::Heat1D), base.method, 400, 10,
                 plan_triple(base, 4, Affinity::None), 31);
}

TEST(TiledPipeline, MinimalTimeBlockHEqualsOne) {
  TilePlan base;
  base.method = Method::Ours2;
  base.time_block = 2;  // fold depth m = 2 -> H = 1: waits every super-step
  base.tile = 24;
  check_equiv_2d(preset(Preset::Box2D9), base.method, 96, 48, 9,
                 plan_triple(base, 4, Affinity::None), 41);
  base.method = Method::Ours;  // m = 1 -> H = 1 directly
  base.time_block = 1;
  check_equiv_2d(preset(Preset::Heat2D), base.method, 96, 48, 9,
                 plan_triple(base, 4, Affinity::None), 42);
}

// The long fuzz (ctest label `stress`, excluded from the default run):
// many more geometry draws, half of them under SF_TEST_JITTER so the
// schedules are maximally skewed while the bitwise assertions hold.
TEST(TiledPipelineStress, FuzzLong) {
  std::uint64_t s = 0xabcdef9876543210ull;
  for (int iter = 0; iter < 90; ++iter) fuzz_iteration(s, iter);
  ASSERT_EQ(setenv("SF_TEST_JITTER", "300", 1), 0);
  for (int iter = 90; iter < 150; ++iter) fuzz_iteration(s, iter);
  unsetenv("SF_TEST_JITTER");
}

}  // namespace
}  // namespace sf
