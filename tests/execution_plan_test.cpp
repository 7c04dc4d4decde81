// The ExecutionPlan layer and the auto-tuner: unified tiled-vs-untiled
// execution through Solver::run for every Table-1 preset, the Tiling::Auto
// cost model, registry tileability metadata, geometry negotiation, the
// measure-once / cache-reuse tuning contract (through the Solver and
// through Engine::tune on caller-owned views), and the strict tune-cache
// line parser.
#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "core/tuner.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

double result_diff(const Workspace& x, const Workspace& y) {
  switch (x.dims) {
    case 1: return max_abs_diff(*x.grids<1>().a, *y.grids<1>().a);
    case 2: return max_abs_diff(*x.grids<2>().a, *y.grids<2>().a);
    default: return max_abs_diff(*x.grids<3>().a, *y.grids<3>().a);
  }
}

double result_scale(const Workspace& x) {
  switch (x.dims) {
    case 1: return max_abs(*x.grids<1>().a);
    case 2: return max_abs(*x.grids<2>().a);
    default: return max_abs(*x.grids<3>().a);
  }
}

void apply_test_size(Solver& s, int dims) {
  switch (dims) {
    case 1: s.size(2000); break;
    case 2: s.size(72, 64); break;
    default: s.size(36, 24, 20); break;
  }
  s.steps(8);
}

// The split-tiled multicore path through the unified Solver::run must agree
// with the untiled kernel on identical inputs, for all nine presets at
// their native dimensionality (and both must match the naive reference).
TEST(UnifiedRun, TiledMatchesUntiledAllPresets) {
  for (const auto& spec : all_presets()) {
    Solver tiled = Solver::make(spec.id).tiling(Tiling::On).threads(3);
    Solver flat = Solver::make(spec.id).tiling(Tiling::Off);
    apply_test_size(tiled, spec.dims);
    apply_test_size(flat, spec.dims);

    RunResult tr = tiled.run_verified();
    EXPECT_GE(tr.max_error, 0.0) << spec.name;
    EXPECT_LE(tr.max_error, 1e-10) << spec.name;
    flat.run();

    // Same kernel (Auto resolves identically), same seed: the wedge
    // schedule only reorders per-point updates, so the results agree to
    // rounding.
    EXPECT_EQ(&tiled.kernel(), &flat.kernel()) << spec.name;
    const double scale = std::max(1.0, result_scale(flat.workspace()));
    EXPECT_LE(result_diff(tiled.workspace(), flat.workspace()),
              1e-10 * scale)
        << spec.name;
  }
}

TEST(ExecutionPlan, OnForcesTiledWithNegotiatedGeometry) {
  Solver s = Solver::make(Preset::Heat2D)
                 .size(512, 384)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(2);
  const ExecutionPlan& plan = s.plan();
  EXPECT_TRUE(plan.tiled);
  EXPECT_EQ(plan.source, PlanSource::Heuristic);
  EXPECT_EQ(plan.kernel, &s.kernel());
  EXPECT_EQ(plan.tile.method, s.kernel().method);
  EXPECT_GT(plan.tile.tile, 0);
  EXPECT_GT(plan.tile.time_block, 0);
  EXPECT_EQ(plan.tile.threads, 2);
  // The negotiated time block is a whole number of folded super-steps.
  EXPECT_EQ(plan.tile.time_block % s.kernel().fold_depth, 0);
}

TEST(ExecutionPlan, PlacementNegotiatedWithGeometry) {
  Solver s = Solver::make(Preset::Heat2D)
                 .size(512, 384)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(3)
                 .affinity(Affinity::Compact);
  const ExecutionPlan& plan = s.plan();
  ASSERT_TRUE(plan.tiled);
  ASSERT_TRUE(plan.blocked);
  EXPECT_EQ(plan.tile.affinity, Affinity::Compact);
  const PlacementPlan& place = plan.placement;
  EXPECT_EQ(place.workers, 3);
  EXPECT_EQ(place.affinity, Affinity::Compact);
  // Placement covers exactly the negotiated tile count, in worker order.
  const int ntiles = (384 + plan.tile.tile - 1) / plan.tile.tile;
  EXPECT_EQ(place.ntiles(), ntiles);
  int covered = 0;
  for (int w = 0; w < place.workers; ++w) {
    const auto [t0, t1] = place.tiles_of(w);
    EXPECT_LE(t0, t1);
    covered += t1 - t0;
  }
  EXPECT_EQ(covered, ntiles);
  // Serial plans carry no placement.
  Solver serial = Solver::make(Preset::Heat2D)
                      .size(512, 384)
                      .steps(16)
                      .method(Method::Ours2)
                      .tiling(Tiling::On)
                      .threads(1);
  EXPECT_TRUE(serial.plan().tiled);
  EXPECT_EQ(serial.plan().placement.workers, 0);
}

TEST(ExecutionPlan, OffAndNonTileableKernelsStayUntiled) {
  Solver off = Solver::make(Preset::Heat2D).size(512, 384).steps(16).tiling(
      Tiling::Off);
  EXPECT_FALSE(off.plan().tiled);
  EXPECT_EQ(off.plan().source, PlanSource::Untiled);

  // data-reorg has no tiled stage: Tiling::On degrades to untiled.
  Solver dr = Solver::make(Preset::Heat2D)
                  .size(512, 384)
                  .steps(16)
                  .method(Method::DataReorg)
                  .tiling(Tiling::On);
  EXPECT_FALSE(dr.plan().tiled);
  RunResult r = dr.run_verified();
  EXPECT_LE(r.max_error, 1e-11);
}

TEST(ExecutionPlan, AutoCostModelScalesWithWorkingSet) {
  // Pin the LLC the cost model sees: machines report anything from 4 MB to
  // hundreds of MB, and the decision must be deterministic under test.
  ASSERT_EQ(setenv("SF_LLC_BYTES", "33554432", 1), 0);  // 32 MiB

  // Tiny problem: stage barriers outweigh the parallel win; stays untiled.
  Solver small =
      Solver::make(Preset::Heat2D).size(64, 64).steps(8).method(Method::Ours2);
  EXPECT_FALSE(small.plan().tiled);

  // Production-sized problem (plan only — never allocated/run here): the
  // 256 MiB ping-pong pair exceeds the LLC, so Auto tiles it on any
  // machine, single- or multi-core.
  Solver big = Solver::make(Preset::Heat2D)
                   .size(4096, 4096)
                   .steps(64)
                   .method(Method::Ours2);
  const ExecutionPlan& plan = big.plan();
  EXPECT_TRUE(plan.tiled);
  EXPECT_GT(plan.tile.tile, 0);
  EXPECT_LT(plan.tile.tile, 4096);  // blocked: never one whole-domain tile
  unsetenv("SF_LLC_BYTES");
}

TEST(ExecutionPlan, ExplicitGeometryOutranksNegotiation) {
  Solver s = Solver::make(Preset::Box2D9)
                 .size(96, 96)
                 .steps(12)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .tile(24)
                 .threads(2);
  EXPECT_TRUE(s.plan().tiled);
  EXPECT_EQ(s.plan().tile.tile, 24);
  RunResult r = s.run_verified();
  EXPECT_LE(r.max_error, 1e-10);
}

// The Solver's run (always the pipelined schedule) against its own
// negotiated plan re-run on the barrier schedule through the
// TilePlan::barrier hook, on the same seeded input.
TEST(ExecutionPlan, PipelinedRunMatchesBarrierHookBitwise) {
  Solver s = Solver::make(Preset::Heat3D)
                 .size(36, 24, 20)
                 .steps(8)
                 .tiling(Tiling::On)
                 .threads(4);
  s.run();
  ASSERT_TRUE(s.plan().tiled && s.plan().blocked);
  TilePlan barrier = s.plan().tile;
  barrier.barrier = true;
  Grid3D a(20, 24, 36, s.halo()), b(20, 24, 36, s.halo());
  fill_random(a, 42);  // the Solver's default seed
  copy(a, b);
  run_tile_plan(s.spec().p3, a, b, 8, barrier);
  EXPECT_EQ(max_abs_diff(a, *s.workspace().grids<3>().a), 0.0);
}

TEST(TileTree, FlatPlansEngageOnlyTheTileLevel) {
  unsetenv("SF_TILE_LEVELS");
  Solver s = Solver::make(Preset::Heat2D)
                 .size(96, 384)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(4);
  const ExecutionPlan& plan = s.plan();
  ASSERT_TRUE(plan.tiled);
  EXPECT_EQ(plan.tree.depth(), 1);
  EXPECT_EQ(plan.tree.shard, 0);
  EXPECT_EQ(plan.tree.tile, plan.tile.tile);
  EXPECT_EQ(plan.tree.leaf, 0);
  // Untiled plans engage no level.
  Solver off = Solver::make(Preset::Heat2D).size(96, 384).steps(16).tiling(
      Tiling::Off);
  EXPECT_EQ(off.plan().tree.depth(), 0);
}
// The multi-level negotiation: with a small LLC the mid level caps the
// wedge tile under the flat heuristic, the stamped tree reports
// shard/mid/leaf extents outermost-first, and tuned geometry stored at a
// depth redeploys only at that depth (per-level cache keys).
TEST(TileTree, NegotiationShapeAndPerLevelRedeploy) {
  // Heat2D 96x384, 4 workers, slice = 8*96 bytes: cap = llc/(4*3*768) = 24
  // planes < the flat 96, and 24 >= (2H+1)*slope blocks (H = 5).
  ASSERT_EQ(setenv("SF_LLC_BYTES", "221184", 1), 0);
  TuneCache::instance().clear();
  auto solver_at = [](int levels) {
    return Solver::make(Preset::Heat2D)
        .size(96, 384)
        .steps(16)
        .method(Method::Ours2)
        .tiling(Tiling::On)
        .threads(4)
        .levels(levels);
  };
  Solver flat = solver_at(1);
  Solver tree = solver_at(3);
  ASSERT_TRUE(tree.plan().tiled);
  EXPECT_EQ(flat.plan().tree.depth(), 1);
  EXPECT_LT(tree.plan().tile.tile, flat.plan().tile.tile);
  EXPECT_EQ(tree.plan().tile.tile, 24);
  const TileTree& tt = tree.plan().tree;
  EXPECT_EQ(tt.depth(), 3);
  // Outermost = worker shard (>= tile), tile = capped wedge tile, leaf =
  // the kernel's register block, each level nesting the next.
  EXPECT_GE(tt.shard, tt.tile);
  EXPECT_EQ(tt.tile, 24);
  EXPECT_EQ(tt.leaf, tree.kernel().reg_block());
  // The capped tile is a *different* wedge geometry than the flat 96, so
  // flank corrections may round differently — agreement is to verification
  // tolerance here. (Bitwise identity across depths holds at fixed
  // geometry: TiledTree.DepthsBitwiseIdentical* and the tiling fuzz.)
  flat.run();
  tree.run();
  EXPECT_LE(result_diff(flat.workspace(), tree.workspace()),
            1e-11 * std::max(1.0, result_scale(flat.workspace())));

  // Per-level redeploy: a tuned entry recorded at depth 3 deploys for
  // depth-3 requests only; flat requests keep the heuristic geometry.
  TuneCache::instance().store(
      make_tune_key(tree.kernel(), 1, 96, 384, 1, 16, 4, 3),
      TunedGeometry{48, 10, 0, 2});
  Solver recalled = solver_at(3);
  EXPECT_EQ(recalled.plan().source, PlanSource::Cached);
  EXPECT_EQ(recalled.plan().tile.tile, 48);
  EXPECT_EQ(recalled.plan().tile.time_block, 10);
  Solver still_flat = solver_at(1);
  EXPECT_EQ(still_flat.plan().source, PlanSource::Heuristic);
  EXPECT_NE(still_flat.plan().tile.tile, 48);
  TuneCache::instance().clear();
  unsetenv("SF_LLC_BYTES");
}

TEST(TileTree, LevelsEnvResolvedAndPlanCacheKeyed) {
  unsetenv("SF_TILE_LEVELS");
  Engine& eng = Engine::instance();
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = 8;
  ExecOptions one = opts, three = opts;
  one.levels = 1;
  three.levels = 3;
  const Extents ext{96, 64};
  const StencilSpec& spec = preset(Preset::Heat2D);
  // Distinct depths are distinct preparations.
  EXPECT_NE(eng.plan_key(spec, ext, one), eng.plan_key(spec, ext, three));
  // Unset env: levels = 0 defers to SF_TILE_LEVELS, default flat.
  EXPECT_EQ(eng.plan_key(spec, ext, opts), eng.plan_key(spec, ext, one));
  ASSERT_EQ(setenv("SF_TILE_LEVELS", "3", 1), 0);
  EXPECT_EQ(eng.plan_key(spec, ext, opts), eng.plan_key(spec, ext, three));
  // Auto picks depth from working set vs LLC: tiny grid stays flat, and
  // with the LLC pinned below the working set the hierarchy engages.
  ASSERT_EQ(setenv("SF_TILE_LEVELS", "auto", 1), 0);
  EXPECT_EQ(eng.plan_key(spec, ext, opts), eng.plan_key(spec, ext, one));
  ASSERT_EQ(setenv("SF_LLC_BYTES", "4096", 1), 0);
  EXPECT_EQ(eng.plan_key(spec, ext, opts), eng.plan_key(spec, ext, three));
  unsetenv("SF_LLC_BYTES");
  unsetenv("SF_TILE_LEVELS");
}

TEST(Registry, TileabilityMetadata) {
  // The folded method fold-doubles the wedge slope (odd levels skipped,
  // Fig. 7) and tiles only while the folded radius fits the vector window.
  const KernelInfo& folded = require_kernel(Method::Ours2, 2, Isa::Avx2);
  EXPECT_EQ(folded.fold_depth, 2);
  EXPECT_EQ(folded.wedge_slope(1), 2);
  EXPECT_TRUE(folded.tileable(1));
  EXPECT_FALSE(folded.tileable(3));

  const KernelInfo& naive = require_kernel(Method::Naive, 2, Isa::Avx2);
  EXPECT_TRUE(naive.tileable(5));  // any radius
  EXPECT_EQ(naive.wedge_slope(2), 2);

  // Multiple-loads tiles at any radius in every dimension; data-reorg
  // has no tiled stage.
  for (int dims = 1; dims <= 3; ++dims) {
    EXPECT_TRUE(require_kernel(Method::MultipleLoads, dims, Isa::Avx2)
                    .tileable(5));
    EXPECT_FALSE(
        require_kernel(Method::DataReorg, dims, Isa::Avx2).tileable(1));
  }
  // DLT tiles in 2-D/3-D but never in 1-D (lifted-seam coupling).
  EXPECT_TRUE(require_kernel(Method::DLT, 2, Isa::Avx2).tileable(1));
  EXPECT_FALSE(require_kernel(Method::DLT, 1, Isa::Avx2).tileable(1));
}

TEST(Registry, TiledPathShapeGuards) {
  // DLT needs a full stencil of lifted rows: engages at nx = 64, not 8.
  const KernelInfo& dlt = require_kernel(Method::DLT, 2, Isa::Avx2);
  EXPECT_TRUE(tiled_path_engages(dlt, 1, 0, 64));
  EXPECT_FALSE(tiled_path_engages(dlt, 1, 0, 8));
  // The 1-D source term widens the wedge reads past the vector window.
  const KernelInfo& folded1 = require_kernel(Method::Ours2, 1, Isa::Avx2);
  EXPECT_TRUE(tiled_path_engages(folded1, 1, 1, 1000));
  EXPECT_FALSE(tiled_path_engages(folded1, 1, 3, 1000));
}

// The measure-once contract: the first tuned run measures and stores
// exactly once; the second run of the same configuration (same Solver or a
// fresh one) reuses the cached geometry without re-measuring.
TEST(Tuner, CachedPlanReusedWithoutRemeasure) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();
  const long before = cache.stored_count();

  Solver s = Solver::make(Preset::Heat2D)
                 .size(256, 192)
                 .steps(12)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(2)
                 .tune(true);
  s.run();
  EXPECT_EQ(cache.stored_count(), before + 1);
  EXPECT_EQ(s.plan().source, PlanSource::Tuned);
  const int tuned_tile = s.plan().tile.tile;
  EXPECT_GT(tuned_tile, 0);

  // Same Solver again: the plan is already tuned, nothing re-measures.
  s.run();
  EXPECT_EQ(cache.stored_count(), before + 1);

  // A fresh Solver for the same configuration recalls the cached geometry
  // at plan time and never measures.
  Solver again = Solver::make(Preset::Heat2D)
                     .size(256, 192)
                     .steps(12)
                     .method(Method::Ours2)
                     .tiling(Tiling::On)
                     .threads(2)
                     .tune(true);
  EXPECT_EQ(again.plan().source, PlanSource::Cached);
  EXPECT_EQ(again.plan().tile.tile, tuned_tile);
  again.run();
  EXPECT_EQ(cache.stored_count(), before + 1);

  // A different shape is a different key: it measures (once) again.
  Solver other = Solver::make(Preset::Heat2D)
                     .size(192, 256)
                     .steps(12)
                     .method(Method::Ours2)
                     .tiling(Tiling::On)
                     .threads(2)
                     .tune(true);
  other.run();
  EXPECT_EQ(cache.stored_count(), before + 2);
  cache.clear();
}

// The search measures (tile × time_block) pairs and candidate thread
// counts, not just tile extents: whatever wins, the recorded geometry is a
// fully-specified pair (and optionally a thread count) that deploys as a
// blocked wedge schedule — and re-deploys identically from the cache.
TEST(Tuner, RecordsPairAndThreadAxis) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();

  Solver s = Solver::make(Preset::Heat2D)
                 .size(320, 256)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(2)
                 .tune(true);
  s.run();
  EXPECT_EQ(s.plan().source, PlanSource::Tuned);

  // The stored entry is keyed on the *requested* resolved thread count...
  const TuneKey key = make_tune_key(s.kernel(), 1, 320, 256, 1, 16, 2);
  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(hit->tile, 0);
  EXPECT_GT(hit->time_block, 0);  // the pair was recorded, not re-derived
  // ...and its thread axis either kept the request (0) or settled on a
  // strictly smaller measured count.
  EXPECT_GE(hit->threads, 0);
  EXPECT_LE(hit->threads, 2);
  // Whatever was recorded deploys: the executed plan carries it.
  EXPECT_EQ(s.plan().tile.tile, hit->tile);
  EXPECT_EQ(s.plan().tile.time_block, hit->time_block);
  if (hit->threads > 0) {
    EXPECT_EQ(s.plan().tile.threads, hit->threads);
  }

  // A fresh Solver recalls and deploys the identical geometry.
  Solver again = Solver::make(Preset::Heat2D)
                     .size(320, 256)
                     .steps(16)
                     .method(Method::Ours2)
                     .tiling(Tiling::On)
                     .threads(2)
                     .tune(true);
  EXPECT_EQ(again.plan().source, PlanSource::Cached);
  EXPECT_EQ(again.plan().tile.tile, s.plan().tile.tile);
  EXPECT_EQ(again.plan().tile.time_block, s.plan().tile.time_block);
  EXPECT_EQ(again.plan().tile.threads, s.plan().tile.threads);
  cache.clear();
}

TEST(Tuner, RecalledThreadCountNeverExceedsTheRequest) {
  // A cache entry (SF_TUNE_CACHE may be edited or come from another
  // machine) recalling more workers than the request negotiates must not
  // size the pool: the tuner only ever probes counts below the request, so
  // the planner ignores a larger one and deploys the negotiated count.
  TuneCache& cache = TuneCache::instance();
  cache.clear();
  const StencilSpec& spec = preset(Preset::Heat3D);
  ExecOptions opts;
  opts.tsteps = 16;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  const PlanRequest req{spec, require_kernel(Method::Ours2, 3),
                        Extents{64, 64, 512}, opts};
  const ExecutionPlan heuristic = plan_execution(req);
  ASSERT_TRUE(heuristic.blocked);
  cache.store(make_tune_key(req.kernel, effective_radius(spec), 64, 64, 512,
                            16, 2, heuristic.tree.depth()),
              TunedGeometry{heuristic.tile.tile, heuristic.tile.time_block,
                            100000});
  const ExecutionPlan plan = plan_execution(req);
  EXPECT_EQ(plan.source, PlanSource::Cached);
  EXPECT_EQ(plan.tile.threads, 2);
  EXPECT_EQ(plan.placement.workers, 2);
  cache.clear();
}

TEST(Tuner, V1CacheLinesStillParse) {
  // Pre-thread-axis caches keep working: a v1 line (no tuned_threads
  // column) loads with threads = 0, i.e. "deploy with the key's count".
  const std::string path = ::testing::TempDir() + "sf_tune_cache_v1.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("v1 ours-2step 1 2 1 128 96 1 10 4 40 6\n", f);
  std::fputs("v2 ours-2step 1 2 1 256 96 1 10 4 40 6 2\n", f);
  std::fputs("v3 ours-2step 1 2 1 384 96 1 10 4 40 6 2 2 8\n", f);
  std::fclose(f);
  TuneCache c;
  EXPECT_EQ(c.load_file(path), 3u);
  const KernelInfo& k = require_kernel(Method::Ours2, 2, Isa::Avx2);
  auto v1 = c.lookup(make_tune_key(k, 1, 128, 96, 1, 10, 4));
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->threads, 0);
  // Pre-tree v2 lines land at the flat (levels = 1) key with no leaf.
  auto v2 = c.lookup(make_tune_key(k, 1, 256, 96, 1, 10, 4));
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->threads, 2);
  EXPECT_EQ(v2->leaf, 0);
  // v3 lines carry the tree-depth key axis and the leaf granule — visible
  // only at their own depth, never at the flat key.
  auto v3 = c.lookup(make_tune_key(k, 1, 384, 96, 1, 10, 4, 2));
  ASSERT_TRUE(v3.has_value());
  EXPECT_EQ(v3->threads, 2);
  EXPECT_EQ(v3->leaf, 8);
  EXPECT_FALSE(c.lookup(make_tune_key(k, 1, 384, 96, 1, 10, 4)).has_value());
  std::remove(path.c_str());
}

TEST(Tuner, V3RoundTripKeepsLevelsAndLeaf) {
  TuneCache a;
  const KernelInfo& k = require_kernel(Method::Ours2, 2, Isa::Avx2);
  // The same configuration tuned flat and at depth 2: distinct entries.
  a.store(make_tune_key(k, 1, 128, 96, 1, 10, 4), TunedGeometry{40, 6});
  a.store(make_tune_key(k, 1, 128, 96, 1, 10, 4, 2),
          TunedGeometry{24, 4, 0, 4});
  const std::string path = ::testing::TempDir() + "sf_tune_cache_v3.txt";
  ASSERT_TRUE(a.save_file(path));
  TuneCache b;
  EXPECT_EQ(b.load_file(path), 2u);
  auto flat = b.lookup(make_tune_key(k, 1, 128, 96, 1, 10, 4));
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->tile, 40);
  EXPECT_EQ(flat->leaf, 0);
  auto tree = b.lookup(make_tune_key(k, 1, 128, 96, 1, 10, 4, 2));
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->tile, 24);
  EXPECT_EQ(tree->time_block, 4);
  EXPECT_EQ(tree->leaf, 4);
  std::remove(path.c_str());
}

TEST(Tuner, TunedRunStaysExact) {
  TuneCache::instance().clear();
  RunResult r = Solver::make(Preset::Box2D9)
                    .size(128, 96)
                    .steps(10)
                    .method(Method::Ours2)
                    .tiling(Tiling::On)
                    .threads(2)
                    .tune(true)
                    .run_verified();
  EXPECT_GE(r.max_error, 0.0);
  EXPECT_LE(r.max_error, 1e-10);
  TuneCache::instance().clear();
}

TEST(Tuner, DiskRoundTrip) {
  TuneCache a;
  const TuneKey key =
      make_tune_key(require_kernel(Method::Ours2, 2, Isa::Avx2), /*radius=*/1,
                    128, 96, 1, 10, 4);
  a.store(key, TunedGeometry{40, 6});
  const std::string path =
      ::testing::TempDir() + "sf_tune_cache_roundtrip.txt";
  ASSERT_TRUE(a.save_file(path));

  TuneCache b;
  EXPECT_EQ(b.load_file(path), 1u);
  auto hit = b.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tile, 40);
  EXPECT_EQ(hit->time_block, 6);

  // Later lines win: an appended update shadows its predecessor, which is
  // how the append-only SF_TUNE_CACHE persistence upgrades entries.
  {
    TuneCache c;
    c.store(key, TunedGeometry{56, 8});
    const std::string tmp = path + ".updated";
    ASSERT_TRUE(c.save_file(tmp));
    std::FILE* in = std::fopen(tmp.c_str(), "r");
    std::FILE* out = std::fopen(path.c_str(), "a");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr) std::fputs(buf, out);
    std::fclose(in);
    std::fclose(out);
    std::remove(tmp.c_str());
  }
  TuneCache d;
  EXPECT_GE(d.load_file(path), 1u);
  auto updated = d.lookup(key);
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(updated->tile, 56);
  EXPECT_EQ(updated->time_block, 8);
  std::remove(path.c_str());
}

TEST(Tuner, UnparsableLinesAreSkipped) {
  const std::string path = ::testing::TempDir() + "sf_tune_cache_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\n", f);
  std::fputs("garbage line\n", f);
  std::fputs("v1 ours-2step 1 2 1 128 96 1 10 4 40 6\n", f);
  std::fputs("v1 ours-2step 1 2 1 64 64 1 10 4 40 0\n", f);  // bad tb
  std::fputs("v0 wrong tag 0 0 0 0 0 0 0 0 0\n", f);
  std::fclose(f);
  TuneCache c;
  EXPECT_EQ(c.load_file(path), 1u);
  EXPECT_EQ(c.size(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The tune-cache line parser: seeded mutations of valid lines either load
// exactly what an independent strict grammar reads, or are skipped whole.
// ---------------------------------------------------------------------------

// Whitespace-separated tokens, split by hand.
std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// An optional sign then decimal digits, the value inside [lo, hi].
bool strict_int(const std::string& v, long lo, long hi, long* out) {
  const std::size_t first = !v.empty() && (v[0] == '+' || v[0] == '-');
  if (first == v.size()) return false;
  for (std::size_t i = first; i < v.size(); ++i)
    if (v[i] < '0' || v[i] > '9') return false;
  try {
    const long long n = std::stoll(v);
    if (n < lo || n > hi) return false;
    *out = static_cast<long>(n);
    return true;
  } catch (const std::out_of_range&) {
    return false;
  }
}

// The documented cache-line grammar, written independently of the parser:
// v1 has 12 columns, v2 adds tuned_threads, v3 adds levels and leaf.
bool oracle_parse(const std::string& line, TuneKey* k, TunedGeometry* g) {
  const std::vector<std::string> t = tokens_of(line);
  if (t.empty()) return false;
  const int version = t[0] == "v1" ? 1 : t[0] == "v2" ? 2 : t[0] == "v3" ? 3
                                                                           : 0;
  const std::size_t want[] = {0, 12, 13, 15};
  if (version == 0 || t.size() != want[version]) return false;
  // {lo, hi} per numeric column after the kernel key.
  struct Range {
    long lo, hi;
  };
  const Range r[] = {{0, 2},       {1, 3},       {0, INT_MAX},
                     {1, LONG_MAX}, {1, LONG_MAX}, {1, LONG_MAX},
                     {1, INT_MAX}, {1, INT_MAX}, {1, INT_MAX},
                     {1, INT_MAX}, {0, INT_MAX}, {1, 3},
                     {0, INT_MAX}};
  long v[13] = {};
  for (std::size_t i = 2; i < t.size(); ++i)
    if (!strict_int(t[i], r[i - 2].lo, r[i - 2].hi, &v[i - 2])) return false;
  k->kernel = t[1];
  k->isa = static_cast<Isa>(v[0]);
  k->dims = static_cast<int>(v[1]);
  k->radius = static_cast<int>(v[2]);
  k->nx = v[3];
  k->ny = v[4];
  k->nz = v[5];
  k->tsteps = static_cast<int>(v[6]);
  k->threads = static_cast<int>(v[7]);
  g->tile = static_cast<int>(v[8]);
  g->time_block = static_cast<int>(v[9]);
  g->threads = version >= 2 ? static_cast<int>(v[10]) : 0;
  k->levels = version == 3 ? static_cast<int>(v[11]) : 1;
  g->leaf = version == 3 ? static_cast<int>(v[12]) : 0;
  return true;
}

// One to three seeded edits of a valid line: a character inserted,
// deleted or replaced (digits, signs, blanks, letters, a dot), a junk
// token appended, the last token dropped, a token negated, or digits
// appended until a column overflows.
std::string mutate_line(std::string v, std::mt19937_64& rng) {
  static const std::string kAlphabet = "0123456789+- \txv.";
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = v.empty() ? 0 : rng() % (v.size() + 1);
    const char c = kAlphabet[rng() % kAlphabet.size()];
    switch (rng() % 7) {
      case 0: v.insert(at, 1, c); break;
      case 1: if (at < v.size()) v.erase(at, 1); break;
      case 2: if (at < v.size()) v[at] = c; break;
      case 3: v += rng() % 2 ? " junk" : " 8"; break;
      case 4: v.erase(v.find_last_of(' ')); break;
      case 5: {
        const std::size_t sp = v.find(' ', at);
        if (sp != std::string::npos) v.insert(sp + 1, 1, '-');
        break;
      }
      default: v += std::string(1 + rng() % 20, '9'); break;
    }
  }
  return v;
}

TEST(Tuner, SeededMutatedCacheLinesParseStrictlyOrAreSkipped) {
  const char* const seeds[] = {
      "v1 ours-2step 1 2 1 128 96 1 10 4 40 6",
      "v2 ours-2step 1 2 1 256 96 1 10 4 40 6 2",
      "v3 ours-2step 1 2 1 384 96 1 10 4 40 6 2 2 8",
      "v3 naive 0 3 2 36 24 20 16 2 8 4 0 3 0",
      "v2 dlt 2 1 0 2000 1 1 48 8 128 16 0",
  };
  const std::string path = ::testing::TempDir() + "sf_tune_cache_fuzz.txt";
  std::mt19937_64 rng(0x7c3e2021);
  int accepted = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string line =
        iter < 5 ? seeds[iter] : mutate_line(seeds[rng() % 5], rng);
    SCOPED_TRACE("line \"" + line + "\"");
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
    TuneCache c;
    testing::internal::CaptureStderr();
    const std::size_t loaded = c.load_file(path);
    const std::string err = testing::internal::GetCapturedStderr();
    TuneKey key;
    TunedGeometry want;
    if (oracle_parse(line, &key, &want)) {
      ++accepted;
      EXPECT_EQ(loaded, 1u);
      EXPECT_TRUE(err.empty()) << err;
      auto got = c.lookup(key);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, want);
    } else {
      EXPECT_EQ(loaded, 0u);
      EXPECT_EQ(c.size(), 0u);
      // One warning line for the file.
      EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
    }
  }
  // The mutations exercise both outcomes, not just rejections.
  EXPECT_GE(accepted, 50);
  std::remove(path.c_str());
}

TEST(Tuner, MalformedLinesWarnOncePerFile) {
  const std::string path = ::testing::TempDir() + "sf_tune_cache_warn.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("v3 ours-2step 1 2 1 384 96 1 10 4 40 6 2 2 8 junk\n", f);
  std::fputs("v1 ours-2step 1 2 1 128 96 1 10 4 40 6\n", f);
  std::fputs("v2 ours-2step 1 2 1 256 96 1 10 4 2 2 8.5\n", f);
  std::fputs("v1 ours-2step 1 2 1 128 96 1 10 4 40 6x\n", f);
  std::fputs("v1 ours-2step 1 2 1 -128 96 1 10 4 40 6\n", f);
  std::fputs("v1 ours-2step 1 2 -3 128 96 1 10 4 40 6\n", f);
  std::fputs("v1 ours-2step 1 2 1 128 96 1 10 0 40 6\n", f);
  std::fclose(f);
  TuneCache c;
  testing::internal::CaptureStderr();
  EXPECT_EQ(c.load_file(path), 1u);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("skipped 6"), std::string::npos) << err;
  EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine::tune on caller-owned views.
// ---------------------------------------------------------------------------

// A tiled, blocked, auto-geometry 1-D APOP preparation with every
// per-handle axis off its default: resident layout, clean halos, no
// per-call validation.
PreparedStencil prepare_apop(ExecOptions opts = {}) {
  opts.method = Method::Ours2;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = 16;
  return Engine::instance().prepare(Preset::Apop, Extents{4096}, opts);
}

TEST(EngineTune, KeepsTheResolvedRequestIn1DWithSource) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();
  Engine& eng = Engine::instance();
  ExecOptions opts;
  opts.layout = prepare_apop().preferred_layout();
  opts.halo_policy = HaloPolicy::Clean;
  opts.validate = false;
  const PreparedStencil ps = prepare_apop(opts);
  ASSERT_TRUE(ps.plan().tiled && ps.plan().blocked);
  ASSERT_EQ(ps.plan().source, PlanSource::Heuristic);
  ASSERT_NE(ps.resident_layout(), Layout::Natural);
  const int h = ps.halo();
  Grid1D a(4096, h), b(4096, h), k(4096, h);
  fill_random(a, 5);
  fill_random(k, 6);
  const long stores = cache.stored_count();
  const FieldView1D kv = k.view();
  const PreparedStencil tuned = eng.tune(ps, a.view(), b.view(), &kv);
  EXPECT_EQ(cache.stored_count(), stores + 1);
  EXPECT_EQ(tuned.plan().source, PlanSource::Tuned);
  ASSERT_TRUE(cache.lookup(*ps.plan().tune_key).has_value());
  EXPECT_EQ(tuned.plan().tune_key, ps.plan().tune_key);
  EXPECT_EQ(tuned.plan_key(), ps.plan_key());
  EXPECT_EQ(tuned.resident_layout(), ps.resident_layout());
  EXPECT_EQ(tuned.halo_policy(), HaloPolicy::Clean);
  EXPECT_FALSE(tuned.validates());
  // The plan cache serves the same request the stored geometry, as Cached.
  const PreparedStencil again = prepare_apop(opts);
  EXPECT_EQ(again.plan().source, PlanSource::Cached);
  EXPECT_EQ(again.plan().tile.tile, tuned.plan().tile.tile);
  EXPECT_EQ(again.plan().tile.time_block, tuned.plan().tile.time_block);
  cache.clear();
}

TEST(EngineTune, KeepsTheResolvedRequestIn3D) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = 8;
  opts.halo_policy = HaloPolicy::Clean;
  const Extents ext{32, 24, 96};
  const PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat3D, ext, opts);
  ASSERT_TRUE(ps.plan().tiled && ps.plan().blocked);
  const int h = ps.halo();
  Grid3D a(96, 24, 32, h), b(96, 24, 32, h);
  fill_random(a, 7);
  const PreparedStencil tuned = Engine::instance().tune(ps, a.view(), b.view());
  EXPECT_EQ(tuned.plan().source, PlanSource::Tuned);
  EXPECT_EQ(tuned.plan_key(), ps.plan_key());
  EXPECT_EQ(tuned.resident_layout(), ps.resident_layout());
  EXPECT_EQ(tuned.halo_policy(), ps.halo_policy());
  EXPECT_EQ(tuned.validates(), ps.validates());
  // Tuned geometry is advisory: a tuned advance still matches the naive
  // reference within the verification bound.
  fill_random(a, 8);
  copy(a, b);
  Grid3D ra(96, 24, 32, h), rb(96, 24, 32, h);
  copy(a, ra);
  copy(a, rb);
  tuned.advance(a.view(), b.view(), 8);
  run_reference(preset(Preset::Heat3D).p3, ra.view(), rb.view(), 8);
  EXPECT_LE(max_abs_diff(a, ra), 1e-10);
  cache.clear();
}

TEST(EngineTune, NoOpOnUntiledExplicitAndCachedHandles) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();
  Engine& eng = Engine::instance();
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = 16;
  const Extents ext{112, 96};
  ExecOptions off = opts, fixed = opts;
  off.tiling = Tiling::Off;
  fixed.tile = 48;
  fixed.time_block = 8;
  const PreparedStencil untiled = eng.prepare(Preset::Heat2D, ext, off);
  const PreparedStencil expl = eng.prepare(Preset::Heat2D, ext, fixed);
  ASSERT_FALSE(untiled.plan().tiled);
  ASSERT_TRUE(expl.plan().tiled);
  EXPECT_FALSE(expl.plan().tune_key.has_value());
  const PreparedStencil heur = eng.prepare(Preset::Heat2D, ext, opts);
  ASSERT_TRUE(heur.plan().tune_key.has_value());
  cache.store(*heur.plan().tune_key, TunedGeometry{32, 4});
  const PreparedStencil cached = eng.prepare(Preset::Heat2D, ext, opts);
  ASSERT_EQ(cached.plan().source, PlanSource::Cached);

  Grid2D a(96, 112, heur.halo()), b(96, 112, heur.halo());
  fill_random(a, 9);
  const long stores = cache.stored_count();
  for (const PreparedStencil* ps : {&untiled, &expl, &cached}) {
    const PreparedStencil out = eng.tune(*ps, a.view(), b.view());
    EXPECT_EQ(&out.plan(), &ps->plan());
  }
  EXPECT_EQ(cache.stored_count(), stores);
  cache.clear();
}

TEST(EngineTune, MismatchedViewsThrowBeforeAnyProbe) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();
  Engine& eng = Engine::instance();
  const PreparedStencil ps = prepare_apop();
  ASSERT_EQ(ps.plan().source, PlanSource::Heuristic);
  const int h = ps.halo();
  Grid1D a(4096, h), b(4096, h), k(4096, h), small(2048, h);
  const FieldView1D kv = k.view();
  const long stores = cache.stored_count();
  // Wrong extent, the source array missing, an aliased pair, a view of
  // the wrong dimensionality.
  EXPECT_THROW(eng.tune(ps, small.view(), b.view(), &kv),
               std::invalid_argument);
  EXPECT_THROW(eng.tune(ps, a.view(), b.view()), std::invalid_argument);
  EXPECT_THROW(eng.tune(ps, a.view(), a.view(), &kv), std::invalid_argument);
  Grid2D a2(64, 72, h), b2(64, 72, h);
  EXPECT_THROW(eng.tune(ps, a2.view(), b2.view()), std::invalid_argument);
  EXPECT_EQ(cache.stored_count(), stores);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace sf
