// The Solver facade: builder defaulting, cost-model auto-selection, halo
// negotiation, workspace ownership/reuse, and single-run verification.
#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "fold/cost_model.hpp"

namespace sf {
namespace {

TEST(Solver, ResolveFillsPresetDefaults) {
  for (Preset p : {Preset::Heat1D, Preset::Heat2D, Preset::Heat3D}) {
    const auto& spec = preset(p);
    Solver s = Solver::make(p);
    EXPECT_EQ(s.nx(), spec.small_size[0]) << spec.name;
    EXPECT_EQ(s.ny(), spec.dims >= 2 ? spec.small_size[1] : 1) << spec.name;
    EXPECT_EQ(s.nz(), spec.dims >= 3 ? spec.small_size[2] : 1) << spec.name;
    EXPECT_EQ(s.tsteps(), spec.small_tsteps) << spec.name;
  }
}

TEST(Solver, ExplicitSizeAndStepsWin) {
  Solver s = Solver::make(Preset::Heat2D).size(123, 45).steps(7);
  EXPECT_EQ(s.nx(), 123);
  EXPECT_EQ(s.ny(), 45);
  EXPECT_EQ(s.nz(), 1);
  EXPECT_EQ(s.tsteps(), 7);
}

TEST(Solver, UnsetExtentsDefaultPerDimension) {
  // size(nx) on a 2-D problem keeps the preset's fast-run ny.
  Solver s = Solver::make(Preset::Heat2D).size(123);
  EXPECT_EQ(s.nx(), 123);
  EXPECT_EQ(s.ny(), preset(Preset::Heat2D).small_size[1]);
  // ...and an explicit trailing extent with unset nx keeps both.
  Solver t = Solver::make(Preset::Heat3D).size(0, 0, 9);
  EXPECT_EQ(t.nx(), preset(Preset::Heat3D).small_size[0]);
  EXPECT_EQ(t.ny(), preset(Preset::Heat3D).small_size[1]);
  EXPECT_EQ(t.nz(), 9);
}

TEST(Solver, MethodByStringMatchesEnum) {
  Solver a = Solver::make(Preset::Heat2D).method("dlt");
  Solver b = Solver::make(Preset::Heat2D).method(Method::DLT);
  EXPECT_EQ(&a.kernel(), &b.kernel());
  EXPECT_THROW(Solver::make(Preset::Heat2D).method("bogus"),
               std::invalid_argument);
}

TEST(Solver, HaloNegotiatedFromSelectedKernel) {
  const int r = preset(Preset::Heat2D).p2.radius();
  Solver naive = Solver::make(Preset::Heat2D).method(Method::Naive);
  EXPECT_EQ(naive.halo(), naive.kernel().required_halo(r));
  EXPECT_EQ(naive.halo(), r);

  Solver folded = Solver::make(Preset::Heat2D).method(Method::Ours2);
  EXPECT_EQ(folded.halo(), 2 * r);

  Solver dr = Solver::make(Preset::Heat1D).method(Method::DataReorg)
                  .isa(Isa::Avx2);
  EXPECT_EQ(dr.halo(), 4);  // data-reorg floor = vector width
}

TEST(Solver, AutoSelectionFollowsCostModel) {
  // Eq. 3 calls folding Heat2D profitable against the naive expansion,
  // which no executor runs; it does not steer Auto. Auto steps with
  // multiple-loads for every preset at every ISA, folded paths included.
  EXPECT_GT(profitability(preset(Preset::Heat2D).p2, 2).index_vec(), 1.0);
  for (const StencilSpec& spec : all_presets())
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
      EXPECT_EQ(auto_method(spec, isa), Method::MultipleLoads)
          << spec.name << " " << isa_name(isa);
}

TEST(Solver, AutoResolvesToARegisteredKernelAndVerifies) {
  Solver s = Solver::make(Preset::Box2D9).size(64, 60).steps(6);  // Auto
  const KernelInfo& k = s.kernel();
  EXPECT_EQ(k.method, auto_method(preset(Preset::Box2D9), Isa::Auto));
  RunResult r = s.run_verified();
  EXPECT_GE(r.max_error, 0.0);
  EXPECT_LE(r.max_error, 1e-11);
}

TEST(Solver, WorkspacePersistsAndRunsAreReproducible) {
  Solver s = Solver::make(Preset::Heat2D).size(48, 40).steps(5).method(
      Method::Ours2);
  RunResult r1 = s.run_verified();
  const Workspace& ws = s.workspace();
  EXPECT_EQ(ws.dims, 2);
  EXPECT_EQ(ws.halo, s.halo());
  EXPECT_EQ(ws.nx, 48);
  ASSERT_TRUE(ws.grids<2>().a.has_value());   // result grid
  ASSERT_TRUE(ws.grids<2>().ra.has_value());  // reference grid (verified run)
  const double* grid_before = ws.grids<2>().a->data();

  RunResult r2 = s.run_verified();
  EXPECT_EQ(r1.max_error, r2.max_error);  // same seed, same inputs
  EXPECT_EQ(s.workspace().grids<2>().a->data(),
            grid_before);  // allocation reused
}

TEST(Solver, WorkspaceReallocatesOnShapeChange) {
  Solver s = Solver::make(Preset::Heat1D).size(256).steps(3);
  s.run();
  EXPECT_EQ(s.workspace().nx, 256);
  s.size(512);
  s.run();
  EXPECT_EQ(s.workspace().nx, 512);
  ASSERT_TRUE(s.workspace().grids<1>().a.has_value());
  EXPECT_EQ(s.workspace().grids<1>().a->n(), 512);
}

TEST(Solver, SourceTermWorkspaceAndVerification) {
  // APOP: the 1-D two-array benchmark allocates the source grid k.
  Solver s = Solver::make(Preset::Apop).size(1000).steps(6).method(
      Method::Ours2);
  RunResult r = s.run_verified();
  EXPECT_TRUE(s.workspace().grids<1>().k.has_value());
  EXPECT_GE(r.max_error, 0.0);
  EXPECT_LE(r.max_error, 1e-11);
}

TEST(Solver, TilingGeometryBuildersPropagate) {
  Solver s = Solver::make(Preset::Box2D9)
                 .size(96, 64)
                 .steps(12)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .tile(24)
                 .threads(2);
  EXPECT_TRUE(s.plan().tiled);
  EXPECT_EQ(s.plan().tile.tile, 24);
  EXPECT_EQ(s.plan().tile.threads, 2);
  RunResult r = s.run_verified();
  EXPECT_GE(r.max_error, 0.0);
  EXPECT_LE(r.max_error, 1e-10);
}

TEST(Solver, AutoResolvesToRealKernelNeverAutoItself) {
  Solver s = Solver::make(Preset::Heat2D);
  s.method(Method::Auto);
  EXPECT_NO_THROW(s.resolve());
  EXPECT_NE(s.kernel().method, Method::Auto);
}

TEST(Solver, ThrowsForUnavailableKernel) {
  // A dimensionality with no registered kernels surfaces as
  // invalid_argument at resolve time, not a crash at run time.
  StencilSpec bogus = preset(Preset::Heat2D);
  bogus.dims = 4;
  Solver s = Solver::make(bogus).method(Method::Ours2);
  EXPECT_THROW(s.resolve(), std::invalid_argument);
}

TEST(Solver, MetricsMatchProblemShape) {
  RunResult r =
      Solver::make(Preset::Heat3D).size(24, 16, 12).steps(4).run();
  EXPECT_EQ(r.points, 24L * 16 * 12);
  EXPECT_EQ(r.tsteps, 4);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_NEAR(r.gflops,
              flops_per_step(preset(Preset::Heat3D), 24, 16, 12) * 4 /
                  r.seconds / 1e9,
              1e-9);
}

TEST(Solver, OneDimProfitabilityOverload) {
  // naive_collect = |p| * (|p^0| + |p^1|) and folded = |p^2| for m = 2.
  const Pattern1D& p = preset(Preset::Heat1D).p1;  // 3-point
  Profitability pr = profitability(p, 2);
  EXPECT_EQ(pr.naive, 3 * (1 + 3));
  EXPECT_EQ(pr.folded_scalar, 5);  // (p^2) of a 3-point = 5 taps
  EXPECT_EQ(pr.folded_vec, pr.folded_scalar);
  EXPECT_GT(pr.index_vec(), 1.0);
}

}  // namespace
}  // namespace sf
