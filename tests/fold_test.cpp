// Temporal folding: the cost model's paper numbers, the regression planner,
// and the boundary-corrected folded executors.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "fold/cost_model.hpp"
#include "fold/folded_ref.hpp"
#include "fold/folding_plan.hpp"
#include "fold/region.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

// ---------------------------------------------------------------------------
// Paper §3.2-§3.3 exact numbers for the 2D9P box with m = 2.
// ---------------------------------------------------------------------------
TEST(CostModel, PaperCollects2D9P) {
  const auto& p = preset(Preset::Box2D9).p2;
  Profitability pr = profitability(p, 2);
  EXPECT_EQ(pr.naive, 90);          // |C(E)|   = 10 x 9
  EXPECT_EQ(pr.folded_scalar, 25);  // |C(E_Λ)| = 5x5 folding matrix
  EXPECT_EQ(pr.folded_vec, 9);      // counterpart reuse
  EXPECT_DOUBLE_EQ(pr.index_scalar(), 3.6);
  EXPECT_DOUBLE_EQ(pr.index_vec(), 10.0);
}

TEST(CostModel, ShiftsReusePaperNumbers) {
  // Fig. 6: |C(E_F)| = 9, |C(E_G)| = 4, reuse profitability 2.25.
  const auto& p = preset(Preset::Box2D9).p2;
  ShiftsReuseCost c = shifts_reuse_cost(p);
  EXPECT_EQ(c.full, 9);
  EXPECT_EQ(c.reused, 4);
  EXPECT_DOUBLE_EQ(c.index(), 2.25);
}

TEST(CostModel, NaiveCollectGrowsWithM) {
  const auto& p = preset(Preset::Box2D9).p2;
  // m=3: applications at levels with supports 1 + 9 + 25 = 35 -> 315 pairs.
  EXPECT_EQ(naive_collect(p, 3), 315);
  EXPECT_EQ(folded_collect(p, 3), 49);  // 7x7
}

// ---------------------------------------------------------------------------
// Folding plans
// ---------------------------------------------------------------------------
TEST(FoldingPlan, EqualWeightBoxSingleCounterpart) {
  // Paper §3.5: omega2 = (2), omega3 = (0,3) — i.e. one basis column and
  // horizontal multipliers (1,2,3,2,1).
  auto plan = plan_folding(preset(Preset::Box2D9).p2, 2);
  ASSERT_EQ(plan.basis.size(), 1u);
  EXPECT_FALSE(plan.uses_impulse);
  ASSERT_EQ(plan.terms.size(), 5u);
  double coef[5] = {0, 0, 0, 0, 0};
  for (const auto& t : plan.terms) {
    ASSERT_EQ(t.basis_id, 0);
    coef[t.dx + 2] = t.coeff;
  }
  EXPECT_DOUBLE_EQ(coef[0], 1.0);
  EXPECT_DOUBLE_EQ(coef[1], 2.0);
  EXPECT_DOUBLE_EQ(coef[2], 3.0);
  EXPECT_DOUBLE_EQ(coef[3], 2.0);
  EXPECT_DOUBLE_EQ(coef[4], 1.0);
  // Basis column is (1,2,3,2,1) * w^2.
  const double w2 = (1.0 / 9) * (1.0 / 9);
  const double expect[5] = {1, 2, 3, 2, 1};
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(plan.basis[0][i], expect[i] * w2, 1e-15);
  EXPECT_EQ(plan.vec_collect(), 9);
}

TEST(FoldingPlan, LifeUsesImpulseBias) {
  // The 8-point (no self term) box: centre column = c1 + c2 + bias*impulse.
  auto plan = plan_folding(preset(Preset::Life).p2, 2);
  EXPECT_EQ(plan.basis.size(), 2u);
  EXPECT_TRUE(plan.uses_impulse);
}

TEST(FoldingPlan, GBNeedsMoreCounterparts) {
  // Asymmetric weights: less reuse, exactly the paper's observation that GB
  // profits least.
  auto gb = plan_folding(preset(Preset::GB).p2, 2);
  auto box = plan_folding(preset(Preset::Box2D9).p2, 2);
  EXPECT_GT(gb.basis.size(), box.basis.size());
  EXPECT_GT(gb.vec_collect(), box.vec_collect());
  // Still profitable versus naive.
  EXPECT_GT(naive_collect(preset(Preset::GB).p2, 2), gb.vec_collect());
}

TEST(FoldingPlan, PlanReconstructsFoldingMatrix) {
  // Property: sum of terms' coeff * basis column (or impulse) must equal
  // every column of Λ exactly, for all 2-D presets and m in 1..3.
  for (Preset id : {Preset::Heat2D, Preset::Box2D9, Preset::Life, Preset::GB}) {
    for (int m = 1; m <= 3; ++m) {
      const auto& p = preset(id).p2;
      auto plan = plan_folding(p, m);
      const auto lam = power(p, m);
      const int R = plan.radius;
      const int h = 2 * R + 1;
      std::vector<std::vector<double>> rebuilt(
          static_cast<std::size_t>(h), std::vector<double>(h, 0.0));
      for (const auto& t : plan.terms) {
        for (int dy = 0; dy < h; ++dy) {
          const double base = t.basis_id >= 0
                                  ? plan.basis[static_cast<std::size_t>(t.basis_id)][dy]
                                  : (dy == R ? 1.0 : 0.0);
          rebuilt[dy][t.dx + R] += t.coeff * base;
        }
      }
      for (int dy = -R; dy <= R; ++dy)
        for (int dx = -R; dx <= R; ++dx)
          EXPECT_NEAR(rebuilt[dy + R][dx + R], lam.weight_at({dy, dx}), 1e-12)
              << preset(id).name << " m=" << m;
    }
  }
}

TEST(FoldingPlan, ThreeDSharedBasis) {
  auto plan = plan_folding(preset(Preset::Heat3D).p3, 2);
  EXPECT_EQ(plan.radius, 2);
  // Slices share the basis: far fewer basis vectors than (dz,dx) pairs.
  EXPECT_LT(plan.basis.size(), 10u);
  // Terms rebuild Λ3 column-exactly.
  const auto lam = power(preset(Preset::Heat3D).p3, 2);
  const int R = 2, h = 5;
  std::vector<double> rebuilt(h * h * h, 0.0);
  for (const auto& t : plan.terms)
    for (int dy = 0; dy < h; ++dy) {
      const double base = t.basis_id >= 0
                              ? plan.basis[static_cast<std::size_t>(t.basis_id)][dy]
                              : (dy == R ? 1.0 : 0.0);
      rebuilt[static_cast<std::size_t>(t.dz + R) * h * h + dy * h + (t.dx + R)] +=
          t.coeff * base;
    }
  for (int dz = -R; dz <= R; ++dz)
    for (int dy = -R; dy <= R; ++dy)
      for (int dx = -R; dx <= R; ++dx)
        EXPECT_NEAR(rebuilt[static_cast<std::size_t>(dz + R) * h * h +
                            (dy + R) * h + (dx + R)],
                    lam.weight_at({dz, dy, dx}), 1e-12);
}

// ---------------------------------------------------------------------------
// Region decomposition
// ---------------------------------------------------------------------------
/// Checks that shell_boxes(n, w, clip) counts every point of `clip` within
/// distance < w of the boundary of [0, n) exactly once, and every other
/// point of the domain zero times.
template <int D>
void expect_shell_covers_exactly(const std::array<int, D>& n, int w,
                                 const Box<D>& clip) {
  std::size_t total = 1;
  for (int e : n) total *= static_cast<std::size_t>(e);
  std::vector<int> cnt(total, 0);
  auto index = [&](const std::array<int, D>& c) {
    std::size_t i = 0;
    for (int ax = D - 1; ax >= 0; --ax) i = i * n[ax] + c[ax];
    return i;
  };
  for (const Box<D>& b : shell_boxes<D>(n, w, clip)) {
    ASSERT_FALSE(b.empty());
    std::array<int, D> c = b.lo;
    while (c[D - 1] < b.hi[D - 1]) {
      cnt[index(c)]++;
      for (int ax = 0; ax < D; ++ax) {  // odometer, x fastest
        if (++c[ax] < b.hi[ax] || ax == D - 1) break;
        c[ax] = b.lo[ax];
      }
    }
  }
  std::array<int, D> c{};
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t rest = i;
    bool in_clip = true, in_shell = false;
    for (int ax = 0; ax < D; ++ax) {
      c[ax] = static_cast<int>(rest % n[ax]);
      rest /= n[ax];
      in_clip = in_clip && c[ax] >= clip.lo[ax] && c[ax] < clip.hi[ax];
      in_shell = in_shell || c[ax] < w || c[ax] >= n[ax] - w;
    }
    EXPECT_EQ(cnt[index(c)], in_clip && in_shell ? 1 : 0) << "point " << i;
  }
}

template <int D>
Box<D> whole(const std::array<int, D>& n) {
  return Box<D>{{}, n};
}

TEST(Region, ShellCoversExactly1D) {
  expect_shell_covers_exactly<1>({100}, 7, whole<1>({100}));
  expect_shell_covers_exactly<1>({10}, 6, whole<1>({10}));  // 2w >= n
  EXPECT_EQ(shell_boxes<1>({100}, 7, whole<1>({100})).size(), 2u);
}

TEST(Region, ShellCoversExactly2D) {
  expect_shell_covers_exactly<2>({20, 30}, 4, whole<2>({20, 30}));
  expect_shell_covers_exactly<2>({5, 3}, 2, whole<2>({5, 3}));  // all shell
}

TEST(Region, ShellCoversExactly3D) {
  expect_shell_covers_exactly<3>({14, 10, 12}, 3, whole<3>({14, 10, 12}));
  EXPECT_EQ(shell_boxes<3>({14, 10, 12}, 3, whole<3>({14, 10, 12})).size(),
            6u);
}

TEST(Region, ShellClippedOnOuterAxis) {
  // A tile of the outer axis: only its share of the shell, still disjoint.
  for (const auto& [lo, hi] : {std::pair{0, 5}, std::pair{2, 9},
                               std::pair{8, 12}, std::pair{4, 4}}) {
    Box<3> clip = whole<3>({14, 10, 12});
    clip.lo[2] = lo;
    clip.hi[2] = hi;
    expect_shell_covers_exactly<3>({14, 10, 12}, 3, clip);
    Box<2> clip2 = whole<2>({20, 12});
    clip2.lo[1] = lo;
    clip2.hi[1] = hi;
    expect_shell_covers_exactly<2>({20, 12}, 4, clip2);
  }
}

// ---------------------------------------------------------------------------
// Folded executors == stepwise reference (the central correctness property:
// boundary ring included).
// ---------------------------------------------------------------------------
class Folded1D : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Folded1D, MatchesReference) {
  const auto [n, m, tsteps] = GetParam();
  const auto& spec = preset(Preset::P1D5);
  const int halo = std::max(8, m * spec.p1.radius());
  Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo);
  fill_random(a, 17);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p1, ra, rb, tsteps);
  FoldedRunner<1> fold(spec.p1, m);
  fold.run(a, b, tsteps);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
      << "n=" << n << " m=" << m << " T=" << tsteps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Folded1D,
    ::testing::Combine(::testing::Values(16, 33, 100, 500),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(1, 2, 5, 8)));

TEST(Folded1D, WithSourceTerm) {
  const auto& spec = preset(Preset::Apop);
  const int n = 200, halo = 8, tsteps = 6;
  Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo), k(n, halo);
  fill_random(a, 23);
  fill_random(k, 24);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  const FieldView1D kv = k.view();
  run_reference(spec.p1, ra, rb, tsteps, &spec.src1, &kv);
  FoldedRunner<1> fold(spec.p1, 2, &spec.src1);
  fold.run(a, b, tsteps, &k);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12);
}

class Folded2D : public ::testing::TestWithParam<std::tuple<Preset, int, int>> {};

TEST_P(Folded2D, MatchesReference) {
  const auto [id, m, tsteps] = GetParam();
  const auto& spec = preset(id);
  const int ny = 37, nx = 41;
  const int halo = std::max(8, m * spec.p2.radius());
  Grid2D a(ny, nx, halo), b(ny, nx, halo), ra(ny, nx, halo), rb(ny, nx, halo);
  fill_random(a, 31);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p2, ra, rb, tsteps);
  FoldedRunner<2> fold(spec.p2, m);
  fold.run(a, b, tsteps);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Folded2D,
    ::testing::Combine(::testing::Values(Preset::Heat2D, Preset::Box2D9,
                                         Preset::Life, Preset::GB),
                       ::testing::Values(2, 3), ::testing::Values(2, 5)));

TEST(Folded2D, TinyGridAllRing) {
  // Domain smaller than the ring: everything goes through the stepwise path.
  const auto& spec = preset(Preset::Box2D9);
  const int ny = 3, nx = 3, m = 3, tsteps = 3;
  const int halo = std::max(8, m * spec.p2.radius());
  Grid2D a(ny, nx, halo), b(ny, nx, halo), ra(ny, nx, halo), rb(ny, nx, halo);
  fill_random(a, 37);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);
  run_reference(spec.p2, ra, rb, tsteps);
  FoldedRunner<2> fold(spec.p2, m);
  fold.run(a, b, tsteps);
  EXPECT_LE(max_abs_diff(a, ra), 1e-12);
}

class Folded3D
    : public ::testing::TestWithParam<std::tuple<Preset, int, int>> {};

TEST_P(Folded3D, MatchesReference) {
  const auto [id, m, tsteps] = GetParam();
  const auto& spec = preset(id);
  const int nz = 12, ny = 14, nx = 16;
  const int halo = std::max(8, m * spec.p3.radius());
  Grid3D a(nz, ny, nx, halo), b(nz, ny, nx, halo);
  Grid3D ra(nz, ny, nx, halo), rb(nz, ny, nx, halo);
  fill_random(a, 41);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p3, ra, rb, tsteps);
  FoldedRunner<3> fold(spec.p3, m);
  fold.run(a, b, tsteps);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Folded3D,
                         ::testing::Combine(::testing::Values(Preset::Heat3D,
                                                              Preset::Box3D27),
                                            ::testing::Values(2, 3),
                                            ::testing::Values(2, 3, 4)));

}  // namespace
}  // namespace sf
