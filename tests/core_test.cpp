// Public API: every (preset x method x tiled) combination must verify
// against the reference through the same entry point the benchmarks use —
// the Solver facade.
#include <gtest/gtest.h>

#include <cctype>

#include "core/solver.hpp"

namespace sf {
namespace {

struct Case {
  Preset preset;
  Method method;
  bool tiled;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s = preset(info.param.preset).name + std::string("_") +
                  method_name(info.param.method) +
                  (info.param.tiled ? "_tiled" : "_flat");
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

class CoreApi : public ::testing::TestWithParam<Case> {};

TEST_P(CoreApi, RunVerifiedIsExact) {
  const Case c = GetParam();
  const auto& spec = preset(c.preset);
  Solver s = Solver::make(c.preset).method(c.method).steps(8);
  // Small but multi-tile sizes so the verification is fast yet meaningful.
  switch (spec.dims) {
    case 1: s.size(3000); break;
    case 2: s.size(80, 72); break;
    case 3: s.size(40, 24, 20); break;
  }
  if (c.tiled) s.tiling(Tiling::On).threads(3);

  RunResult r = s.run_verified();
  EXPECT_GE(r.max_error, 0.0);
  EXPECT_LE(r.max_error, 1e-10);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_GT(r.seconds, 0.0);
}

std::vector<Case> make_cases() {
  std::vector<Case> v;
  for (const auto& spec : all_presets())
    for (Method m : {Method::Naive, Method::MultipleLoads, Method::DataReorg,
                     Method::DLT, Method::Ours, Method::Ours2, Method::Auto})
      for (bool tiled : {false, true}) v.push_back({spec.id, m, tiled});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoreApi, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(CoreApi, GflopsConsistentAcrossMethods) {
  // Same useful-flops convention for every method: gflops * seconds equal.
  RunResult a = Solver::make(Preset::Heat2D)
                    .size(200, 200)
                    .steps(10)
                    .method(Method::Naive)
                    .run();
  RunResult b = Solver::make(Preset::Heat2D)
                    .size(200, 200)
                    .steps(10)
                    .method(Method::Ours2)
                    .run();
  EXPECT_NEAR(a.gflops * a.seconds, b.gflops * b.seconds, 1e-9);
}

TEST(CoreApi, FlopsAccountingMatchesTapCounts) {
  // 2*taps - 1 per point, plus the source term for APOP.
  EXPECT_DOUBLE_EQ(flops_per_step(preset(Preset::Heat1D), 100, 1, 1), 500.0);
  EXPECT_DOUBLE_EQ(flops_per_step(preset(Preset::Box2D9), 10, 10, 1), 1700.0);
  EXPECT_DOUBLE_EQ(flops_per_step(preset(Preset::Box3D27), 4, 4, 4), 64 * 53.0);
  EXPECT_DOUBLE_EQ(flops_per_step(preset(Preset::Apop), 100, 1, 1),
                   100 * (5 + 2 * 1.0));
}

TEST(CoreApi, FlopsAccountingSourceTermBranch) {
  // The 1-D has_source branch adds one FMA (2 flops) per source tap;
  // derived from the preset's own tap counts rather than magic numbers.
  const auto& apop = preset(Preset::Apop);
  ASSERT_TRUE(apop.has_source);
  EXPECT_DOUBLE_EQ(
      flops_per_step(apop, 1000, 1, 1),
      1000.0 * (apop.p1.flops_per_point() + 2.0 * double(apop.src1.size())));
  // Non-source 1-D presets must not pick up the extra term.
  const auto& p1d5 = preset(Preset::P1D5);
  ASSERT_FALSE(p1d5.has_source);
  EXPECT_DOUBLE_EQ(flops_per_step(p1d5, 1000, 1, 1),
                   1000.0 * p1d5.p1.flops_per_point());
}

}  // namespace
}  // namespace sf
