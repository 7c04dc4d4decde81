// Every 2-D kernel must reproduce the naive reference for all presets,
// sizes (including non-multiples of the vector width), and time-step counts.
#include <gtest/gtest.h>

#include <cctype>
#include <tuple>

#include "common/cpu.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "kernels/stage.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

struct Case {
  Preset preset;
  Method method;
  Isa isa;
  int ny, nx;
  int tsteps;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s = preset(c.preset).name + std::string("_") +
                  method_name(c.method) + "_" + isa_name(c.isa) + "_" +
                  std::to_string(c.ny) + "x" + std::to_string(c.nx) + "_t" +
                  std::to_string(c.tsteps);
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

class Kernel2D : public ::testing::TestWithParam<Case> {};

TEST_P(Kernel2D, MatchesReference) {
  const Case c = GetParam();
  if (c.isa == Isa::Avx512 && !cpu_has_avx512()) GTEST_SKIP();
  const auto& spec = preset(c.preset);
  const KernelInfo* kern = find_kernel(c.method, 2, c.isa);
  ASSERT_NE(kern, nullptr);
  // Declared-minimum-halo regression: see kernels1d_test.
  const int halo = kern->required_halo(spec.p2.radius());

  Grid2D a(c.ny, c.nx, halo), b(c.ny, c.nx, halo);
  Grid2D ra(c.ny, c.nx, halo), rb(c.ny, c.nx, halo);
  fill_random(a, 777 + c.ny * 31 + c.nx);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p2, ra, rb, c.tsteps);
  kern->run2(spec.p2, a, b, c.tsteps);

  const double tol = 1e-12 * std::max(1.0, max_abs(ra));
  EXPECT_LE(max_abs_diff(a, ra), tol);
}

std::vector<Case> make_cases() {
  std::vector<Case> v;
  const std::vector<Preset> presets = {Preset::Heat2D, Preset::Box2D9,
                                       Preset::Life, Preset::GB};
  const std::vector<Method> methods = {Method::Naive, Method::MultipleLoads,
                                       Method::DataReorg, Method::DLT,
                                       Method::Ours, Method::Ours2};
  const std::vector<Isa> isas = {Isa::Scalar, Isa::Avx2, Isa::Avx512};
  for (Preset p : presets)
    for (Method m : methods)
      for (Isa isa : isas) v.push_back({p, m, isa, 40, 48, 4});
  // Awkward sizes: tails in x, partial bands in y, tiny grids.
  for (Method m : {Method::MultipleLoads, Method::DataReorg, Method::DLT,
                   Method::Ours, Method::Ours2}) {
    v.push_back({Preset::Box2D9, m, Isa::Avx2, 37, 41, 4});
    v.push_back({Preset::Heat2D, m, Isa::Avx2, 10, 130, 3});
    v.push_back({Preset::GB, m, Isa::Avx512, 33, 70, 4});
    v.push_back({Preset::Life, m, Isa::Avx2, 5, 7, 4});
  }
  // Odd time steps exercise the folded remainder.
  v.push_back({Preset::Box2D9, Method::Ours2, Isa::Avx2, 40, 48, 5});
  v.push_back({Preset::GB, Method::Ours2, Isa::Avx512, 40, 48, 1});
  v.push_back({Preset::Life, Method::Ours2, Isa::Avx2, 40, 48, 7});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Kernel2D, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(Kernel2D, ShiftsReuseBitExact) {
  // The shifts-reuse ring buffer must not change results at all (same
  // operations, same order) versus recomputing every vector set.
  const auto& spec = preset(Preset::Box2D9);
  const int ny = 36, nx = 44, halo = 8, tsteps = 6;
  Grid2D a1(ny, nx, halo), b1(ny, nx, halo), a2(ny, nx, halo), b2(ny, nx, halo);
  fill_random(a1, 4242);
  copy(a1, b1);
  copy(a1, a2);
  copy(a1, b2);
  detail::run_ours2_2d<4>(spec.p2, a1, b1, tsteps);
  detail::run_ours2_2d_noreuse<4>(spec.p2, a2, b2, tsteps);
  EXPECT_EQ(max_abs_diff(a1, a2), 0.0);
}

TEST(Kernel2D, ScratchGridRestored) {
  // Layout-changing kernels (the transpose layout and DLT both transform
  // the scratch grid's halo rows) must leave that halo usable.
  const auto& spec = preset(Preset::Heat2D);
  const int ny = 24, nx = 32, halo = 8;
  for (Method m : {Method::Ours, Method::DLT}) {
    Grid2D a(ny, nx, halo), b(ny, nx, halo);
    fill_random(a, 9);
    copy(a, b);
    Grid2D bhalo(ny, nx, halo);
    copy(b, bhalo);
    require_kernel(m, 2, Isa::Avx2).run2(spec.p2, a, b, 3);
    for (int y : {-1, ny})
      for (int x = -halo; x < nx + halo; ++x)
        EXPECT_DOUBLE_EQ(b.at(y, x), bhalo.at(y, x))
            << method_name(m) << " y " << y << " x " << x;
  }
}

}  // namespace
}  // namespace sf
