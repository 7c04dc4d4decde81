// Every 3-D kernel must reproduce the naive reference (both presets, all
// ISAs, awkward sizes, odd step counts).
#include <gtest/gtest.h>

#include <cctype>

#include "common/cpu.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

struct Case {
  Preset preset;
  Method method;
  Isa isa;
  int nz, ny, nx;
  int tsteps;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s = preset(c.preset).name + std::string("_") +
                  method_name(c.method) + "_" + isa_name(c.isa) + "_" +
                  std::to_string(c.nz) + "x" + std::to_string(c.ny) + "x" +
                  std::to_string(c.nx) + "_t" + std::to_string(c.tsteps);
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

class Kernel3D : public ::testing::TestWithParam<Case> {};

TEST_P(Kernel3D, MatchesReference) {
  const Case c = GetParam();
  if (c.isa == Isa::Avx512 && !cpu_has_avx512()) GTEST_SKIP();
  const auto& spec = preset(c.preset);
  const KernelInfo* kern = find_kernel(c.method, 3, c.isa);
  ASSERT_NE(kern, nullptr);
  // Declared-minimum-halo regression: see kernels1d_test.
  const int halo = kern->required_halo(spec.p3.radius());

  Grid3D a(c.nz, c.ny, c.nx, halo), b(c.nz, c.ny, c.nx, halo);
  Grid3D ra(c.nz, c.ny, c.nx, halo), rb(c.nz, c.ny, c.nx, halo);
  fill_random(a, 555 + c.nz * 7 + c.nx);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p3, ra, rb, c.tsteps);
  kern->run3(spec.p3, a, b, c.tsteps);

  const double tol = 1e-12 * std::max(1.0, max_abs(ra));
  EXPECT_LE(max_abs_diff(a, ra), tol);
}

std::vector<Case> make_cases() {
  std::vector<Case> v;
  const std::vector<Method> methods = {Method::Naive, Method::MultipleLoads,
                                       Method::DataReorg, Method::DLT,
                                       Method::Ours, Method::Ours2};
  for (Preset p : {Preset::Heat3D, Preset::Box3D27})
    for (Method m : methods)
      for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
        v.push_back({p, m, isa, 10, 12, 32, 4});
  // Awkward shapes: x-tails, partial bands, tiny volumes, odd steps.
  for (Method m : {Method::MultipleLoads, Method::DataReorg, Method::DLT,
                   Method::Ours, Method::Ours2}) {
    v.push_back({Preset::Box3D27, m, Isa::Avx2, 7, 9, 21, 3});
    v.push_back({Preset::Heat3D, m, Isa::Avx512, 6, 11, 19, 4});
    v.push_back({Preset::Heat3D, m, Isa::Avx2, 3, 3, 5, 4});
  }
  v.push_back({Preset::Box3D27, Method::Ours2, Isa::Avx2, 8, 10, 24, 5});
  v.push_back({Preset::Heat3D, Method::Ours2, Isa::Avx512, 8, 10, 24, 1});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Kernel3D, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(Kernel3D, ScratchGridRestored) {
  // As in 2-D: the transpose layout and DLT transform the scratch grid's
  // halo planes and rows and must restore them.
  const auto& spec = preset(Preset::Heat3D);
  const int nz = 6, ny = 10, nx = 32, halo = 8;
  for (Method m : {Method::Ours, Method::DLT}) {
    Grid3D a(nz, ny, nx, halo), b(nz, ny, nx, halo);
    fill_random(a, 9);
    copy(a, b);
    Grid3D bhalo(nz, ny, nx, halo);
    copy(b, bhalo);
    require_kernel(m, 3, Isa::Avx2).run3(spec.p3, a, b, 3);
    for (int x = -halo; x < nx + halo; ++x) {
      for (int z : {-1, nz})
        EXPECT_DOUBLE_EQ(b.at(z, 0, x), bhalo.at(z, 0, x))
            << method_name(m) << " plane " << z << " x " << x;
      for (int y : {-1, ny})
        EXPECT_DOUBLE_EQ(b.at(0, y, x), bhalo.at(0, y, x))
            << method_name(m) << " row " << y << " x " << x;
    }
  }
}

}  // namespace
}  // namespace sf
