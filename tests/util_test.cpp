// Substrate units: aligned storage, grids, tables, CPU dispatch, env knobs,
// and the dense linear algebra under the regression planner.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/aligned_buffer.hpp"
#include "common/cpu.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "grid/grid_utils.hpp"
#include "linalg/dense.hpp"
#include "linalg/least_squares.hpp"

namespace sf {
namespace {

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer b(1001);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kAlignment, 0u);
  for (std::size_t i = 0; i < 1001; ++i) EXPECT_EQ(b[i], 0.0);
  AlignedBuffer c(std::move(b));
  EXPECT_EQ(c.size(), 1001u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(Grid, RowAlignmentEveryRow) {
  Grid2D g(5, 37, 3);
  for (int y = -3; y < 8; ++y)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(y)) % kAlignment, 0u);
  Grid3D h(3, 4, 19, 5);
  for (int z = -5; z < 8; ++z)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(h.row(z, 0)) % kAlignment, 0u);
}

TEST(Grid, IsItsOwnView) {
  static_assert(std::is_base_of_v<FieldView2D, Grid2D>);
  Grid3D g(3, 4, 5, 2);
  const FieldView3D v = g;
  EXPECT_EQ(v.data(), g.data());
  EXPECT_EQ(v.plane_stride(), g.plane_stride());
  EXPECT_EQ(&v.at(1, 2, 3), &g.at(1, 2, 3));
}

TEST(Grid, RejectsSizesBeforeAllocating) {
  // Padded sizes are computed in size_t: a row stride beyond the view's
  // int stride, or a buffer beyond the address range, throws before any
  // allocation instead of wrapping around.
  EXPECT_THROW(Grid2D(1, INT_MAX, 1), std::length_error);
  EXPECT_THROW(Grid3D(1, 1, INT_MAX, 1), std::length_error);
  EXPECT_THROW(Grid3D(INT_MAX, INT_MAX, 8, 1), std::length_error);
  EXPECT_THROW(Grid2D(-1, 8, 1), std::invalid_argument);
  EXPECT_THROW(Grid1D(8, -1), std::invalid_argument);
}

TEST(Grid, HaloIndexingRoundTrip) {
  Grid1D g(10, 4);
  for (int i = -4; i < 14; ++i) g.at(i) = i * 1.5;
  for (int i = -4; i < 14; ++i) EXPECT_DOUBLE_EQ(g.at(i), i * 1.5);
}

TEST(GridUtils, CopyAndDiff) {
  Grid2D a(6, 7, 2), b(6, 7, 2);
  fill_random(a, 1);
  copy(a, b);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  b.at(3, 3) += 0.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_GE(max_abs(a), max_abs_diff(a, b) - 0.5);
}

TEST(GridUtils, FillRandomDeterministic) {
  Grid1D a(50, 2), b(50, 2);
  fill_random(a, 9);
  fill_random(b, 9);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  fill_random(b, 10);
  EXPECT_GT(max_abs_diff(a, b), 0.0);
}

TEST(Table, AlignmentAndCsv) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a    bb"), std::string::npos);
  EXPECT_EQ(t.csv(), "a,bb\n1,2\n333,4\n");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

TEST(Cpu, DispatchConsistency) {
  EXPECT_EQ(isa_width(Isa::Scalar), 1);
  EXPECT_EQ(isa_width(Isa::Avx2), 4);
  EXPECT_EQ(isa_width(Isa::Avx512), 8);
  const Isa resolved = resolve_isa(Isa::Auto);
  EXPECT_NE(resolved, Isa::Auto);
  if (cpu_has_avx512()) EXPECT_EQ(resolved, Isa::Avx512);
  EXPECT_GE(hardware_threads(), 1);
  EXPECT_STREQ(isa_name(Isa::Avx2), "avx2");
}

TEST(Env, FlagAndLong) {
  setenv("SF_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("SF_TEST_FLAG"));
  setenv("SF_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("SF_TEST_FLAG"));
  unsetenv("SF_TEST_FLAG");
  EXPECT_FALSE(env_flag("SF_TEST_FLAG"));
  setenv("SF_TEST_NUM", "42", 1);
  EXPECT_EQ(env_long("SF_TEST_NUM", 7), 42);
  unsetenv("SF_TEST_NUM");
  EXPECT_EQ(env_long("SF_TEST_NUM", 7), 7);
}

// The strict integer grammar env_long() implements, written independently:
// an optional sign, decimal digits only, the value inside [lo, hi].
bool strict_parse(const std::string& v, long lo, long hi, long* out) {
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

// One to three seeded edits of a valid value: insert, delete or replace a
// character (digits, signs, spaces, letters, a dot), append digits until
// the value overflows, or prefix a minus sign.
std::string mutate(std::string v, std::mt19937_64& rng) {
  static const std::string kAlphabet = "0123456789+- \txak.";
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = v.empty() ? 0 : rng() % (v.size() + 1);
    const char c = kAlphabet[rng() % kAlphabet.size()];
    switch (rng() % 5) {
      case 0: v.insert(at, 1, c); break;
      case 1: if (at < v.size()) v.erase(at, 1); break;
      case 2: if (at < v.size()) v[at] = c; break;
      case 3: v += std::string(1 + rng() % 20, '9'); break;
      default: v.insert(0, 1, '-'); break;
    }
  }
  return v;
}

// Every SF_* integer knob parses through env_long(): a seeded mutation of a
// valid value is either the exact integer the strict grammar accepts or the
// knob's default — never a wrapped, truncated or partially parsed number.
TEST(Env, SeededMutationsParseStrictlyOrFallBack) {
  unsetenv("SF_LLC_BYTES");
  const long detected_llc = llc_bytes();
  std::mt19937_64 rng(0x5eed2021);
  const char* const seeds[] = {"0", "1", "2", "3", "4", "16", "8192",
                               "2097152", "auto"};
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string v = mutate(seeds[rng() % 9], rng);
    SCOPED_TRACE("value \"" + v + "\"");
    long n = 0;
    ASSERT_EQ(setenv("SF_THREADS", v.c_str(), 1), 0);
    EXPECT_EQ(env_threads(),
              strict_parse(v, 0, kMaxEnvThreads, &n) ? n : 0);
    ASSERT_EQ(setenv("SF_TILE_MIN_BYTES", v.c_str(), 1), 0);
    EXPECT_EQ(tile_min_bytes(),
              strict_parse(v, 0, LONG_MAX, &n) ? n : 2L << 20);
    ASSERT_EQ(setenv("SF_LLC_BYTES", v.c_str(), 1), 0);
    EXPECT_EQ(llc_bytes(),
              strict_parse(v, 0, LONG_MAX, &n) && n > 0 ? n : detected_llc);
    ASSERT_EQ(setenv("SF_POOL_CACHE", v.c_str(), 1), 0);
    EXPECT_EQ(pool_cache_cap(),
              strict_parse(v, 0, INT_MAX, &n) ? std::max(1L, n) : 8);
    ASSERT_EQ(setenv("SF_TEST_JITTER", v.c_str(), 1), 0);
    EXPECT_EQ(test_jitter_us(), strict_parse(v, 0, INT_MAX, &n) ? n : 0);
    ASSERT_EQ(setenv("SF_TILE_LEVELS", v.c_str(), 1), 0);
    EXPECT_EQ(env_tile_levels(),
              v == "auto" ? -1 : strict_parse(v, 1, 3, &n) ? n : 1);
    // The bench and trace knobs: their call sites' bounds.
    ASSERT_EQ(setenv("SF_BENCH_REPS", v.c_str(), 1), 0);
    EXPECT_EQ(env_long("SF_BENCH_REPS", 5, 0, INT_MAX),
              strict_parse(v, 0, INT_MAX, &n) ? n : 5);
    ASSERT_EQ(setenv("SF_TRACE_BUF", v.c_str(), 1), 0);
    EXPECT_EQ(env_long("SF_TRACE_BUF", 8192, 0, INT_MAX),
              strict_parse(v, 0, INT_MAX, &n) ? n : 8192);
  }
  for (const char* name :
       {"SF_THREADS", "SF_TILE_MIN_BYTES", "SF_LLC_BYTES", "SF_POOL_CACHE",
        "SF_TEST_JITTER", "SF_TILE_LEVELS", "SF_BENCH_REPS", "SF_TRACE_BUF"})
    unsetenv(name);
}

TEST(Env, RejectedValueWarnsOncePerVariable) {
  // A value that would wrap an int, junk, and a trailing suffix all keep
  // the default.
  for (const char* junk : {"5000000000", "abc", "4x"}) {
    ASSERT_EQ(setenv("SF_THREADS", junk, 1), 0);
    EXPECT_EQ(env_threads(), 0) << junk;
  }
  unsetenv("SF_THREADS");
  ASSERT_EQ(setenv("SF_TEST_WARN", "12 monkeys", 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(env_long("SF_TEST_WARN", 7), 7);
  EXPECT_EQ(env_long("SF_TEST_WARN", 7), 7);
  const std::string err = testing::internal::GetCapturedStderr();
  unsetenv("SF_TEST_WARN");
  EXPECT_NE(err.find("SF_TEST_WARN"), std::string::npos);
  EXPECT_EQ(err.find('\n'), err.size() - 1) << err;  // exactly one line
}

TEST(Dense, GaussSolve) {
  Mat a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  std::vector<double> x;
  ASSERT_TRUE(solve_gauss(a, {5, 10}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  Mat sing(2, 2);
  sing(0, 0) = 1;
  sing(0, 1) = 2;
  sing(1, 0) = 2;
  sing(1, 1) = 4;
  EXPECT_FALSE(solve_gauss(sing, {1, 2}, x));
}

TEST(Dense, MultiplyAndTranspose) {
  Mat a(2, 3), b(3, 2);
  int v = 1;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) a(i, j) = v++;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) b(i, j) = v++;
  Mat c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  Mat at = a.transposed();
  EXPECT_DOUBLE_EQ(at(2, 1), a(1, 2));
}

TEST(LeastSquares, ExactFitAndScaleInvariance) {
  // target = 2*b0 + 3*b1 at a tiny scale (the folding-matrix regime).
  const double s = 1e-4;
  std::vector<std::vector<double>> basis = {{s, 0, s}, {0, s, s}};
  std::vector<double> target = {2 * s, 3 * s, 5 * s};
  LsqFit fit = least_squares(basis, target);
  ASSERT_TRUE(fit.exact);
  EXPECT_NEAR(fit.coeff[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.coeff[1], 3.0, 1e-9);
}

TEST(LeastSquares, DependentBasisIsDropped) {
  std::vector<std::vector<double>> basis = {{1, 2}, {2, 4}, {0, 1}};
  std::vector<double> target = {1, 3};
  LsqFit fit = least_squares(basis, target);
  EXPECT_TRUE(fit.exact);
  EXPECT_EQ(fit.coeff[1], 0.0);  // duplicate direction gets zero weight
}

TEST(LeastSquares, InexactFitFlagged) {
  std::vector<std::vector<double>> basis = {{1, 0, 0}};
  std::vector<double> target = {1, 1, 0};
  LsqFit fit = least_squares(basis, target);
  EXPECT_FALSE(fit.exact);
  EXPECT_NEAR(fit.residual_inf, 1.0, 1e-12);
}

}  // namespace
}  // namespace sf
