// Portable SIMD wrapper over double vectors.
//
// Every kernel in src/kernels is written once against vecd<W> and
// instantiated for W = 1 (scalar), 4 (AVX-2) and 8 (AVX-512). The scalar
// specialization makes the W-generic kernels degenerate to plain scalar code,
// which doubles as the reference path on machines without AVX.
#pragma once

#include <immintrin.h>

#include <cmath>
#include <cstddef>

namespace sf::simd {

template <int W>
struct vecd;  // only the specializations below exist

// ---------------------------------------------------------------------------
// W = 1: scalar fallback. All lane operations are identities.
// ---------------------------------------------------------------------------
template <>
struct vecd<1> {
  double v;

  static constexpr int width = 1;

  static vecd load(const double* p) { return {*p}; }
  static vecd loadu(const double* p) { return {*p}; }
  static vecd set1(double x) { return {x}; }
  static vecd zero() { return {0.0}; }
  void store(double* p) const { *p = v; }
  void storeu(double* p) const { *p = v; }

  friend vecd operator+(vecd a, vecd b) { return {a.v + b.v}; }
  friend vecd operator-(vecd a, vecd b) { return {a.v - b.v}; }
  friend vecd operator*(vecd a, vecd b) { return {a.v * b.v}; }
  /// a*b + c with one rounding, as the vector widths compute it.
  static vecd fma(vecd a, vecd b, vecd c) { return {std::fma(a.v, b.v, c.v)}; }

  double lane(int) const { return v; }
};

// ---------------------------------------------------------------------------
// W = 4: AVX-2.
// ---------------------------------------------------------------------------
template <>
struct vecd<4> {
  __m256d v;

  static constexpr int width = 4;

  static vecd load(const double* p) { return {_mm256_load_pd(p)}; }
  static vecd loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  static vecd set1(double x) { return {_mm256_set1_pd(x)}; }
  static vecd zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_store_pd(p, v); }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }

  friend vecd operator+(vecd a, vecd b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend vecd operator-(vecd a, vecd b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend vecd operator*(vecd a, vecd b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static vecd fma(vecd a, vecd b, vecd c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }

  double lane(int i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }
};

// ---------------------------------------------------------------------------
// W = 8: AVX-512.
// ---------------------------------------------------------------------------
template <>
struct vecd<8> {
  __m512d v;

  static constexpr int width = 8;

  static vecd load(const double* p) { return {_mm512_load_pd(p)}; }
  static vecd loadu(const double* p) { return {_mm512_loadu_pd(p)}; }
  static vecd set1(double x) { return {_mm512_set1_pd(x)}; }
  static vecd zero() { return {_mm512_setzero_pd()}; }
  void store(double* p) const { _mm512_store_pd(p, v); }
  void storeu(double* p) const { _mm512_storeu_pd(p, v); }

  friend vecd operator+(vecd a, vecd b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend vecd operator-(vecd a, vecd b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend vecd operator*(vecd a, vecd b) { return {_mm512_mul_pd(a.v, b.v)}; }
  static vecd fma(vecd a, vecd b, vecd c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }

  double lane(int i) const {
    alignas(64) double tmp[8];
    _mm512_store_pd(tmp, v);
    return tmp[i];
  }
};

// ---------------------------------------------------------------------------
// Lane-permutation helpers used to assemble neighbour vectors (paper §2.2:
// one blend + one permute per edge vector of a vector set).
// ---------------------------------------------------------------------------

/// Circular rotate right by one lane: (a0,a1,..,aW-1) -> (aW-1,a0,..,aW-2).
inline vecd<1> rotate_r1(vecd<1> a) { return a; }
inline vecd<4> rotate_r1(vecd<4> a) {
  return {_mm256_permute4x64_pd(a.v, 0x93)};  // idx 3,0,1,2
}
inline vecd<8> rotate_r1(vecd<8> a) {
  const __m512i idx = _mm512_setr_epi64(7, 0, 1, 2, 3, 4, 5, 6);
  return {_mm512_permutexvar_pd(idx, a.v)};
}

/// Circular rotate left by one lane: (a0,a1,..,aW-1) -> (a1,..,aW-1,a0).
inline vecd<1> rotate_l1(vecd<1> a) { return a; }
inline vecd<4> rotate_l1(vecd<4> a) {
  return {_mm256_permute4x64_pd(a.v, 0x39)};  // idx 1,2,3,0
}
inline vecd<8> rotate_l1(vecd<8> a) {
  const __m512i idx = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 0);
  return {_mm512_permutexvar_pd(idx, a.v)};
}

/// Replaces lane 0 of `a` with lane 0 of `b`.
inline vecd<1> blend_first(vecd<1>, vecd<1> b) { return b; }
inline vecd<4> blend_first(vecd<4> a, vecd<4> b) {
  return {_mm256_blend_pd(a.v, b.v, 0x1)};
}
inline vecd<8> blend_first(vecd<8> a, vecd<8> b) {
  return {_mm512_mask_blend_pd(0x01, a.v, b.v)};
}

/// Replaces the last lane of `a` with the last lane of `b`.
inline vecd<1> blend_last(vecd<1>, vecd<1> b) { return b; }
inline vecd<4> blend_last(vecd<4> a, vecd<4> b) {
  return {_mm256_blend_pd(a.v, b.v, 0x8)};
}
inline vecd<8> blend_last(vecd<8> a, vecd<8> b) {
  return {_mm512_mask_blend_pd(0x80, a.v, b.v)};
}

// ---------------------------------------------------------------------------
// align_r<K>(a, b) = (a_K, .., a_{W-1}, b_0, .., b_{K-1}).
//
// This is the in-register shift the "data reorganization" baseline uses to
// synthesize x-neighbour vectors from two aligned loads.
// ---------------------------------------------------------------------------
template <int K>
inline vecd<1> align_r(vecd<1> a, vecd<1> b) {
  static_assert(K >= 0 && K <= 1);
  if constexpr (K == 0) return a;
  return b;
}

template <int K>
inline vecd<4> align_r(vecd<4> a, vecd<4> b) {
  static_assert(K >= 0 && K <= 4);
  if constexpr (K == 0) {
    return a;
  } else if constexpr (K == 1) {
    // (a1,a2,a3,b0): cross = (a2,a3,b0,b1); pick odd/even halves.
    __m256d cross = _mm256_permute2f128_pd(a.v, b.v, 0x21);
    return {_mm256_shuffle_pd(a.v, cross, 0x5)};
  } else if constexpr (K == 2) {
    return {_mm256_permute2f128_pd(a.v, b.v, 0x21)};
  } else if constexpr (K == 3) {
    __m256d cross = _mm256_permute2f128_pd(a.v, b.v, 0x21);
    return {_mm256_shuffle_pd(cross, b.v, 0x5)};
  } else {
    return b;
  }
}

template <int K>
inline vecd<8> align_r(vecd<8> a, vecd<8> b) {
  static_assert(K >= 0 && K <= 8);
  if constexpr (K == 0) {
    return a;
  } else if constexpr (K == 8) {
    return b;
  } else {
    return {_mm512_castsi512_pd(_mm512_alignr_epi64(
        _mm512_castpd_si512(b.v), _mm512_castpd_si512(a.v), K))};
  }
}

}  // namespace sf::simd
