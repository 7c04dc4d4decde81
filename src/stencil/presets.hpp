// The benchmark stencils of the paper's Table 1, as first-class objects.
//
// Star stencils: 1D-Heat (3pt), 2D-Heat (5pt), 3D-Heat (7pt).
// Box stencils:  1D5P, 2D9P, 3D27P.
// Real-world:    APOP (1D3P over two input arrays), Game of Life (8-point
//                surrogate, see DESIGN.md), GB (asymmetric 9-weight box).
#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "stencil/pattern.hpp"

namespace sf {

enum class Preset {
  Heat1D,
  P1D5,
  Apop,
  Heat2D,
  Box2D9,
  Life,
  GB,
  Heat3D,
  Box3D27,
};

/// Static description of one benchmark stencil: its pattern, the paper's
/// Table-1 problem/blocking sizes, and a scaled-down size for fast runs.
struct StencilSpec {
  Preset id;
  std::string name;
  int dims;  // 1, 2 or 3

  // Exactly one of these is meaningful, per `dims`.
  Pattern1D p1;
  Pattern2D p2;
  Pattern3D p3;

  // APOP adds a time-invariant source array K: out = p(A) + src(K).
  bool has_source = false;
  Pattern1D src1;

  std::array<long, 3> full_size;   // paper Table 1 (x, y, z; unused dims = 1)
  long full_tsteps;                // paper Table 1 time steps
  std::array<int, 3> block;        // paper Table 1 blocking size
  std::array<long, 3> small_size;  // default fast-run size
  long small_tsteps;

  int points() const;  // tap count (the "Pts" column of Table 1)

  /// The D-dimensional pattern (p1, p2 or p3).
  template <int D>
  const Pattern<D>& pattern() const {
    if constexpr (D == 1) return p1;
    else if constexpr (D == 2) return p2;
    else return p3;
  }

  /// The one dimensionality switch: calls `f(pattern<D>())` for the runtime
  /// `dims` and returns its result (the callee reads D back as the
  /// argument's Pattern<D>::dims). Throws std::invalid_argument unless
  /// dims is 1, 2 or 3.
  template <class F>
  decltype(auto) visit(F&& f) const {
    switch (dims) {
      case 1: return f(p1);
      case 2: return f(p2);
      case 3: return f(p3);
    }
    throw std::invalid_argument("StencilSpec '" + name + "': dims " +
                                std::to_string(dims) + " is not 1, 2 or 3");
  }
};

/// All nine Table-1 stencils, in the paper's order.
const std::vector<StencilSpec>& all_presets();

const StencilSpec& preset(Preset id);

}  // namespace sf
