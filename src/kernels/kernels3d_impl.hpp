// Internal declarations shared between kernels3d.cpp and folded3d.cpp.
//
// Layout contract of the run_* entry points: Natural-tagged views are
// transformed in/out per call; views tagged with the kernel's preferred
// layout (Transposed for run_ours1_3d) execute in place with the involution
// skipped. The step_/advance region functions always require data already
// in the working layout.
#pragma once

#include <vector>

#include "common/aligned_buffer.hpp"
#include "fold/folding_plan.hpp"
#include "grid/grid.hpp"
#include "stencil/pattern.hpp"

namespace sf::detail {

void run_naive3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps);

template <int W>
void run_ml3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps);
template <int W>
void run_dr3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps);
template <int W>
void run_dlt3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps);
template <int W>
void run_ours1_3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps);
template <int W>
void run_ours2_3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps);

/// One multiple-loads time step over a box region (folded remainder + tiling).
template <int W>
void step_region_ml3d(const Pattern3D& p, const FieldView3D& in, const FieldView3D& out,
                      int z0, int z1, int y0, int y1, int x0, int x1);

/// One transpose-layout step over planes [z0, z1); grids must be in
/// transpose layout; r <= min(W, 2).
template <int W>
void step_planes_tl3d(const Pattern3D& p, const FieldView3D& in, const FieldView3D& out,
                      int z0, int z1);

/// One DLT step over planes [z0, z1); grids must be lifted and nx/W >= 2r+1.
template <int W>
void step_planes_dlt3d(const Pattern3D& p, const FieldView3D& in, const FieldView3D& out,
                       int z0, int z1);

/// Shape of the folded-3D sliding plane window for a domain of row extent
/// `nx` at SIMD width `W`: buffer count and doubles per buffer. The single
/// source of the sizing — folded3d_advance's fits-check and the wedge
/// schedule's per-worker arena prologue both call it, so they can never
/// drift.
struct Folded3DWindowShape {
  std::size_t nbufs = 0;    ///< (2R+1) window slots x counterpart sources.
  std::size_t doubles = 0;  ///< Per-buffer capacity in doubles.
};
Folded3DWindowShape folded3d_window_shape(const FoldingPlan& plan, int nx,
                                          int W);

/// One folded (m = 2) advance over planes [rz0, rz1) (see folded2d_advance
/// for the range contract; slope is 2r per super-step). `window` caches
/// per-plane counterpart columns and must be private to the calling thread
/// (it is grown to folded3d_window_shape() when it does not already fit).
template <int W>
void folded3d_advance(const Pattern3D& p, const FoldingPlan& plan,
                      const Pattern3D& lambda, const FieldView3D& in, const FieldView3D& out,
                      std::vector<AlignedBuffer>& window, int rz0, int rz1);

}  // namespace sf::detail
