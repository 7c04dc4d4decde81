/// \file
/// \brief Temporal split tiling with parallel stage execution (paper §3.4).
///
/// The iteration space is tessellated along one spatial dimension (x in 1-D,
/// y in 2-D, z in 3-D) into *triangles* (shrinking tiles) and *inverted
/// triangles* (expanding wedges rooted at tile boundaries), exactly the 1-D
/// scheme of the paper's Figure 7. Each stage is embarrassingly parallel —
/// executed on the library-owned, optionally topology-pinned WorkerPool
/// (runtime/worker_pool.hpp) with the static balanced_placement() ownership
/// map, so the same worker keeps the same tile columns across super-steps;
/// tiles never recompute a point (redundancy-free). Jacobi double
/// buffering makes the wedge reads exact: position x always holds its two
/// most recent time levels, one per parity.
///
/// Combined with temporal computation folding (Method::Ours2) the wedge
/// slope doubles and odd time levels are never materialized — the paper's
/// "odd time steps are skipped over" (Fig. 7).
///
/// This header is the tiling *engine*: it executes a TilePlan whose gaps
/// (tile = 0, time_block = 0, threads = 0) it fills with the
/// negotiate_wedge() heuristics. Deciding *whether* to tile — and feeding
/// tuned geometry back in — is the job of the ExecutionPlan layer
/// (core/execution_plan.hpp), which `Solver::run` drives.
///
/// The engine is written once over the dimensionality D (FieldView<D>,
/// grid/field_view.hpp) and advances wedges with the same region steps the
/// untiled kernels run (kernels/stage.hpp); only the folded advance bodies
/// differ per dimension.
#pragma once

#include <vector>

#include "common/cpu.hpp"
#include "grid/grid.hpp"
#include "kernels/api.hpp"
#include "kernels/registry.hpp"
#include "runtime/worker_pool.hpp"
#include "stencil/pattern.hpp"

namespace sf {

/// One split-tiling execution request. Zero-valued geometry fields mean
/// "negotiate": the engine fills them via negotiate_wedge(); the
/// ExecutionPlan layer fills them from its cost model or the tuner cache
/// before the run, so `Solver::plan()` can report the concrete geometry.
struct TilePlan {
  Method method = Method::Ours2;  ///< Naive | DLT | Ours | Ours2 have tiled
                                  ///< stages; other methods (and shapes the
                                  ///< stage cannot handle, see
                                  ///< tiled_path_engages) run their untiled
                                  ///< kernel.
  Isa isa = Isa::Auto;            ///< ISA level; Auto = widest supported.
  int tile = 0;        ///< Tile extent along the tiled dimension (0 = auto).
  int time_block = 0;  ///< Time steps per block (0 = auto).
  int threads = 0;     ///< Pool workers per stage (0 = hardware threads).
  Affinity affinity = Affinity::None;
  ///< Worker placement policy: the stages run on the shared_pool() for
  ///< (threads, affinity), so a prepared Engine run and a direct
  ///< run_tile_plan() call land on the same pinned workers. Results are
  ///< bitwise identical across policies; only locality changes.
  bool barrier = false;
  ///< Test/bench hook: run the parallel wedge stages on the barrier
  ///< schedule (a global pool barrier after each up and each down stage)
  ///< instead of the default point-to-point neighbor pipeline. Results are
  ///< bitwise identical either way; only the waiting changes. Nested and
  ///< serial runs always take the barrier schedule.
};

/// The concrete wedge geometry negotiate_wedge() settles on for one run.
struct WedgeGeometry {
  int tile = 0;        ///< Tile extent along the tiled dimension.
  int time_block = 0;  ///< Time steps per block (a multiple of fold depth).
  int threads = 1;     ///< Pool workers each stage runs with.
  bool blocked = false;  ///< False: the domain is too small for disjoint
                         ///< wedges at this geometry; the engine runs plain
                         ///< full sweeps instead.
};

/// Fills the unset (zero) fields of `requested` with the library's
/// heuristics and returns the resulting geometry:
///  * threads — the hardware thread count;
///  * tile — max(4 * slope, n_tiled / threads): one tile per thread, wide
///    enough that a tile outlives its wedge erosion (paper §3.4's "tile
///    size several times the slope"). Serial runs (threads == 1) instead
///    cap the tile so its ping-pong working set stays LLC-resident — the
///    cap is what makes serial split tiling a cache-blocking win (paper
///    Fig. 8) instead of degenerating to one whole-domain tile;
///  * time_block — the tallest block whose triangles stay non-degenerate,
///    (tile / slope - 2) / 2 super-steps (Fig. 7 geometry), clamped to the
///    run length.
/// `blocked` reports whether wedges stay disjoint at the chosen geometry
/// (tile < n_tiled and tile >= (2H + 1) * slope); when false the engine
/// falls back to unblocked full sweeps.
/// \param n_tiled extent of the tiled dimension (x/y/z in 1/2/3-D).
/// \param slope   wedge slope per super-step (KernelInfo::wedge_slope).
/// \param fold_m  temporal fold depth m (KernelInfo::fold_depth).
/// \param tsteps  total plain time steps of the run.
/// \param requested explicit tile/time_block/threads overrides (0 = auto).
/// \param slice_bytes bytes of one cross-section slice of the tiled
///   dimension (8 in 1-D, 8 * nx in 2-D, 8 * nx * ny in 3-D), used for the
///   cache-capacity tile cap.
WedgeGeometry negotiate_wedge(int n_tiled, int slope, int fold_m, int tsteps,
                              const TilePlan& requested,
                              long slice_bytes = sizeof(double));

/// True when the split-tiled stage implementation of `k` engages for a
/// pattern of radius `radius` (plus 1-D source-term radius `src_radius`)
/// on a domain whose contiguous row extent is `nx`: the kernel declares a
/// tiled stage whose (fold-doubled) radius range covers the pattern
/// (KernelInfo::tileable), and DLT's lifted layout keeps at least a full
/// stencil of lifted rows (nx / width >= 2 * radius + 1). When false, a
/// tiling request runs the untiled kernel — the same executor, just
/// without wedge scheduling.
bool tiled_path_engages(const KernelInfo& k, int radius, int src_radius,
                        long nx);

/// Runs `tsteps` Jacobi steps with temporal split tiling along the
/// outermost axis (x in 1-D, y in 2-D, z in 3-D); result in `a`. Geometry
/// gaps in `plan` are negotiated (see negotiate_wedge); methods or shapes
/// without an engaging tiled stage (see tiled_path_engages) fall back to
/// the untiled kernel. `src` over the time-invariant array `k` is the 1-D
/// APOP source term (null otherwise). D comes from the pattern, so Grids
/// convert to the view parameters.
template <int D>
void run_tile_plan(const Pattern<D>& p, const ViewArg<D>& a,
                   const ViewArg<D>& b, const Pattern1D* src,
                   const ViewArg<D>* k, int tsteps, const TilePlan& plan);

/// Source-free form of run_tile_plan().
template <int D>
void run_tile_plan(const Pattern<D>& p, const ViewArg<D>& a,
                   const ViewArg<D>& b, int tsteps, const TilePlan& plan) {
  run_tile_plan(p, a, b, nullptr, nullptr, tsteps, plan);
}

/// One grid of a batched tiling run: the ping/pong buffer pair plus, in
/// 1-D, the optional per-item APOP source array (`k` null when the pattern
/// has no source term). All items of one batch share the Pattern and
/// TilePlan but own distinct buffers.
template <int D>
struct TileBatch {
  FieldView<D> a;                   ///< Ping buffer; holds the result.
  FieldView<D> b;                   ///< Pong buffer.
  const FieldView<D>* k = nullptr;  ///< Optional time-invariant source array.
};
using TileBatch1D = TileBatch<1>;  ///< One item of a 1-D batch.
using TileBatch2D = TileBatch<2>;  ///< One item of a 2-D batch.
using TileBatch3D = TileBatch<3>;  ///< One item of a 3-D batch.

/// Advances every item of `items` by `tsteps` Jacobi steps in *one* pool
/// dispatch: the batch is laid over the shared (threads, affinity) pool
/// with the same balanced_placement() ownership map the wedge stages use,
/// and each worker runs its items' complete tiling lifecycle (layout
/// transforms, wedge schedule, remainder steps) inline. This amortizes
/// dispatch and barrier cost across N same-geometry small grids — the
/// serving batcher's fast path (serving/server.hpp) — where per-item stage
/// parallelism has nothing to win.
///
/// Every item must have the geometry of item 0 (extents, halo, layout);
/// buffers of distinct items must not alias. Results are bitwise identical
/// to running run_tile_plan() on each item sequentially: each item executes
/// the same negotiated wedge geometry and region math, merely on one worker
/// instead of spread over the pool. A single-item batch degrades to exactly
/// run_tile_plan(). `src` is the 1-D APOP source pattern, read through each
/// item's own `k` array.
template <int D>
void run_tile_plan_batch(const Pattern<D>& p,
                         const std::vector<TileBatch<D>>& items,
                         const Pattern1D* src, int tsteps,
                         const TilePlan& plan);

/// Source-free form of run_tile_plan_batch().
template <int D>
void run_tile_plan_batch(const Pattern<D>& p,
                         const std::vector<TileBatch<D>>& items, int tsteps,
                         const TilePlan& plan) {
  run_tile_plan_batch(p, items, nullptr, tsteps, plan);
}

/// The per-element update levels after one up-stage (triangles) and one
/// down-stage (inverted triangles) of the Fig. 7 tessellation; used by tests
/// to assert the paper's (0,1,2,3,4,3,2,1,0) / all-H states and by the
/// tessellate1d demo.
struct TessellationTrace {
  std::vector<int> after_up;    ///< Level of each element after stage 1.
  std::vector<int> after_down;  ///< After stage 2 (must be uniform H).
};

/// Simulates the Fig. 7 two-stage tessellation bookkeeping (no floating
/// point): `n` elements, tiles of extent `tile`, `height` super-steps per
/// block, wedge slope `slope` per super-step.
TessellationTrace trace_tessellation_1d(int n, int tile, int height,
                                        int slope);

}  // namespace sf
