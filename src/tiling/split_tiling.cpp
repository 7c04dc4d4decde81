#include "tiling/split_tiling.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "kernels/stage.hpp"
#include "layout/transpose_layout.hpp"
#include "telemetry/telemetry.hpp"

namespace sf {
namespace {

using detail::Stage;

/// Geometry/schedule parameters of one wedge run (time in super-steps).
struct WedgePlan {
  int n = 0;      // extent of the tiled dimension
  int slope = 0;  // shift per super-step (m * r)
  int tile = 0;
  int H = 0;      // super-steps per time block
  int threads = 1;
  Affinity affinity = Affinity::None;
  bool blocked = true;   // false: domain too small, run unblocked
  bool barrier = false;  // TilePlan::barrier: global-barrier stage schedule
};

/// Internal view of negotiate_wedge() with time measured in super-steps.
WedgePlan make_plan(int n, int slope, int super_steps, const TilePlan& opt,
                    int fold_m, long slice_bytes) {
  const int m = std::max(1, fold_m);
  const WedgeGeometry g =
      negotiate_wedge(n, slope, m, super_steps * m, opt, slice_bytes);
  WedgePlan w;
  w.n = n;
  w.slope = slope;
  w.tile = g.tile;
  w.H = std::max(1, g.time_block / m);
  w.threads = g.threads;
  w.affinity = opt.affinity;
  w.blocked = g.blocked;
  w.barrier = opt.barrier;
  return w;
}

/// True when the wedge schedule will run its point-to-point pipelined path:
/// a real pool, more than one worker, no barrier hook, and the caller
/// is not itself a worker of that pool (a nested pipelined task cannot run
/// inline — worker w's waits on w+1 would never be satisfied in index
/// order — so nested runs keep the barrier schedule, which degrades to
/// inline serial stages safely).
bool pipelined_schedule(const WedgePlan& w, WorkerPool* pool) {
  return pool != nullptr && !w.barrier && pool->threads() > 1 &&
         !pool->on_worker_thread();
}

/// The pool of a wedge plan: the shared (threads, affinity) pool for
/// parallel blocked runs, none for serial ones (a one-worker stage runs
/// inline on the calling thread, exactly like the old OpenMP master).
std::shared_ptr<WorkerPool> plan_pool(const WedgePlan& w) {
  if (!w.blocked || w.threads <= 1) return nullptr;
  return shared_pool(w.threads, w.affinity);
}

/// The generic wedge schedule (tiles = triangles, boundaries = inverted
/// triangles; Jacobi parity buffers make partial-level reads exact).
/// adv(in, out, lo, hi, worker) performs one super-step on [lo, hi) of the
/// tiled dimension (`worker` is the executing pool worker, -1 on the
/// calling thread). The buffer-parity cursor is passed *by value* into each
/// stage call — explicit per (worker, round) state, never a shared variable
/// a pipelined worker could read torn while another advances it.
///
/// Every worker walks exactly the tile range the balanced_placement()
/// ownership map assigns it — the same contiguous chunks OpenMP's
/// schedule(static) produced, and the same map the planner reports
/// (ExecutionPlan::placement) and first_touch() initializes by, so a
/// worker's tiles stay on its NUMA node across all super-steps. That owned
/// range [t0, t1) is the shard level of the plan's tile tree
/// (core/execution_plan.hpp TileTree), each owned tile is one tile-level
/// extent, and one wedge is the leaf execution.
///
/// The walk fuses the two sweeps: the inverted wedge at an interior tile
/// boundary kt depends only on the up wedges at kt-1 and kt (the
/// blocked-geometry guarantee keeps every other wedge pair disjoint), so a
/// worker runs up(kt) immediately followed by down(kt) and the flank rows
/// the down wedge consumes are the ones the two preceding up wedges just
/// wrote — a reuse distance of one tile instead of the worker's whole
/// shard. Only the boundary wedge at t0 reads another worker's rows; it
/// waits behind the stage synchronization. Each (row, parity) value is
/// written exactly once per block by the same adv call whatever the
/// interleaving, so results are bitwise independent of the worker count
/// and of the schedule. A worker that owns one tile (the default parallel
/// plan) runs exactly up(t0), then down(t0).
///
/// Two schedules execute that walk (bitwise-identical results; only the
/// waiting differs):
///
///  * Barrier (TilePlan::barrier, or serial, or nested-on-pool): stages
///    run as pool tasks; the barrier before each boundary wedge is the pool
///    task boundary.
///
///  * Pipelined (pipelined_schedule()): one long-lived task per worker with
///    point-to-point NeighborSync counters. Worker w publishes seq = 2b+1
///    after its up stage of block b and seq = 2b+2 after its down stage.
///    With contiguous ownership exactly two waits cover every cross-worker
///    hazard: before up(b>0), wait seq[w+1] >= 2b — the boundary wedge at
///    tile t1 (owned by w+1) rewrote rows w's top tile reads, and w's own
///    up writes into rows that down wedge read (RAW + WAR in one edge);
///    before down(b), wait seq[w-1] >= 2b+1 — the down wedge at tile t0
///    reads w-1's up flank below t0*tile. All remaining stage overlaps are
///    disjoint by the blocked-geometry guarantee tile >= (2H+1)*slope.
///    Edge workers skip the missing-neighbor wait; empty-range workers
///    (ntiles < workers) execute nothing but still publish every round, so
///    neighbors indexed past them never deadlock.
///
/// `prologue(t0, t1, wk)`, when set, runs on each worker before its first
/// up stage (pipelined path only — callers must gate on
/// pipelined_schedule()): the resident-layout transform of the worker's own
/// rows overlaps the first super-step instead of serializing in front of
/// it. No extra sync edge is needed: up(0) reads only the worker's own rows
/// (plus domain-end halo rows, owned by the same edge worker), and down(0)
/// already waits on w-1's up(0) publish, which transitively orders w-1's
/// prologue.
template <class G, class Adv>
int wedge_schedule(G& a, G& b, const WedgePlan& w, int super_steps, Adv&& adv,
                   WorkerPool* pool,
                   const std::function<void(int, int, int)>& prologue = {}) {
  G* bufs[2] = {&a, &b};
  const int ntiles = (w.n + w.tile - 1) / w.tile;
  const int nworkers = pool != nullptr ? pool->threads() : 1;
  const PlacementPlan place = balanced_placement(ntiles, nworkers, w.affinity);
  // Schedule-shape telemetry, resolved once per process at the first tiled
  // run (function-local statics: the wedge entry is too hot for a registry
  // lookup per call). One add per *schedule*, never per tile or cell.
  struct WedgeTelemetry {
    telemetry::Counter pipelined_runs =
        telemetry::counter("tiling.wedge.pipelined_runs");
    telemetry::Counter barrier_runs =
        telemetry::counter("tiling.wedge.barrier_runs");
    telemetry::Counter blocks = telemetry::counter("tiling.wedge.blocks");
  };
  static const WedgeTelemetry wt;
  const long nblocks = w.H > 0 ? (super_steps + w.H - 1) / w.H : 0;
  auto up_tile = [&](int kt, int hb, int cur, int wk) {
    const int x0 = kt * w.tile;
    const int x1 = std::min(w.n, x0 + w.tile);
    for (int sg = 1; sg <= hb; ++sg) {
      const int lo = x0 == 0 ? 0 : x0 + sg * w.slope;
      const int hi = x1 == w.n ? w.n : x1 - sg * w.slope;
      if (lo < hi)
        adv(*bufs[(cur + sg - 1) & 1], *bufs[(cur + sg) & 1], lo, hi, wk);
    }
  };
  auto down_tile = [&](int kt, int hb, int cur, int wk) {
    const int xc = kt * w.tile;
    for (int sg = 1; sg <= hb; ++sg) {
      const int lo = std::max(0, xc - sg * w.slope);
      const int hi = std::min(w.n, xc + sg * w.slope);
      adv(*bufs[(cur + sg - 1) & 1], *bufs[(cur + sg) & 1], lo, hi, wk);
    }
  };
  // The fused walk of tiles [t0, t1): every up wedge, each interior
  // inverted wedge right after the second up wedge it reads.
  auto up_stage = [&](int t0, int t1, int hb, int cur, int wk) {
    for (int kt = t0; kt < t1; ++kt) {
      up_tile(kt, hb, cur, wk);
      if (kt > t0) down_tile(kt, hb, cur, wk);
    }
  };
  // What is left after every up stage: the boundary wedge at t0.
  auto down_stage = [&](int t0, int t1, int hb, int cur, int wk) {
    if (t0 >= 1 && t0 < t1) down_tile(t0, hb, cur, wk);
  };
  if (pipelined_schedule(w, pool)) {
    wt.pipelined_runs.add(1);
    wt.blocks.add(nblocks);
    telemetry::Span span("tiling.wedge.pipelined");
    pool->run_pipelined([&](int wk, NeighborSync& sync) {
      const auto [t0, t1] = place.tiles_of(wk);
      if (prologue) prologue(t0, t1, wk);
      int cur = 0;
      long b = 0;
      for (int s0 = 0; s0 < super_steps; s0 += w.H, ++b) {
        const int hb = std::min(w.H, super_steps - s0);
        if (b > 0 && wk + 1 < nworkers) sync.wait_for(wk + 1, 2 * b);
        test_jitter_stall(wk);
        up_stage(t0, t1, hb, cur, wk);
        sync.publish(wk, 2 * b + 1);
        if (wk > 0) sync.wait_for(wk - 1, 2 * b + 1);
        test_jitter_stall(wk);
        down_stage(t0, t1, hb, cur, wk);
        sync.publish(wk, 2 * b + 2);
        cur = (cur + hb) & 1;
      }
    });
    // Every worker advanced parity identically; recompute, don't share.
    int cursor = 0;
    for (int s0 = 0; s0 < super_steps; s0 += w.H)
      cursor = (cursor + std::min(w.H, super_steps - s0)) & 1;
    return cursor;
  }
  wt.barrier_runs.add(1);
  wt.blocks.add(nblocks);
  telemetry::Span span("tiling.wedge.barrier");
  int cursor = 0;
  for (int s0 = 0; s0 < super_steps; s0 += w.H) {
    const int hb = std::min(w.H, super_steps - s0);
    if (pool != nullptr) {
      pool->run([&](int wk) {
        const auto [t0, t1] = place.tiles_of(wk);
        up_stage(t0, t1, hb, cursor, wk);
      });
      pool->run([&](int wk) {
        const auto [t0, t1] = place.tiles_of(wk);
        down_stage(t0, t1, hb, cursor, wk);
      });
    } else {
      up_stage(0, ntiles, hb, cursor, -1);
    }
    cursor = (cursor + hb) & 1;
  }
  return cursor;
}

// ---------------------------------------------------------------------------
// The tiled run, written once over D
// ---------------------------------------------------------------------------

/// Runs `tsteps` steps split-tiled along the outermost axis (x in 1-D, y in
/// 2-D, z in 3-D): the kernels' ping-pong loop (kernels/stage.hpp) with
/// the wedge schedule as its sweep, and the run's Stage<W, D> — the same
/// region steps the untiled kernels run — as the wedge advance.
///
/// `serial` forces the whole run onto the calling thread (no pool
/// dispatch): the batched entry runs each item this way on the pool worker
/// that owns it, so nested stage parallelism (and the arena races a nested
/// inline run() would cause for the folded window) never arises. The
/// wedge geometry is negotiated identically either way, so serial and
/// pooled runs are bitwise identical.
template <int W, int D>
void tiled_impl(const Pattern<D>& p, const FieldView<D>& a,
                const FieldView<D>& b, const Pattern1D* src,
                const FieldView<D>* k, int tsteps, const TilePlan& opt,
                bool serial) {
  const int n = a.outer_extent();
  const int m = opt.method == Method::Ours2 ? 2 : 1;
  long slice_bytes = sizeof(double);
  for (int ax = 0; ax + 1 < D; ++ax) slice_bytes *= a.extent(ax);
  const WedgePlan w =
      make_plan(n, m * p.radius(), tsteps / m, opt, m, slice_bytes);
  const std::shared_ptr<WorkerPool> pool = serial ? nullptr : plan_pool(w);
  const Stage<W, D> stage(p, opt.method, a.nx(), src, k, pool.get());

  // Transposed-resident views (core/engine.hpp) skip the layout transform
  // (ping_pong). Pipelined blocked runs above 1-D fold the to-layout
  // transform into the schedule itself (each worker transposes its own
  // rows as the wedge prologue — see wedge_schedule) instead of
  // serializing it in front of the first stage; 1-D W*W blocks straddle
  // tile boundaries, so a 1-D row is transformed upfront.
  const bool overlap_layout = D > 1 && stage.layout() == Layout::Transposed &&
                              a.layout() != Layout::Transposed && w.blocked &&
                              pipelined_schedule(w, pool.get());
  auto adv = [&](const FieldView<D>& in, const FieldView<D>& out, int lo,
                 int hi, int wk) { stage.step(in, out, lo, hi, wk); };
  auto sweep = [&](int supers) {
    // Domain too small to tile: plain full sweeps.
    if (!w.blocked) return detail::full_sweeps(stage, a, b, supers);
    // Pipelined 2-D/3-D folded runs first-touch the per-worker window in
    // the prologue slot that already overlaps the first super-step — the
    // same down(0) transitive wait orders it, so no extra sync edge and no
    // separate pool dispatch ahead of the run. Barrier-schedule runs grow
    // the window inside their first stage.
    const std::size_t window =
        detail::folded_window_doubles(stage.plan(), a.nx(), W);
    const bool overlap_arena = stage.method() == Method::Ours2 &&
                               window > 0 && pool != nullptr &&
                               pipelined_schedule(w, pool.get());
    std::function<void(int, int, int)> prologue;
    if (overlap_layout || overlap_arena) {
      prologue = [&](int t0, int t1, int wk) {
        if (overlap_arena) pool->ensure_arena_local(wk, window);
        if (!overlap_layout || t0 >= t1) return;
        // Own rows plus the halo rows attached to the domain-end tiles:
        // the up stage reads neighbours of boundary rows, and both parity
        // buffers serve as the read level at some stage.
        const int lo = t0 == 0 ? -a.halo() : t0 * w.tile;
        const int hi = t1 * w.tile >= n ? n + a.halo() : t1 * w.tile;
        grid_transpose_layout<W>(a, lo, hi);
        grid_transpose_layout<W>(b, lo, hi);
      };
    }
    return wedge_schedule(a, b, w, supers, adv, pool.get(), prologue);
  };
  detail::ping_pong(stage, a, b, tsteps, sweep,
                    /*layout_in=*/!overlap_layout);
}

/// Whether the plan's tiled stage engages for this pattern and row extent
/// (see tiled_path_engages).
template <int D>
bool stage_engages(const Pattern<D>& p, const Pattern1D* src, long nx,
                   const TilePlan& plan) {
  const KernelInfo* info = find_kernel(plan.method, D, plan.isa);
  const int sr = src != nullptr ? src->radius() : 0;
  return info != nullptr && tiled_path_engages(*info, p.radius(), sr, nx);
}

/// Runs one ping-pong pair: the tiled driver at the plan's SIMD width when
/// the stage engages, the kernel's untiled executor otherwise. 1-D DLT never
/// engages (tiled_max_radius = -1): the lifted layout's seam couples column
/// 0 to column L-1 across lanes, so column tiles are not spatially local and
/// concurrent wedges would race on the seam. SDSL-1D therefore runs the
/// untiled lifted kernel (see DESIGN.md).
template <int D>
void run_pair(bool engages, const Pattern<D>& p, const FieldView<D>& a,
              const FieldView<D>& b, const Pattern1D* src,
              const FieldView<D>* k, int tsteps, const TilePlan& plan,
              bool serial) {
  if (!engages) {
    require_kernel(plan.method, D, plan.isa).run(p, a, b, src, k, tsteps);
    return;
  }
  switch (isa_width(resolve_isa(plan.isa))) {
    case 8: tiled_impl<8>(p, a, b, src, k, tsteps, plan, serial); break;
    case 4: tiled_impl<4>(p, a, b, src, k, tsteps, plan, serial); break;
    default: tiled_impl<1>(p, a, b, src, k, tsteps, plan, serial); break;
  }
}

}  // namespace

WedgeGeometry negotiate_wedge(int n_tiled, int slope, int fold_m, int tsteps,
                              const TilePlan& requested, long slice_bytes) {
  const int m = std::max(1, fold_m);
  const int super_steps = tsteps / m;
  WedgeGeometry g;
  g.threads = requested.threads > 0 ? requested.threads : hardware_threads();
  if (requested.tile > 0) {
    g.tile = requested.tile;
  } else {
    long tile = n_tiled / std::max(1, g.threads);
    if (g.threads == 1) {
      // Serial runs get no per-thread split — the share above is the whole
      // domain and would never block. Cap the tile so its ping-pong pair
      // (2 buffers plus wedge slack) stays LLC-resident, turning serial
      // split tiling into the Fig. 8 cache-blocking optimization. With
      // multiple threads the per-thread split is the paper's Fig. 9/10
      // geometry and t concurrent tiles could not share the LLC anyway.
      const long cache_cap =
          llc_bytes() / std::max(1L, 3 * std::max<long>(slice_bytes, 1));
      if (cache_cap < tile) tile = cache_cap;
    }
    g.tile = static_cast<int>(std::max<long>(4 * slope, tile));
  }
  const int h_from_tile = std::max(1, (g.tile / std::max(1, slope) - 2) / 2);
  int H = requested.time_block > 0 ? std::max(1, requested.time_block / m)
                                   : h_from_tile;
  H = std::min({H, h_from_tile, std::max(1, super_steps)});
  g.time_block = H * m;
  // Wedges must stay disjoint from neighbour wedge writes during a stage.
  g.blocked =
      super_steps > 0 && g.tile < n_tiled && g.tile >= (2 * H + 1) * slope;
  return g;
}

bool tiled_path_engages(const KernelInfo& k, int radius, int src_radius,
                        long nx) {
  // The 1-D source term widens the wedge reads: the stage must cover the
  // wider of the two radii.
  if (!k.tileable(std::max(radius, src_radius))) return false;
  // DLT's lifted layout needs a full stencil of lifted rows per tile; with
  // fewer the lifted seam folds back into every tile (shape-, not
  // capability-dependent, so it lives here rather than in the registry).
  if (k.method == Method::DLT &&
      nx / std::max(k.width, 1) < 2L * radius + 1)
    return false;
  return true;
}

template <int D>
void run_tile_plan(const Pattern<D>& p, const ViewArg<D>& a,
                   const ViewArg<D>& b, const Pattern1D* src,
                   const ViewArg<D>* k, int tsteps, const TilePlan& plan) {
  run_pair(stage_engages(p, src, a.nx(), plan), p, a, b, src, k, tsteps, plan,
           /*serial=*/false);
}

template <int D>
void run_tile_plan_batch(const Pattern<D>& p,
                         const std::vector<TileBatch<D>>& items,
                         const Pattern1D* src, int tsteps,
                         const TilePlan& plan) {
  if (items.empty()) return;
  if (items.size() == 1) {
    run_tile_plan(p, items[0].a, items[0].b, src, items[0].k, tsteps, plan);
    return;
  }
  const bool engages = stage_engages(p, src, items[0].a.nx(), plan);
  // The batch fan-out: one pool dispatch laying the items over the shared
  // (threads, affinity) pool with the balanced_placement() ownership map;
  // each item's complete serial lifecycle runs on its owning worker.
  auto run_item = [&](int i) {
    const TileBatch<D>& it = items[static_cast<std::size_t>(i)];
    run_pair(engages, p, it.a, it.b, src, it.k, tsteps, plan,
             /*serial=*/true);
  };
  const int threads = plan.threads > 0 ? plan.threads : hardware_threads();
  if (threads > 1)
    shared_pool(threads, plan.affinity)
        ->parallel_for(0, static_cast<int>(items.size()), run_item);
  else
    for (std::size_t i = 0; i < items.size(); ++i)
      run_item(static_cast<int>(i));
}

template void run_tile_plan<1>(const Pattern1D&, const FieldView1D&,
                                const FieldView1D&, const Pattern1D*,
                                const FieldView1D*, int, const TilePlan&);
template void run_tile_plan_batch<1>(const Pattern1D&,
                                      const std::vector<TileBatch1D>&,
                                      const Pattern1D*, int, const TilePlan&);
template void run_tile_plan<2>(const Pattern2D&, const FieldView2D&,
                                const FieldView2D&, const Pattern1D*,
                                const FieldView2D*, int, const TilePlan&);
template void run_tile_plan_batch<2>(const Pattern2D&,
                                      const std::vector<TileBatch2D>&,
                                      const Pattern1D*, int, const TilePlan&);
template void run_tile_plan<3>(const Pattern3D&, const FieldView3D&,
                                const FieldView3D&, const Pattern1D*,
                                const FieldView3D*, int, const TilePlan&);
template void run_tile_plan_batch<3>(const Pattern3D&,
                                      const std::vector<TileBatch3D>&,
                                      const Pattern1D*, int, const TilePlan&);

}  // namespace sf
