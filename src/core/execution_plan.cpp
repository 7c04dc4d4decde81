#include "core/execution_plan.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "core/tuner.hpp"
#include "runtime/topology.hpp"

namespace sf {

namespace {

int pattern_radius(const StencilSpec& s) {
  return s.visit([](const auto& p) { return p.radius(); });
}

int source_radius(const StencilSpec& s) {
  return s.dims == 1 && s.has_source ? s.src1.radius() : 0;
}

// The dimension the wedge schedule tessellates: x in 1-D, y in 2-D, z in
// 3-D (always the outermost loop of the untiled executors).
long tiled_extent(const PlanRequest& req) {
  const long ext[] = {req.ext.nx, req.ext.ny, req.ext.nz};
  return req.spec.visit([&](const auto& p) { return ext[p.dims - 1]; });
}

bool engages(const PlanRequest& req) {
  return tiled_path_engages(req.kernel, pattern_radius(req.spec),
                            source_radius(req.spec), req.ext.nx);
}

// Bytes of one cross-section slice of the tiled dimension, mirroring what
// the engine impls pass make_plan (so plan() reports the exact geometry
// run_tile_plan will reconstruct).
long slice_bytes(const PlanRequest& req) {
  const long ext[] = {req.ext.nx, req.ext.ny, req.ext.nz};
  long bytes = sizeof(double);
  for (int ax = 0; ax + 1 < req.spec.dims; ++ax) bytes *= ext[ax];
  return bytes;
}

// negotiate_wedge() over `o`'s explicit tile/time_block/threads (the
// request's own options unless a caller substitutes candidates).
WedgeGeometry negotiate(const PlanRequest& req, const ExecOptions& o) {
  TilePlan requested;
  requested.tile = o.tile;
  requested.time_block = o.time_block;
  requested.threads = o.threads;
  return negotiate_wedge(static_cast<int>(tiled_extent(req)),
                         req.kernel.wedge_slope(pattern_radius(req.spec)),
                         req.kernel.fold_depth, o.tsteps, requested,
                         slice_bytes(req));
}

}  // namespace

const char* plan_source_name(PlanSource s) {
  switch (s) {
    case PlanSource::Untiled: return "untiled";
    case PlanSource::Heuristic: return "heuristic";
    case PlanSource::Cached: return "cached";
    case PlanSource::Tuned: return "tuned";
  }
  return "?";
}

int effective_radius(const StencilSpec& spec) {
  return std::max(pattern_radius(spec), source_radius(spec));
}

long working_set_bytes(long nx, long ny, long nz) {
  return 2L * static_cast<long>(sizeof(double)) * nx * std::max(1L, ny) *
         std::max(1L, nz);
}

namespace {

// The Tiling::Auto decision against plan_execution's already-negotiated
// geometry.
bool profitable_at(const PlanRequest& req, const WedgeGeometry& g) {
  // A time block needs at least two super-steps to amortize its two stage
  // barriers; shorter horizons run untiled.
  const int m = std::max(1, req.kernel.fold_depth);
  if (req.opts.tsteps / m < 2) return false;
  if (!g.blocked) return false;
  const long bytes = working_set_bytes(req.ext.nx, req.ext.ny, req.ext.nz);
  if (g.threads > 1) {
    // The untiled executors are serial, so parallel wedges win on anything
    // sizable; below the floor the stage barriers eat the gain.
    return bytes >= tile_min_bytes();
  }
  // Single-threaded split tiling is purely a cache-blocking play (Fig. 8):
  // profitable only once the ping-pong pair falls out of the LLC.
  return bytes > llc_bytes();
}

}  // namespace

WedgeGeometry plan_geometry(const PlanRequest& req) {
  return negotiate(req, req.opts);
}

namespace {

// The multi-level negotiation pass (tentpole of the tile-tree refactor).
// Levels, outermost first, mirroring TileTree's documentation:
//  1. the top level is the per-worker shard the PlacementPlan already
//     owns — worker count and contiguous tile ownership are unchanged, so
//     the pipelined NeighborSync ordering (one publish/wait pair per
//     worker per stage) keeps covering every cross-worker hazard;
//  2. the mid level caps the wedge tile so one tile's ping-pong working
//     set (3 slices of slack per plane, as in the serial Fig. 8 cap) fits
//     the LLC share a single worker gets on its NUMA node — a worker then
//     walks several cache-resident tiles per stage instead of streaming
//     one node-sized tile through memory;
//  3. the leaf level rounds the mid tile down to the kernel's
//     register-block quantum (KernelInfo::reg_block) so no tile cuts the
//     unit the vector path processes at once.
// Returns the engaged depth: the requested depth when the capped geometry
// still blocks, or 1 (flat — the degenerate tree) when the cap does not
// bind, the domain cannot block at the capped tile, or the plan is serial
// (the serial heuristic already LLC-caps its single-worker tile).
int negotiate_tree(const PlanRequest& req, ExecutionPlan& plan) {
  const int levels = req.opts.levels;
  if (levels < 2 || !plan.blocked || plan.tile.threads <= 1 ||
      req.opts.tile > 0)
    return 1;
  const long slice = slice_bytes(req);
  const int nodes = std::max(1, Topology::system().numa_nodes());
  const int workers_per_node =
      (plan.tile.threads + nodes - 1) / nodes;
  long cap = llc_bytes() / std::max(1, workers_per_node) /
             std::max(1L, 3 * std::max<long>(slice, 1));
  const int leaf = levels >= 3 ? std::max(1, req.kernel.reg_block()) : 1;
  if (leaf > 1 && cap > leaf) cap = cap / leaf * leaf;
  if (cap <= 0 || cap >= plan.tile.tile) return 1;  // cap does not bind
  ExecOptions mid = req.opts;
  mid.tile = static_cast<int>(cap);
  mid.time_block = 0;  // re-derive the block height for the smaller tile
  mid.threads = plan.tile.threads;
  const WedgeGeometry mg = negotiate(req, mid);
  if (!mg.blocked) return 1;  // too small to keep wedges disjoint
  plan.tile.tile = mg.tile;
  plan.tile.time_block = mg.time_block;
  return levels;
}

// Stamps ExecutionPlan::tree from the final geometry: the tile level for
// flat plans, shard + tile (+ register block) for engaged multi-level
// ones. Built last so a tuner recall's tile is what the tree reports.
void stamp_tree(const PlanRequest& req, ExecutionPlan& plan, int levels) {
  plan.tree.tile = plan.tile.tile;
  if (levels <= 1) return;
  const long n_tiled = tiled_extent(req);
  const int ntiles =
      static_cast<int>((n_tiled + plan.tile.tile - 1) / plan.tile.tile);
  const int workers = std::max(1, plan.tile.threads);
  plan.tree.shard = static_cast<int>(std::min<long>(
      n_tiled,
      static_cast<long>((ntiles + workers - 1) / workers) * plan.tile.tile));
  if (levels >= 3)
    plan.tree.leaf =
        std::min(plan.tile.tile, std::max(1, req.kernel.reg_block()));
}

}  // namespace

ExecutionPlan plan_execution(const PlanRequest& req) {
  const ExecOptions& o = req.opts;
  ExecutionPlan plan;
  plan.kernel = &req.kernel;
  if (o.tiling == Tiling::Off || !engages(req)) return plan;

  const WedgeGeometry g = negotiate(req, o);
  if (o.tiling == Tiling::Auto && !profitable_at(req, g)) return plan;
  plan.tiled = true;
  plan.blocked = g.blocked;
  plan.source = PlanSource::Heuristic;
  plan.tile.method = req.kernel.method;
  plan.tile.isa = req.kernel.isa;
  plan.tile.tile = g.tile;
  plan.tile.time_block = g.time_block;
  plan.tile.threads = g.threads;
  plan.tile.affinity = o.affinity;
  // Multi-level pass before the tuner: the engaged depth is part of the
  // tune key, so tree and flat measurements of one shape never cross.
  const int levels = negotiate_tree(req, plan);
  // Explicit geometry outranks the cache; a fully-auto request recalls any
  // previously-measured result for this configuration — exact shape first,
  // then the quarter-octave shape bucket (core/tuner.hpp tune_bucket), so
  // nearby production sizes reuse measurements instead of re-tuning. A
  // cached geometry is re-validated against *this* domain before it is
  // trusted — a cache file can legitimately come from another machine or
  // be edited — and an unblockable entry is ignored in favor of the
  // heuristics. An entry that probed the thread-count axis deploys its
  // winning worker count too (a bandwidth-saturated stencil may have
  // measured fastest below the hardware maximum). The tuner never probes
  // above the negotiated count, so a larger recalled one (an edited or
  // foreign cache file) is ignored rather than deployed as a pool size.
  if (o.tile == 0 && o.time_block == 0) {
    plan.tune_key =
        make_tune_key(req.kernel, effective_radius(req.spec), req.ext.nx,
                      req.ext.ny, req.ext.nz, o.tsteps, g.threads, levels);
    if (auto hit = TuneCache::instance().lookup_rounded(*plan.tune_key)) {
      ExecOptions cached = o;
      cached.tile = hit->tile;
      cached.time_block = hit->time_block;
      if (hit->threads > 0 && hit->threads <= g.threads)
        cached.threads = hit->threads;
      const WedgeGeometry cg = negotiate(req, cached);
      if (cg.blocked) {
        plan.tile.tile = cg.tile;
        plan.tile.time_block = cg.time_block;
        plan.tile.threads = cg.threads;
        plan.blocked = cg.blocked;
        plan.source = PlanSource::Cached;
      }
    }
  }
  // The placement map is part of the plan: who computes which tiles is
  // negotiated with the geometry, not improvised at run time.
  if (plan.blocked && plan.tile.threads > 1) {
    const long n_tiled = tiled_extent(req);
    const int ntiles =
        static_cast<int>((n_tiled + plan.tile.tile - 1) / plan.tile.tile);
    plan.placement = balanced_placement(ntiles, plan.tile.threads, o.affinity);
  }
  stamp_tree(req, plan, levels);
  return plan;
}

}  // namespace sf
