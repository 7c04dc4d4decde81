/// \file
/// \brief The planning layer between the Solver facade and the executors.
///
/// Engine::prepare() does not hard-code "tiled or not": it builds a
/// PlanRequest (stencil, selected kernel, resolved extents and ExecOptions)
/// and asks plan_execution() for an ExecutionPlan. The plan says whether
/// the temporal split-tiling multicore path (paper §3.4, the Fig. 9
/// configuration) runs, and with which
/// concrete tile/time_block/threads geometry — negotiated from the wedge
/// heuristics, recalled from the tuner cache (under the key the plan
/// records), or (after Engine::tune measured it) tuned.
///
/// Deciding tiled-vs-untiled under Tiling::Auto is a cost model:
///  1. the selected kernel must declare an engaging tiled stage
///     (KernelInfo::tileable via tiled_path_engages);
///  2. the horizon must cover at least two folded super-steps — shorter
///     runs never amortize a stage barrier;
///  3. the negotiated wedge geometry must actually block (disjoint wedges,
///     see negotiate_wedge);
///  4. the working set must be worth it: at least SF_TILE_MIN_BYTES when
///     multiple threads are available (parallel wedges win on anything
///     sizable because the untiled executors are serial), or larger than
///     the last-level cache in the single-threaded case (where split tiling
///     is purely a cache-blocking play, paper Fig. 8).
#pragma once

#include <optional>
#include <tuple>

#include "core/tuner.hpp"
#include "grid/field_view.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

/// The Solver's tiling policy knob.
enum class Tiling {
  Auto,  ///< Tile when the cost model above predicts a win (default).
  On,    ///< Always tile when a tiled stage engages (the Fig. 9 setup).
  Off,   ///< Never tile; always run the untiled kernel.
};

/// Where an ExecutionPlan's tile geometry came from.
enum class PlanSource {
  Untiled,    ///< No tiling: geometry fields are meaningless.
  Heuristic,  ///< negotiate_wedge() defaults (or explicit user overrides).
  Cached,     ///< Recalled from the TuneCache (this process or SF_TUNE_CACHE).
  Tuned,      ///< Measured just now: the handle Engine::tune returns
              ///< (later prepare() calls recall the geometry as Cached).
};

/// Display name of a PlanSource ("untiled", "heuristic", "cached", "tuned").
const char* plan_source_name(PlanSource s);

/// Problem extents of a prepare request. Unset (0) trailing extents default
/// to the stencil's preset fast-run size, mirroring Solver::size().
struct Extents {
  long nx = 0;  ///< First extent.
  long ny = 0;  ///< Second extent (ignored below 2-D).
  long nz = 0;  ///< Third extent (ignored below 3-D).
};

/// Per-call halo handling of PreparedStencil::run()/advance().
enum class HaloPolicy {
  Sync,   ///< run() mirrors a's Dirichlet halo ring into b before executing
          ///< (the safe default: b's halo may hold anything).
  Clean,  ///< The caller promises b's halo already equals a's (true after
          ///< any prior run()/advance() on the same pair, since kernels
          ///< never write halos) — the O(surface) per-call sync is skipped.
          ///< Streaming advance() loops use this to shave the remaining
          ///< per-call work once the pair is warmed up.
};

/// Execution knobs of a prepare request — the one options record. The
/// caller fills what it cares about; Engine::prepare() resolves every
/// default (environment, preset horizon, tile-tree depth) and keeps the
/// resolved record, which the planner, the plan cache and the plan key all
/// read. Adding an axis means adding a field here and to fields().
struct ExecOptions {
  Method method = Method::Auto;  ///< Kernel method (Auto = auto_method()).
  Isa isa = Isa::Auto;           ///< ISA level (Auto = widest supported).
  Tiling tiling = Tiling::Auto;  ///< Split-tiling policy.
  int threads = 0;     ///< Pool workers for tiled stages (0 = default).
  int tile = 0;        ///< Explicit tile extent (0 = negotiate/tune).
  int time_block = 0;  ///< Explicit time block (0 = negotiate/tune).
  int tsteps = 0;  ///< Planning horizon in time steps (0 = preset default).
                   ///< run() may execute a different horizon; the captured
                   ///< geometry is simply re-clamped by the engine.
  Layout layout = Layout::Natural;
  ///< Resident field layout run()/advance() will accept in addition to
  ///< Layout::Natural. Layout::Natural (the default) keeps the historical
  ///< contract: only natural-layout views are accepted and layout-using
  ///< kernels transform in/out on every call. Requesting the selected
  ///< kernel's preferred layout (PreparedStencil::preferred_layout(),
  ///< Transposed for the "ours" methods) lets callers keep their buffers
  ///< in that layout across an advance() stream — transform once via
  ///< to_resident_layout(), then every call skips the involution.
  ///< prepare() throws when the layout is not the kernel's preference.
  HaloPolicy halo_policy = HaloPolicy::Sync;
  ///< Per-call halo handling; see HaloPolicy.
  Affinity affinity = Affinity::None;
  ///< Worker placement of the tiled stages (runtime/topology.hpp): the
  ///< prepared plan's pool pins its workers per this policy and the
  ///< placement map assigns them tile ranges. Affinity::None (default)
  ///< leaves workers unpinned — results are bitwise identical across
  ///< policies; placement changes locality only. When left at None the
  ///< process-wide `SF_AFFINITY` default applies.
  int levels = 0;
  ///< Requested tile-tree depth (see TileTree): 1 keeps the flat one-level
  ///< plan, 2/3 engage the hierarchical LLC/register blocking negotiation,
  ///< -1 picks the depth from the working set vs the LLC (Auto), and 0
  ///< (the default) defers to the process-wide `SF_TILE_LEVELS` default.
  ///< prepare() resolves it to 1..3 and rejects values outside [-1, 3];
  ///< the planner clamps to what actually engages (ExecutionPlan::tree).
  bool validate = true;
  ///< Per-call FieldView validation in run()/advance(). Default on; the
  ///< debug-only escape hatch (`validate = false`, or `SF_VALIDATE=0`
  ///< process-wide) removes the residual O(1) checks from streaming
  ///< advance() loops — combined with HaloPolicy::Clean a call is then
  ///< pure kernel dispatch. Invalid views are undefined behavior once
  ///< validation is off; keep it on everywhere except profiled-clean
  ///< streaming hot loops.

  /// Every field, in declaration order: the one list the plan-cache
  /// equality and the plan-key hash read.
  auto fields() const {
    return std::tie(method, isa, tiling, threads, tile, time_block, tsteps,
                    layout, halo_policy, affinity, levels, validate);
  }
  /// Field-wise equality over fields().
  bool operator==(const ExecOptions& o) const { return fields() == o.fields(); }
};

/// The hierarchical blocking of a tiled plan along its one tessellated axis
/// (x in 1-D, y in 2-D, z in 3-D): a fixed chain of at most three levels,
/// outermost first. A zero extent means the level is not engaged.
///  1. shard — the contiguous run of wedge tiles one pool worker owns
///     (PlacementPlan ownership; the unit a NUMA node holds);
///  2. tile — the wedge tile extent; on engaged trees capped so one tile's
///     ping-pong working set fits a worker's share of the LLC;
///  3. leaf — the kernel's vector/fold quantum (KernelInfo::reg_block),
///     the granule the tile is rounded to.
///
/// A flat plan engages the tile level only; untiled plans engage none. The
/// wedge scheduler walks this structure implicitly — the shard is its
/// per-worker owned-tile loop, the leaf one wedge — with the same fused
/// walk at every depth.
struct TileTree {
  int shard = 0;  ///< Worker shard extent (0 = not engaged). Shards may
                  ///< differ by one wedge tile; this is the largest.
  int tile = 0;   ///< Wedge tile extent (the last tile may be ragged).
  int leaf = 0;   ///< Register-block extent (0 = not engaged).

  /// Number of engaged levels: 0 untiled, 1 flat, up to 3.
  int depth() const { return (shard > 0) + (tile > 0) + (leaf > 0); }
};

/// Everything plan_execution() needs to decide how a run executes: the
/// stencil, the selected kernel, the resolved extents (1 below the
/// stencil's dimensionality) and the resolved options (tsteps > 0, threads
/// 0 = hardware threads, levels 1..3 — see Engine::prepare()).
struct PlanRequest {
  const StencilSpec& spec;    ///< The stencil being solved.
  const KernelInfo& kernel;   ///< The kernel selected for it.
  Extents ext;                ///< Resolved extents.
  const ExecOptions& opts;    ///< Resolved options.
};

/// How one Solver run will execute: untiled kernel call, or the split-tiled
/// wedge schedule with this concrete geometry.
struct ExecutionPlan {
  const KernelInfo* kernel = nullptr;  ///< The kernel that will execute.
  bool tiled = false;                  ///< Split-tiled engine execution?
  bool blocked = false;  ///< Within a tiled plan: true when wedges stay
                         ///< disjoint at this geometry; false means the
                         ///< engine will run unblocked full sweeps (still
                         ///< correct — Tiling::On on a domain too small to
                         ///< block — and the tuner has nothing to measure).
  TilePlan tile;  ///< Concrete geometry when tiled (method/isa stamped from
                  ///< the kernel; tile/time_block/threads all non-zero).
  PlacementPlan placement;  ///< Which pool worker owns which run of wedge
                            ///< tiles, negotiated alongside tile/time_block
                            ///< for blocked parallel plans (workers == 0
                            ///< otherwise). The tiling engine recomputes
                            ///< the identical map (balanced_placement), so
                            ///< what executes is what this reports; the
                            ///< Engine's first-touch initialization walks
                            ///< it so a worker's tiles live on its node.
  PlanSource source = PlanSource::Untiled;  ///< Provenance of the geometry.
  TileTree tree;  ///< The hierarchical blocking of a tiled plan (see
                  ///< TileTree): flat plans engage only the tile level,
                  ///< engaged multi-level plans add the worker shard and
                  ///< register block; untiled plans leave it empty. Its
                  ///< depth() is the engaged depth the tuner keys on.
  std::optional<TuneKey> tune_key;
  ///< The TuneCache key plan_execution() looked the geometry up under, set
  ///< exactly when it consulted the cache (tiled, auto tile/time_block).
  ///< The plan cache re-checks it and Engine::tune stores under it.
};

/// The largest radius the selected kernel must read with: the stencil's own
/// pattern radius, widened by the 1-D source term's where one exists (APOP).
int effective_radius(const StencilSpec& spec);

/// Bytes the ping-pong grid pair occupies (2 * 8 bytes per point, halos
/// excluded) — the working set the Tiling::Auto cost model reasons about.
long working_set_bytes(long nx, long ny, long nz);

/// The wedge geometry negotiate_wedge() settles on for this request
/// (explicit tile/time_block/threads respected; slope, tiled extent and
/// slice bytes derived from the spec exactly as plan_execution does).
/// Engine::tune derives every probe candidate through it, so what it
/// measures is the geometry the planner would deploy — one derivation, no
/// drift.
WedgeGeometry plan_geometry(const PlanRequest& req);

/// Builds the execution plan for one run. With Tiling::Off (or a kernel
/// whose tiled stage cannot engage) the plan is untiled. Otherwise the
/// geometry is resolved in priority order: explicit user tile/time_block,
/// then a TuneCache hit, then the negotiate_wedge() heuristics. The
/// measuring pass that *fills* the cache is Engine::tune (it needs field
/// views to probe on); plan_execution only ever reads the cache.
ExecutionPlan plan_execution(const PlanRequest& req);

}  // namespace sf
