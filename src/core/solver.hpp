/// \file
/// \brief The public entry point: a dimension-generic, builder-style facade
/// over the kernel registry and the execution planner.
///
/// \code
///   RunResult r = Solver::make(Preset::Heat2D)
///                     .size(4096, 4096)
///                     .steps(500)
///                     .method("ours-2step")   // or Method::Auto (default)
///                     .isa(Isa::Auto)
///                     .tiling(Tiling::On)     // split tiling (Fig. 9 path)
///                     .threads(8)             // 0 = OpenMP default
///                     .run();
/// \endcode
///
/// The Solver is a thin convenience facade over the prepared-execution
/// layer (core/engine.hpp): resolve() asks the process-wide Engine to
/// prepare the run — kernel selection through the registry (fold cost model
/// when the method is Auto), halo negotiation
/// (KernelInfo::required_halo), and the ExecutionPlan that decides untiled
/// vs. split-tiled execution with its concrete tile/time_block/threads
/// geometry (core/execution_plan.hpp) — and run() executes the resulting
/// PreparedStencil on the Solver-owned Workspace grids. With `tune(true)`
/// (or `SF_TUNE=1`) run() hands the prepared handle and its workspace to
/// Engine::tune, which measures a handful of candidate tile extents once
/// and caches the winner (core/tuner.hpp), so later runs — and later
/// processes when `SF_TUNE_CACHE` is set — plan for free. Beyond that the
/// Solver is builder, workspace and verification; callers who own their
/// buffers use Engine::prepare (and Engine::tune) directly. Nothing in it
/// is written per dimension: run() is one path over D, entered through
/// StencilSpec::visit, and the Workspace keeps only the active
/// dimensionality's grids (`workspace().grids<D>()`).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/cpu.hpp"
#include "core/engine.hpp"
#include "core/execution_plan.hpp"
#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"

namespace sf {

/// The grids a Solver runs on, allocated for the problem's dimensionality
/// with the halo negotiated from the selected kernel's capability: the
/// (a, b) ping-pong pair, the 1-D time-invariant source array `k` (APOP),
/// and the naive-reference pair (ra, rb), allocated only for verified runs.
/// Allocations persist across run() calls and are re-made only when the
/// shape or halo changes. After run(), `grids<D>().a` holds the final state.
struct Workspace {
  int dims = 0;           ///< Active dimensionality (0 = nothing allocated).
  int halo = 0;           ///< Halo the grids were allocated with.
  long nx = 0;            ///< Extents the grids were allocated for.
  long ny = 0;            ///< Second extent.
  long nz = 0;            ///< Third extent.
  Affinity affinity = Affinity::None;
  ///< Placement policy the grids were first-touched under; changing the
  ///< Solver's affinity reallocates so the pages are placed afresh.

  /// The grids of one dimensionality.
  template <int D>
  struct Grids {
    std::optional<Grid<D>> a;   ///< Result grid.
    std::optional<Grid<D>> b;   ///< Scratch grid.
    std::optional<Grid<D>> k;   ///< Time-invariant source array (1-D APOP).
    std::optional<Grid<D>> ra;  ///< Reference grid (verified runs).
    std::optional<Grid<D>> rb;  ///< Reference scratch.
  };
  /// The active dimensionality's grids (monostate before the first run).
  std::variant<std::monostate, Grids<1>, Grids<2>, Grids<3>> active;

  /// The grids of dimensionality D; throws std::bad_variant_access unless D
  /// is the active one.
  template <int D>
  const Grids<D>& grids() const {
    return std::get<Grids<D>>(active);
  }
};

/// Timing/throughput/accuracy results of one Solver run.
struct RunResult {
  double seconds = 0;     ///< Wall time of the timed kernel execution.
  double gflops = 0;      ///< Useful flops: taps-based, identical across
                          ///< methods.
  double max_error = -1;  ///< Vs naive reference, if verification requested
                          ///< (negative = not verified).
  long points = 0;        ///< Grid points per time step.
  int tsteps = 0;         ///< Time steps executed.
};

/// Builder-style facade over the Engine's prepared-execution layer.
class Solver {
 public:
  /// Starts a builder chain for one of the paper's Table-1 presets.
  static Solver make(Preset p) { return Solver(preset(p)); }
  /// Starts a builder chain for an arbitrary stencil specification.
  static Solver make(const StencilSpec& spec) { return Solver(spec); }

  /// Copying a Solver copies its *specification* (stencil, size, method,
  /// ...) but not the workspace grids: the copy starts with an empty
  /// workspace and allocates on its first run. The prepared handle is
  /// shared — preparations are immutable. This keeps builder chains
  /// assignable (`Solver s = Solver::make(p).method(...).steps(...);`).
  Solver(const Solver& o) : cfg_(o.cfg_), prepared_(o.prepared_) {}
  /// Specification-copying assignment; see the copy constructor.
  Solver& operator=(const Solver& o) {
    if (this != &o) {
      cfg_ = o.cfg_;
      prepared_ = o.prepared_;
      ws_ = Workspace{};
    }
    return *this;
  }

  // ---- builder ----------------------------------------------------------
  /// Problem extents; trailing dimensions are ignored below spec.dims.
  /// Unset (0) extents default to the preset's fast-run size.
  Solver& size(long nx, long ny = 0, long nz = 0);
  /// Time-step horizon (0 = the preset's fast-run default).
  Solver& steps(int tsteps);
  /// Vectorization/folding method (Method::Auto = auto_method()).
  Solver& method(Method m);
  /// Method by registry string key ("auto" included).
  Solver& method(const std::string& name);
  /// ISA level (Isa::Auto = widest the CPU supports).
  Solver& isa(Isa v);
  /// Tiling policy: Auto (cost model, the default), On (always tile when
  /// the kernel's tiled stage engages — the paper's Fig. 9 configuration),
  /// or Off.
  Solver& tiling(Tiling mode);
  /// Pool workers for the tiled stages (0 = hardware threads, or
  /// `SF_THREADS` when set). Part of the tuner cache key.
  Solver& threads(int n);
  /// Worker placement policy of the tiled stages (runtime/topology.hpp):
  /// Affinity::None (default — unpinned, the historical behavior; the
  /// `SF_AFFINITY` env default applies), Compact (pack adjacent cores) or
  /// Scatter (spread across NUMA nodes). Results are bitwise identical
  /// across policies; with a non-None policy the workspace grids are also
  /// allocated first-touch: each pinned worker touches its own tiles'
  /// pages, so they land on its NUMA node.
  Solver& affinity(Affinity a);
  /// Tile-tree depth of the plan (core/execution_plan.hpp TileTree): 1 =
  /// flat (the historical plan), 2/3 = hierarchical LLC/register blocking,
  /// -1 = Auto (depth from working set vs LLC), 0 (the default) = the
  /// process-wide `SF_TILE_LEVELS` default. Engaged depths cap the tile;
  /// every depth runs the same fused tile walk.
  Solver& levels(int depth);
  /// Explicit tile extent along the tiled dimension (0 = negotiate/tune).
  Solver& tile(int extent);
  /// Explicit time steps per block (0 = negotiate/tune).
  Solver& time_block(int steps);
  /// Enables the measure-once auto-tuner for this Solver's tiled runs
  /// (equivalent to SF_TUNE=1 process-wide). The first run of a
  /// configuration measures candidate tile extents through Engine::tune;
  /// the result is cached in the process-wide TuneCache (and in
  /// SF_TUNE_CACHE when set).
  Solver& tune(bool on = true);
  /// Opt-in resident-layout execution: when the selected kernel keeps data
  /// in a transformed layout (PreparedStencil::preferred_layout(), e.g.
  /// Layout::Transposed for the "ours" methods), run() transforms the
  /// workspace grids into that layout once, executes resident — skipping
  /// the kernel's per-call transform in and out — and transforms back
  /// after timing. Results are bitwise identical to the default path (the
  /// same transforms and kernel steps happen, just hoisted out of the
  /// timed per-call loop); the default (off) leaves existing figures
  /// untouched. No-op for kernels that prefer natural layout.
  Solver& resident_layout(bool on = true);
  /// Seed of the deterministic random initial condition.
  Solver& seed(std::uint64_t s);

  // ---- resolved view ----------------------------------------------------
  /// The stencil being solved.
  const StencilSpec& spec() const { return cfg_.spec; }
  /// Prepares the run through the process-wide Engine: selects the kernel
  /// (resolving Method::Auto via auto_method()), fills defaulted
  /// sizes/steps, and captures the execution plan in a PreparedStencil.
  /// Throws std::invalid_argument if no kernel is registered for the
  /// request. Idempotent.
  Solver& resolve();
  /// The Engine-prepared handle this Solver executes through; resolves
  /// first. Useful for migrating to caller-owned buffers: the same handle
  /// can run() on any conforming FieldViews.
  const PreparedStencil& prepared() { return resolve().prepared_; }
  /// The selected kernel's registry entry; resolves first.
  const KernelInfo& kernel() { return prepared().kernel(); }
  /// Negotiated workspace halo; resolves first.
  int halo() { return prepared().halo(); }
  /// How the next run() will execute: untiled or split-tiled, with the
  /// concrete tile/time_block/threads geometry and its provenance
  /// (heuristic, tuner-cached, or tuned). Resolves first. A tuning run
  /// replaces the prepared handle with the tuned one, so calling this
  /// after run() reports the geometry that actually executed.
  const ExecutionPlan& plan() { return prepared().plan(); }
  /// Resolved x extent.
  long nx() { return resolve().cfg_.ext.nx; }
  /// Resolved y extent (1 below 2-D).
  long ny() { return resolve().cfg_.ext.ny; }
  /// Resolved z extent (1 below 3-D).
  long nz() { return resolve().cfg_.ext.nz; }
  /// Resolved time-step horizon.
  int tsteps() { return resolve().cfg_.opts.tsteps; }

  // ---- execution --------------------------------------------------------
  /// One timed run; result grids live in the Solver-owned workspace.
  RunResult run() { return run_impl(false); }
  /// One timed run *plus* an untimed naive-reference run on identical
  /// inputs; fills RunResult::max_error. The measured kernel executes
  /// exactly once (its own output is what gets verified).
  RunResult run_verified() { return run_impl(true); }

  /// The Solver-owned grids; populated by run()/run_verified().
  const Workspace& workspace() const { return ws_; }

 private:
  /// The whole problem specification in one copyable bundle, so Solver's
  /// copy operations cannot silently miss a future builder field. `opts`
  /// is the Engine's options record; resolve() writes the resolved extents
  /// and horizon back.
  struct Config {
    StencilSpec spec;
    Extents ext;
    ExecOptions opts;
    bool tune = false;
    bool resident = false;
    std::uint64_t seed = 42;
  };

  explicit Solver(const StencilSpec& spec) { cfg_.spec = spec; }
  /// Drops the prepared state after a builder change; returns *this.
  Solver& replan();
  RunResult run_impl(bool verify);

  Config cfg_;
  PreparedStencil prepared_;  // set by resolve(); replaced by a tuned run
  Workspace ws_;
};

}  // namespace sf
