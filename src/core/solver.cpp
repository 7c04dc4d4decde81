#include "core/solver.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/timing.hpp"
#include "core/tuner.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/reference.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

namespace {

/// The one dimensionality switch of the whole facade: every other piece of
/// the run path is written once, generically, against D.
template <class F>
decltype(auto) dispatch_dims(int dims, F&& f) {
  switch (dims) {
    case 1: return f(std::integral_constant<int, 1>{});
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    default: throw std::logic_error("bad dims");
  }
}

template <int D>
auto make_grid(long nx, long ny, long nz, int halo, bool zero_init = true) {
  if constexpr (D == 1)
    return Grid1D(static_cast<int>(nx), halo, zero_init);
  else if constexpr (D == 2)
    return Grid2D(static_cast<int>(ny), static_cast<int>(nx), halo,
                  zero_init);
  else
    return Grid3D(static_cast<int>(nz), static_cast<int>(ny),
                  static_cast<int>(nx), halo, zero_init);
}

// Per-dimension slots of the Workspace.
template <int D>
auto& ws_a(Workspace& w) {
  if constexpr (D == 1) return w.a1;
  else if constexpr (D == 2) return w.a2;
  else return w.a3;
}
template <int D>
auto& ws_b(Workspace& w) {
  if constexpr (D == 1) return w.b1;
  else if constexpr (D == 2) return w.b2;
  else return w.b3;
}
template <int D>
auto& ws_ra(Workspace& w) {
  if constexpr (D == 1) return w.ra1;
  else if constexpr (D == 2) return w.ra2;
  else return w.ra3;
}
template <int D>
auto& ws_rb(Workspace& w) {
  if constexpr (D == 1) return w.rb1;
  else if constexpr (D == 2) return w.rb2;
  else return w.rb3;
}

/// Candidate tile extents the auto-tuner measures: the planner's negotiated
/// tile, the per-thread split, and a small fan around them (halved,
/// doubled, slope-proportional), filtered to extents that can actually
/// block (at least (2*1+1)*slope for an H = 1 wedge, strictly inside the
/// domain).
std::vector<int> tile_candidates(long n, int slope, int threads,
                                 int planned) {
  const int thr = std::max(1, threads);
  const int heur = std::max(4 * slope, static_cast<int>(n / thr));
  const int raw[] = {planned,   planned / 2, 2 * planned,
                     heur,      4 * slope,   8 * slope,
                     static_cast<int>(n / (2L * thr))};
  std::vector<int> out;
  for (int c : raw) {
    if (c < 3 * slope) continue;
    if (c >= n) continue;
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  if (out.empty()) out.push_back(planned > 0 ? planned : heur);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

Solver& Solver::replan() {
  selected_ = nullptr;
  prepared_ = PreparedStencil{};
  return *this;
}

Solver& Solver::size(long nx, long ny, long nz) {
  cfg_.ext = Extents{nx, ny, nz};
  return replan();
}

Solver& Solver::steps(int tsteps) {
  cfg_.opts.tsteps = tsteps;
  return replan();
}

Solver& Solver::method(Method m) {
  cfg_.opts.method = m;
  return replan();
}

Solver& Solver::method(const std::string& name) {
  return method(method_from_name(name));
}

Solver& Solver::isa(Isa v) {
  cfg_.opts.isa = v;
  return replan();
}

Solver& Solver::tiling(Tiling mode) {
  cfg_.opts.tiling = mode;
  return replan();
}

Solver& Solver::threads(int n) {
  cfg_.opts.threads = n;
  return replan();
}

Solver& Solver::affinity(Affinity a) {
  cfg_.opts.affinity = a;
  return replan();
}

Solver& Solver::levels(int depth) {
  cfg_.opts.levels = depth;
  return replan();
}

Solver& Solver::tile(int extent) {
  cfg_.opts.tile = extent;
  return replan();
}

Solver& Solver::time_block(int steps) {
  cfg_.opts.time_block = steps;
  return replan();
}

Solver& Solver::tune(bool on) {
  cfg_.tune = on;
  return *this;
}

Solver& Solver::resident_layout(bool on) {
  cfg_.resident = on;
  return replan();
}

Solver& Solver::seed(std::uint64_t s) {
  cfg_.seed = s;
  return *this;
}

// ---------------------------------------------------------------------------
// Resolution: one Engine::prepare call captures kernel, halo and plan.
// ---------------------------------------------------------------------------

Solver& Solver::resolve() {
  if (selected_ != nullptr) return *this;
  Engine& eng = Engine::instance();
  prepared_ = eng.prepare(cfg_.spec, cfg_.ext, cfg_.opts);
  if (cfg_.resident && prepared_.preferred_layout() != Layout::Natural) {
    // Re-prepare with the now-known preferred layout so the handle accepts
    // resident views; the first preparation stays cached and is shared by
    // any non-resident Solver of the same configuration.
    ExecOptions o = cfg_.opts;
    o.layout = prepared_.preferred_layout();
    prepared_ = eng.prepare(cfg_.spec, cfg_.ext, o);
  }
  // Keep the extents and horizon the Engine resolved: each unset (0) one
  // independently took the preset's fast-run default, so size(nx) on a
  // 2-D problem keeps the preset's ny rather than degenerating to nx x 1.
  cfg_.ext = Extents{prepared_.nx(), prepared_.ny(), prepared_.nz()};
  cfg_.opts.tsteps = prepared_.tsteps();
  selected_ = &prepared_.kernel();
  halo_ = prepared_.halo();
  plan_ = prepared_.plan();
  return *this;
}

const KernelInfo& Solver::kernel() { return *resolve().selected_; }

int Solver::halo() { return resolve().halo_; }

// ---------------------------------------------------------------------------
// Measure-once auto-tuning
// ---------------------------------------------------------------------------

// Probes candidate geometries on the allocated grids (contents are
// irrelevant for timing but kept finite so FP corner cases don't distort
// it), records the winner in the TuneCache, and restores `a`'s initial
// state for the timed run. A Cached plan skips all of this — that is the
// "repeated runs are free" contract — and an unblockable plan has no wedge
// geometry worth measuring.
//
// The search runs its axes in sequence rather than their full product
// (additive, not multiplicative, probe counts):
//  0. tree plans only (ExecutionPlan::tree depth >= 2), staged ahead of
//     the tile axis: leaf (register-block) granules 1x/2x/4x
//     KernelInfo::reg_block — the planner's mid tile re-aligned down to
//     each granule and measured, so the L3-tile axis then searches
//     leaf-aligned extents;
//  1. tile extents, each probed at the block height the Fig. 7 heuristic
//     yields for it — the heuristic is the probe seed, never skipped;
//  2. (tile × time_block) pairs: the winning tile re-measured at halved
//     and doubled block heights, so a machine whose sweet spot departs
//     from the triangle-geometry derivation is actually measured;
//  3. thread counts {resolved, resolved/2, cores-per-node}: now that the
//     worker count is a first-class plan parameter, bandwidth-saturated
//     stencils can settle below the hardware maximum.
template <int D, class P, class G>
void Solver::tune_pass(const P& p, G& a, G& b, const Pattern1D* src,
                       const FieldView1D* kk) {
  if (!(plan_.tiled && plan_.blocked && (cfg_.tune || tune_forced()) &&
        plan_.source == PlanSource::Heuristic && cfg_.opts.tile == 0 &&
        cfg_.opts.time_block == 0))
    return;
  const Extents& ext = cfg_.ext;
  const int tsteps = cfg_.opts.tsteps;
  const long n_tiled = D == 1 ? ext.nx : D == 2 ? ext.ny : ext.nz;
  const int m = std::max(1, selected_->fold_depth);
  const int slope = selected_->wedge_slope(p.radius());
  // One uniform probe horizon for every candidate: fixed per-call
  // overheads (layout transposes in/out, stage fork/join) amortize
  // identically and cancel out of the ranking.
  const int probe_steps = std::min(tsteps, std::max(2 * m, 48));
  const int base_threads = plan_.tile.threads;  // the resolved count
  // The planner request of every probe: this Solver's options at the
  // resolved thread count and the probe horizon. `treq` reads `probe_opts`
  // by reference, so each axis below just sets the candidate fields.
  ExecOptions probe_opts = cfg_.opts;
  probe_opts.threads = base_threads;
  probe_opts.affinity = plan_.tile.affinity;
  probe_opts.tsteps = probe_steps;
  const PlanRequest treq{cfg_.spec, *selected_, ext, probe_opts};

  auto probe = [&](int tile_c, int tb_c, int thr_c, int steps) {
    TilePlan cand = plan_.tile;
    cand.tile = tile_c;
    cand.time_block = tb_c;
    cand.threads = thr_c;
    if constexpr (D == 1)
      run_tile_plan(p, a, b, src, kk, steps, cand);
    else
      run_tile_plan(p, a, b, steps, cand);
  };
  // Every probe measurement is logged (not just winners): the accumulated
  // (geometry -> GFLOP/s) table is the training set the ROADMAP item-5
  // performance model fits over. Dead no-op unless SF_METRICS is on.
  const telemetry::SampleLog tune_log = telemetry::samples(
      "tuner", {"kernel", "isa", "dims", "radius", "nx", "ny", "nz",
                "probe_steps", "threads", "tile", "time_block", "seconds",
                "gflops"});
  auto measure = [&](int tile_c, int tb_c, int thr_c) {
    Timer timer;
    probe(tile_c, tb_c, thr_c, probe_steps);
    const double sec = timer.seconds();
    if (tune_log.live()) {
      const double gflops =
          flops_per_step(cfg_.spec, ext.nx, ext.ny, ext.nz) * probe_steps /
          sec / 1e9;
      tune_log.append(
          {selected_->name, isa_name(selected_->isa),
           std::to_string(cfg_.spec.dims),
           std::to_string(effective_radius(cfg_.spec)),
           std::to_string(ext.nx), std::to_string(ext.ny),
           std::to_string(ext.nz), std::to_string(probe_steps),
           std::to_string(thr_c), std::to_string(tile_c),
           std::to_string(tb_c), std::to_string(sec),
           std::to_string(gflops)});
    }
    return sec;
  };

  double best_sec = std::numeric_limits<double>::infinity();
  int best_tile = plan_.tile.tile;
  int best_tb = 0;  // 0 = the heuristic height (re-derived at deploy time)
  int best_leaf = 0;  // 0 = no leaf granule probed/won (flat plans)
  bool warmed = false;

  // Axis 0 (tree plans only): leaf granules, staged ahead of the tile axis.
  // A granule only survives as provenance (TunedGeometry::leaf) when its
  // aligned tile actually measured fastest so far; the axis-1 candidates
  // are then rounded to it, keeping the winner leaf-aligned.
  if (plan_.tree.depth() >= 2) {
    const int q = std::max(1, selected_->reg_block());
    for (int mult : {1, 2, 4}) {
      const int granule = q * mult;
      const int aligned = plan_.tile.tile / granule * granule;
      if (granule < 2 || aligned < 3 * slope) continue;
      probe_opts.tile = aligned;
      probe_opts.time_block = 0;
      const WedgeGeometry g = plan_geometry(treq);
      if (!g.blocked) continue;
      if (!warmed) {
        // Untimed warmup: absorbs one-time costs (pool creation, page
        // faults) so they don't land on the first measured candidate.
        probe(g.tile, g.time_block, base_threads, std::min(tsteps, 2 * m));
        warmed = true;
      }
      const double sec = measure(g.tile, g.time_block, base_threads);
      if (sec < best_sec) {
        best_sec = sec;
        best_tile = g.tile;
        best_leaf = granule;
      }
    }
  }

  // Axis 1: tile extents at their heuristic block heights, rounded to the
  // winning leaf granule when axis 0 picked one. A taller block than the
  // probe horizon can observe is never measured; unblockable candidates
  // have no wedge schedule to measure.
  std::vector<std::pair<int, int>> cands;  // (tile, probe time_block)
  for (int c :
       tile_candidates(n_tiled, slope, base_threads, plan_.tile.tile)) {
    if (best_leaf > 1) c = std::max(best_leaf, c / best_leaf * best_leaf);
    probe_opts.tile = c;
    probe_opts.time_block = 0;
    const WedgeGeometry g = plan_geometry(treq);
    if (g.blocked &&
        std::find(cands.begin(), cands.end(),
                  std::make_pair(g.tile, g.time_block)) == cands.end())
      cands.emplace_back(g.tile, g.time_block);
  }
  if (cands.empty() && !warmed) return;  // nothing measurable at all
  if (!warmed && !cands.empty())
    probe(cands.front().first, cands.front().second, base_threads,
          std::min(tsteps, 2 * m));
  for (const auto& [tile_c, tb_c] : cands) {
    const double sec = measure(tile_c, tb_c, base_threads);
    if (sec < best_sec) {
      best_sec = sec;
      best_tile = tile_c;
    }
  }

  // Axis 2: block heights below the winner's heuristic height — the
  // (tile × time_block) pair is measured, not re-derived. Only shorter
  // blocks exist for a fixed tile: the Fig. 7 height is the viability
  // maximum (taller blocks have degenerate triangle tops and renegotiate
  // back down), so the taller-block direction is explored through wider
  // tiles on axis 1. A non-heuristic winner is deployed (and recorded)
  // explicitly.
  probe_opts.tile = best_tile;
  probe_opts.time_block = 0;
  const int heur_tb = plan_geometry(treq).time_block;
  for (int tb_c : {std::max(m, heur_tb / 2 / m * m),
                   std::max(m, heur_tb / 4 / m * m)}) {
    if (tb_c == heur_tb) continue;
    probe_opts.time_block = tb_c;
    const WedgeGeometry g = plan_geometry(treq);
    if (!g.blocked || g.time_block == heur_tb || g.time_block == best_tb)
      continue;
    const double sec = measure(best_tile, g.time_block, base_threads);
    if (sec < best_sec) {
      best_sec = sec;
      best_tb = g.time_block;
    }
  }

  // Axis 3: thread counts below the resolved maximum. The geometry is
  // re-negotiated per count (the heuristic tile is a per-thread split), so
  // each candidate runs its own best-known shape.
  int best_thr = base_threads;
  std::vector<int> thr_cands{std::max(1, base_threads / 2),
                             Topology::system().cores_per_node()};
  if (thr_cands[1] == thr_cands[0]) thr_cands.pop_back();
  for (int thr_c : thr_cands) {
    if (thr_c <= 0 || thr_c == base_threads || thr_c > base_threads)
      continue;
    probe_opts.threads = thr_c;
    probe_opts.tile = best_tile;
    probe_opts.time_block = best_tb;
    const WedgeGeometry g = plan_geometry(treq);
    if (!g.blocked) continue;
    const double sec = measure(g.tile, g.time_block, thr_c);
    if (sec < best_sec) {
      best_sec = sec;
      best_thr = thr_c;
    }
  }

  // Deploy (and record) the winner: the measured block height when one
  // beat the heuristic, otherwise the height the heuristic gives the
  // winning tile at the full horizon (so a tuned plan never trades away
  // the tall blocks an untuned plan would use); the winning thread count
  // only when the axis actually moved it (0 = "deploy with the key's").
  probe_opts.tsteps = tsteps;
  probe_opts.threads = best_thr;
  probe_opts.tile = best_tile;
  probe_opts.time_block = best_tb;
  const WedgeGeometry deployed = plan_geometry(treq);
  TuneCache::instance().store(
      make_tune_key(*selected_, effective_radius(cfg_.spec), ext.nx, ext.ny,
                    ext.nz, tsteps, base_threads, plan_.tree.depth()),
      TunedGeometry{deployed.tile, deployed.time_block,
                    best_thr != base_threads ? best_thr : 0, best_leaf});
  // The store invalidated this configuration's cached plan (per-key), so
  // this re-prepare re-plans and recalls the geometry just recorded: the
  // prepared handle the timed run executes through carries the tuned plan.
  // The resident-layout acceptance of the handle being replaced is carried
  // forward — the builder options alone never request it (resolve()
  // negotiates it against the kernel's preference).
  ExecOptions tuned_opts = cfg_.opts;
  tuned_opts.layout = prepared_.resident_layout();
  prepared_ = Engine::instance().prepare(cfg_.spec, ext, tuned_opts);
  plan_ = prepared_.plan();
  plan_.source = PlanSource::Tuned;  // report provenance, not cache recall
  fill_random(a, cfg_.seed);  // probes clobbered the initial state
}

// ---------------------------------------------------------------------------
// Execution: one generic path for every dimensionality
// ---------------------------------------------------------------------------

RunResult Solver::run_impl(bool verify) {
  resolve();
  const StencilSpec& s = cfg_.spec;
  const Extents& ext = cfg_.ext;
  const int tsteps = cfg_.opts.tsteps;

  return dispatch_dims(s.dims, [&](auto dc) -> RunResult {
    constexpr int D = std::decay_t<decltype(dc)>::value;
    const auto& p = s.pattern<D>();

    if (ws_.dims != D || ws_.halo != halo_ || ws_.nx != ext.nx ||
        ws_.ny != ext.ny || ws_.nz != ext.nz ||
        ws_.affinity != prepared_.affinity()) {
      ws_ = Workspace{};
      ws_.dims = D;
      ws_.halo = halo_;
      ws_.nx = ext.nx;
      ws_.ny = ext.ny;
      ws_.nz = ext.nz;
      ws_.affinity = prepared_.affinity();
    }
    auto& A = ws_a<D>(ws_);
    auto& B = ws_b<D>(ws_);
    if (!A) {
      // Pinned runs allocate the ping-pong pair untouched and let the
      // pool's placement map write each page first: worker w zeroes the
      // rows/planes of the tiles it owns, so they land on its NUMA node
      // (the serial fill below only overwrites already-placed pages).
      const bool ft = prepared_.pool() != nullptr &&
                      prepared_.affinity() != Affinity::None;
      A.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo_, !ft));
      B.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo_, !ft));
      if (ft) {
        prepared_.first_touch(A->view());
        prepared_.first_touch(B->view());
      }
    }
    fill_random(*A, cfg_.seed);
    [[maybe_unused]] const Pattern1D* src = nullptr;
    [[maybe_unused]] FieldView1D kview;
    [[maybe_unused]] const FieldView1D* kk = nullptr;
    if constexpr (D == 1) {
      if (s.has_source) {
        if (!ws_.k1)
          ws_.k1.emplace(make_grid<1>(ext.nx, ext.ny, ext.nz, halo_));
        fill_random(*ws_.k1, cfg_.seed + 1);
        src = &s.src1;
        kview = ws_.k1->view();
        kk = &kview;
      }
    }

    tune_pass<D>(p, *A, *B, src, kk);
    copy(*A, *B);

    // Resident-layout execution (opt-in): hoist the kernel's per-call
    // layout transform out of the timed region — transform the workspace
    // once here, run resident, and transform back after timing. The same
    // transforms and kernel steps happen either way, so results are
    // bitwise identical to the default path.
    auto av = A->view();
    auto bv = B->view();
    const bool resident = prepared_.resident_layout() != Layout::Natural;
    if (resident) {
      av = to_resident_layout(prepared_, av);
      bv = to_resident_layout(prepared_, bv);
      if constexpr (D == 1) {
        if (kk != nullptr) kview = to_resident_layout(prepared_, kview);
      }
    }

    RunResult res;
    res.tsteps = tsteps;
    res.points = ext.nx * (D >= 2 ? ext.ny : 1) * (D >= 3 ? ext.nz : 1);
    Timer timer;
    if constexpr (D == 1) {
      if (kk != nullptr)
        prepared_.run(av, bv, kview, tsteps);
      else
        prepared_.run(av, bv, tsteps);
    } else {
      prepared_.run(av, bv, tsteps);
    }
    do_not_optimize(A->data());
    res.seconds = timer.seconds();
    if (resident) {
      to_natural_layout(prepared_, av);
      to_natural_layout(prepared_, bv);
      if constexpr (D == 1) {
        if (kk != nullptr) kview = to_natural_layout(prepared_, kview);
      }
    }
    res.gflops = flops_per_step(s, ext.nx, ext.ny, ext.nz) *
                 static_cast<double>(tsteps) / res.seconds / 1e9;

    if (verify) {
      // Untimed reference on identical inputs; the timed run's own output
      // is what gets compared (the kernel executes exactly once).
      auto& RA = ws_ra<D>(ws_);
      auto& RB = ws_rb<D>(ws_);
      if (!RA) {
        RA.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo_));
        RB.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo_));
      }
      fill_random(*RA, cfg_.seed);
      copy(*RA, *RB);
      if constexpr (D == 1)
        run_reference(p, *RA, *RB, tsteps, src, kk);
      else
        run_reference(p, *RA, *RB, tsteps);
      res.max_error = max_abs_diff(*A, *RA);
    }
    return res;
  });
}

}  // namespace sf
