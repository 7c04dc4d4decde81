#include "core/solver.hpp"

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/env.hpp"
#include "common/timing.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/reference.hpp"

namespace sf {

namespace {

// Emplaces a grid of the resolved extents (validated to fit int by
// Engine::prepare) into `slot`.
template <int D>
void allocate(std::optional<Grid<D>>& slot, const Extents& e, int halo,
              bool zero_init = true) {
  const int nx = static_cast<int>(e.nx), ny = static_cast<int>(e.ny),
            nz = static_cast<int>(e.nz);
  if constexpr (D == 1)
    slot.emplace(nx, halo, zero_init);
  else if constexpr (D == 2)
    slot.emplace(ny, nx, halo, zero_init);
  else
    slot.emplace(nz, ny, nx, halo, zero_init);
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

Solver& Solver::replan() {
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
  if (prepared_.valid()) return *this;
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
  return *this;
}

// ---------------------------------------------------------------------------
// Execution: one generic path for every dimensionality
// ---------------------------------------------------------------------------

RunResult Solver::run_impl(bool verify) {
  resolve();
  const StencilSpec& s = cfg_.spec;
  const Extents& ext = cfg_.ext;
  const int tsteps = cfg_.opts.tsteps;
  const int halo = prepared_.halo();

  return s.visit([&](const auto& p) -> RunResult {
    constexpr int D = std::decay_t<decltype(p)>::dims;
    if (ws_.dims != D || ws_.halo != halo || ws_.nx != ext.nx ||
        ws_.ny != ext.ny || ws_.nz != ext.nz ||
        ws_.affinity != prepared_.affinity()) {
      ws_ = Workspace{};
      ws_.dims = D;
      ws_.halo = halo;
      ws_.nx = ext.nx;
      ws_.ny = ext.ny;
      ws_.nz = ext.nz;
      ws_.affinity = prepared_.affinity();
      ws_.active.emplace<Workspace::Grids<D>>();
    }
    auto& g = std::get<Workspace::Grids<D>>(ws_.active);
    auto& A = g.a;
    auto& B = g.b;
    if (!A) {
      // Pinned runs allocate the ping-pong pair untouched and let the
      // pool's placement map write each page first: worker w zeroes the
      // rows/planes of the tiles it owns, so they land on its NUMA node
      // (the serial fill below only overwrites already-placed pages).
      const bool ft = prepared_.pool() != nullptr &&
                      prepared_.affinity() != Affinity::None;
      allocate(A, ext, halo, !ft);
      allocate(B, ext, halo, !ft);
      if (ft) {
        prepared_.first_touch<D>(*A);
        prepared_.first_touch<D>(*B);
      }
    }
    fill_random(*A, cfg_.seed);
    const bool has_source = D == 1 && s.has_source;
    FieldView<D> kview;
    const FieldView<D>* kk = nullptr;
    if (has_source) {
      if (!g.k) allocate(g.k, ext, halo);
      fill_random(*g.k, cfg_.seed + 1);
      kview = *g.k;
      kk = &kview;
    }

    if (cfg_.tune || tune_forced()) {
      // Probes run on the seeded fill and clobber it: re-seed when tuned.
      PreparedStencil tuned =
          Engine::instance().tune<D>(prepared_, *A, *B, kk);
      if (&tuned.plan() != &prepared_.plan()) fill_random(*A, cfg_.seed);
      prepared_ = std::move(tuned);
    }
    copy(*A, *B);

    // Resident-layout execution (opt-in): hoist the kernel's per-call
    // layout transform out of the timed region — transform the workspace
    // once here, run resident, and transform back after timing. The same
    // transforms and kernel steps happen either way, so results are
    // bitwise identical to the default path.
    FieldView<D> av = *A;
    FieldView<D> bv = *B;
    const bool resident = prepared_.resident_layout() != Layout::Natural;
    if (resident) {
      av = to_resident_layout(prepared_, av);
      bv = to_resident_layout(prepared_, bv);
      if (has_source) kview = to_resident_layout(prepared_, kview);
    }

    RunResult res;
    res.tsteps = tsteps;
    res.points = ext.nx * (D >= 2 ? ext.ny : 1) * (D >= 3 ? ext.nz : 1);
    Timer timer;
    if constexpr (D == 1)
      prepared_.run(av, bv, kview, tsteps);  // an empty kview means no source
    else
      prepared_.run(av, bv, tsteps);
    do_not_optimize(A->data());
    res.seconds = timer.seconds();
    if (resident) {
      to_natural_layout(prepared_, av);
      to_natural_layout(prepared_, bv);
      if (has_source) kview = to_natural_layout(prepared_, kview);
    }
    res.gflops = flops_per_step(s, ext.nx, ext.ny, ext.nz) *
                 static_cast<double>(tsteps) / res.seconds / 1e9;

    if (verify) {
      // Untimed reference on identical inputs; the timed run's own output
      // is what gets compared (the kernel executes exactly once).
      auto& RA = g.ra;
      auto& RB = g.rb;
      if (!RA) {
        allocate(RA, ext, halo);
        allocate(RB, ext, halo);
      }
      fill_random(*RA, cfg_.seed);
      copy(*RA, *RB);
      run_reference(p, *RA, *RB, tsteps, has_source ? &s.src1 : nullptr, kk);
      res.max_error = max_abs_diff(*A, *RA);
    }
    return res;
  });
}

}  // namespace sf
