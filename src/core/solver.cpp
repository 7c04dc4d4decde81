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

  return dispatch_dims(s.dims, [&](auto dc) -> RunResult {
    constexpr int D = std::decay_t<decltype(dc)>::value;
    const auto& p = s.pattern<D>();

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
      A.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo, !ft));
      B.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo, !ft));
      if (ft) {
        prepared_.first_touch(A->view());
        prepared_.first_touch(B->view());
      }
    }
    fill_random(*A, cfg_.seed);
    [[maybe_unused]] const Pattern1D* src = nullptr;
    [[maybe_unused]] FieldView<D> kview;
    const FieldView<D>* kk = nullptr;
    if constexpr (D == 1) {
      if (s.has_source) {
        if (!ws_.k1)
          ws_.k1.emplace(make_grid<1>(ext.nx, ext.ny, ext.nz, halo));
        fill_random(*ws_.k1, cfg_.seed + 1);
        src = &s.src1;
        kview = ws_.k1->view();
        kk = &kview;
      }
    }

    if (cfg_.tune || tune_forced()) {
      // Probes run on the seeded fill and clobber it: re-seed when tuned.
      PreparedStencil tuned =
          Engine::instance().tune<D>(prepared_, A->view(), B->view(), kk);
      if (&tuned.plan() != &prepared_.plan()) fill_random(*A, cfg_.seed);
      prepared_ = std::move(tuned);
    }
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
        RA.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo));
        RB.emplace(make_grid<D>(ext.nx, ext.ny, ext.nz, halo));
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
