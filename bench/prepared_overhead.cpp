// Repeated-run overhead: the prepared-execution path vs. the legacy
// one-shot Solver path.
//
// A production service runs the *same* stencil configuration over and over
// on live data. The legacy pattern pays per-call setup on every request —
// a fresh Solver re-resolves (a plan-cache consultation now that Solver
// itself sits on the Engine; a full re-plan before this PR), re-allocates
// its workspace, and re-initializes it. The prepared pattern pays
// Engine::prepare() once and then executes zero-copy on caller-owned
// buffers. Both execute the identical kernel, so the per-call difference
// is pure setup overhead — the quantity ISSUE 3's acceptance criterion
// asks to see below the legacy path.
#include <cstdio>

#include "bench_util/harness.hpp"
#include "common/timing.hpp"
#include "core/engine.hpp"
#include "grid/grid_utils.hpp"

namespace sf::bench {
namespace {

struct Config {
  Preset preset;
  long nx, ny;
  int tsteps;
};

void sweep() {
  const bool full = bench_full();
  const long reps =
      env_long("SF_BENCH_REPS", full ? 200 : 50, 0, INT_MAX);
  const std::vector<Config> configs = {
      {Preset::Heat1D, full ? 1000000L : 100000L, 1, 2},
      {Preset::Heat2D, full ? 2048L : 384L, full ? 2048L : 384L, 2},
      {Preset::Heat3D, full ? 128L : 48L, full ? 128L : 48L, 2},
  };

  Table t({"stencil", "calls", "legacy ms/call", "prepared ms/call",
           "overhead saved ms", "speedup"});
  for (const Config& c : configs) {
    const StencilSpec& spec = preset(c.preset);
    const long ny = spec.dims >= 2 ? c.ny : 1;
    const long nz = spec.dims >= 3 ? c.ny : 1;

    // Legacy: a fresh Solver per call — resolves, re-allocates its
    // workspace and re-initializes it every time.
    Timer legacy_timer;
    for (long i = 0; i < reps; ++i) {
      Solver s = Solver::make(c.preset);
      s.size(c.nx, ny, nz).steps(c.tsteps).tiling(Tiling::Off);
      s.run();
      do_not_optimize(&s.workspace());
    }
    const double legacy_ms = legacy_timer.seconds() * 1e3 / reps;

    // Prepared: one prepare, then zero-copy runs on caller-owned grids.
    ExecOptions opts;
    opts.tiling = Tiling::Off;
    opts.tsteps = c.tsteps;
    PreparedStencil ps = Engine::instance().prepare(
        spec, Extents{c.nx, ny, nz}, opts);
    const int h = ps.halo();
    double prepared_ms = 0;
    if (spec.dims == 1) {
      Grid1D a(static_cast<int>(c.nx), h), b(static_cast<int>(c.nx), h);
      fill_random(a, 42);
      copy(a, b);
      Timer timer;
      for (long i = 0; i < reps; ++i)
        ps.run(a.view(), b.view(), c.tsteps);
      do_not_optimize(a.data());
      prepared_ms = timer.seconds() * 1e3 / reps;
    } else if (spec.dims == 2) {
      Grid2D a(static_cast<int>(ny), static_cast<int>(c.nx), h);
      Grid2D b(static_cast<int>(ny), static_cast<int>(c.nx), h);
      fill_random(a, 42);
      copy(a, b);
      Timer timer;
      for (long i = 0; i < reps; ++i)
        ps.run(a.view(), b.view(), c.tsteps);
      do_not_optimize(a.data());
      prepared_ms = timer.seconds() * 1e3 / reps;
    } else {
      Grid3D a(static_cast<int>(nz), static_cast<int>(ny),
               static_cast<int>(c.nx), h);
      Grid3D b(static_cast<int>(nz), static_cast<int>(ny),
               static_cast<int>(c.nx), h);
      fill_random(a, 42);
      copy(a, b);
      Timer timer;
      for (long i = 0; i < reps; ++i)
        ps.run(a.view(), b.view(), c.tsteps);
      do_not_optimize(a.data());
      prepared_ms = timer.seconds() * 1e3 / reps;
    }

    t.add_row({spec.name, std::to_string(reps), Table::num(legacy_ms, 3),
               Table::num(prepared_ms, 3),
               Table::num(legacy_ms - prepared_ms, 3),
               Table::num(legacy_ms / prepared_ms, 2)});
  }
  emit(t, "prepared_overhead");
}

}  // namespace
}  // namespace sf::bench

int main() {
  std::printf("Prepared-execution overhead: prepare-once + zero-copy runs "
              "vs. one-shot Solver per call\n(identical kernels; the gap is "
              "per-call setup: resolve + alloc + init)\n\n");
  sf::bench::sweep();
  return 0;
}
