// Quickstart: solve a 2-D heat diffusion problem through the Solver facade
// and verify it against the naive reference.
//
//   $ ./quickstart [n] [steps]
#include <cstdlib>
#include <iostream>

#include "core/solver.hpp"

int main(int argc, char** argv) {
  using namespace sf;
  const int n = argc > 1 ? std::atoi(argv[1]) : 512;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 100;

  // 1. Pick a stencil. Presets cover the paper's Table-1 set; you can also
  //    build any Pattern2D from (offset, weight) taps.
  const StencilSpec& heat = preset(Preset::Heat2D);
  std::cout << "Stencil: " << heat.name << " " << to_string(heat.p2) << "\n";

  // 2. Configure and run. "ours-2step" = register-transpose vectorization +
  //    temporal computation folding (m = 2); Tiling::On = temporal split
  //    tiling across all cores with auto-negotiated tile geometry (add
  //    .tune(true) to measure-and-cache the best tile instead). Leaving the
  //    method unset (Method::Auto) would run multiple-loads, and leaving
  //    tiling at Tiling::Auto lets the planner's cost model decide.
  Solver solver = Solver::make(Preset::Heat2D)
                      .size(n, n)
                      .steps(steps)
                      .method("ours-2step")
                      .tiling(Tiling::On);
  std::cout << "Selected kernel: " << solver.kernel().name << " @ "
            << isa_name(solver.kernel().isa)
            << " (negotiated halo " << solver.halo() << ")\n";
  const ExecutionPlan& plan = solver.plan();
  if (plan.tiled)
    std::cout << "Execution plan: split-tiled, tile " << plan.tile.tile
              << ", time block " << plan.tile.time_block << ", threads "
              << plan.tile.threads << " (" << plan_source_name(plan.source)
              << ")\n";
  else
    std::cout << "Execution plan: untiled (" << plan_source_name(plan.source)
              << ")\n";

  RunResult r = solver.run_verified();
  std::cout << n << "x" << n << ", " << steps << " steps: " << r.seconds
            << " s, " << r.gflops << " GFLOP/s\n"
            << "max |error| vs naive reference: " << r.max_error << "\n";

  // 3. Compare with the baseline the compiler would give you.
  RunResult base = Solver::make(Preset::Heat2D)
                       .size(n, n)
                       .steps(steps)
                       .method(Method::MultipleLoads)
                       .run();
  std::cout << "multiple-loads baseline: " << base.gflops << " GFLOP/s -> "
            << r.gflops / base.gflops << "x speedup\n";
  return r.max_error < 1e-9 ? 0 : 1;
}
