// Figure 10: scalability of the tiled methods from 1 core up to the
// machine's hardware threads, for all nine benchmarks. One table per
// stencil, one row per core count, matching the paper's nine panels.
//
// `--pinned` (or SF_AFFINITY=compact|scatter) runs every configuration
// through the topology-pinned WorkerPool with first-touch workspaces —
// each worker's tiles placed on its own NUMA node — which is the setup
// under which the paper's near-linear scaling reproduces on multi-node
// machines. Default remains unpinned (identical results; placement only
// affects locality).
//
// The pinned sweep additionally emits an explicit barrier-vs-pipelined
// A/B of the flagship tiled method: "our-2step(pipelined)" is the Solver's
// own run (the point-to-point NeighborSync schedule every prepared plan
// takes), "our-2step(barrier)" re-runs that Solver's negotiated TilePlan
// through run_tile_plan with the TilePlan::barrier hook (two global
// barriers per block) — bitwise-identical results, so the column pair
// isolates pure synchronization cost at each core count.
#include <cstring>
#include <iostream>

#include "bench_util/harness.hpp"
#include "common/timing.hpp"

namespace {

// GFLOP/s of `s`'s negotiated plan on the barrier schedule: one timed
// run_tile_plan over the workspace grids `s` just ran on (same geometry,
// pool and first-touched pages). An untiled plan has no stages to
// synchronize, so it runs through the Solver like the pipelined column.
double barrier_gflops(sf::Solver& s) {
  using namespace sf;
  if (!s.plan().tiled) return s.run().gflops;
  TilePlan plan = s.plan().tile;
  plan.barrier = true;
  const StencilSpec& spec = s.spec();
  const Workspace& ws = s.workspace();
  Timer timer;
  switch (spec.dims) {
    case 1: {
      const FieldView1D k =
          ws.grids<1>().k ? ws.grids<1>().k->view() : FieldView1D();
      run_tile_plan(spec.p1, ws.grids<1>().a->view(),
                    ws.grids<1>().b->view(),
                    spec.has_source ? &spec.src1 : nullptr,
                    ws.grids<1>().k ? &k : nullptr, s.tsteps(), plan);
      break;
    }
    case 2:
      run_tile_plan(spec.p2, ws.grids<2>().a->view(), ws.grids<2>().b->view(),
                    s.tsteps(), plan);
      break;
    default:
      run_tile_plan(spec.p3, ws.grids<3>().a->view(), ws.grids<3>().b->view(),
                    s.tsteps(), plan);
      break;
  }
  const double sec = timer.seconds();
  return flops_per_step(spec, s.nx(), s.ny(), s.nz()) * s.tsteps() / sec /
         1e9;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sf;
  const bool full = bench_full();
  Affinity aff = env_affinity();
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--pinned") == 0 && aff == Affinity::None)
      aff = Affinity::Compact;
  const int maxthreads = hardware_threads();
  std::vector<int> cores;
  for (int c = 1; c < maxthreads; c *= 2) cores.push_back(c);
  cores.push_back(maxthreads);

  const auto& methods = bench::paper_competitors();

  std::vector<std::string> header{"cores", "affinity"};
  for (const auto& m : methods) header.push_back(m.label);
  // The pinned high-thread sweep is where barrier cost shows; give it the
  // explicit schedule A/B columns.
  const bool schedule_ab = aff != Affinity::None;
  const bench::Competitor flagship{"our-2step", "ours-2step", Isa::Avx2};
  if (schedule_ab) {
    header.push_back("our-2step(barrier)");
    header.push_back("our-2step(pipelined)");
  }

  // Machine-readable trajectory: every (stencil, method, cores) GFLOP/s
  // lands in BENCH_fig10.json alongside the CSVs (scripts/bench_summary.py
  // merges these across runs/PRs).
  std::vector<std::pair<std::string, double>> summary;
  for (const auto& spec : all_presets()) {
    Table t(header);
    std::cout << "Figure 10 (" << spec.name << "): GFLOP/s vs cores"
              << (aff != Affinity::None
                      ? std::string(" [") + affinity_name(aff) + "]"
                      : "")
              << "\n";
    for (int c : cores) {
      std::vector<std::string> row{std::to_string(c), affinity_name(aff)};
      const auto record = [&](const std::string& label, double gflops) {
        summary.emplace_back(std::string(spec.name) + "." + label + ".c" +
                                 std::to_string(c),
                             gflops);
      };
      for (const auto& m : methods) {
        if (m.isa == Isa::Avx512 && !cpu_has_avx512()) {
          row.push_back("-");
          continue;
        }
        Solver s = bench::competitor_solver(m, spec, full);
        s.threads(c).affinity(aff);
        const double gflops = s.run().gflops;
        record(m.label, gflops);
        row.push_back(Table::num(gflops));
      }
      if (schedule_ab) {
        Solver s = bench::competitor_solver(flagship, spec, full);
        s.threads(c).affinity(aff);
        const double piped = s.run().gflops;
        const double barrier = barrier_gflops(s);
        record("our-2step-barrier", barrier);
        record("our-2step-pipelined", piped);
        row.push_back(Table::num(barrier));
        row.push_back(Table::num(piped));
      }
      t.add_row(row);
    }
    bench::emit(t, std::string("fig10_") + spec.name);
  }
  bench::emit_bench_json("fig10", summary);
  return 0;
}
