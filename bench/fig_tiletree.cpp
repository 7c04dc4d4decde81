// Tile-tree A/B: flat (one wedge tile per worker) vs hierarchical
// (SF_TILE_LEVELS=3: the wedge tile capped to a worker's LLC share and
// rounded to the kernel's register block) on LLC-exceeding 3-D grids.
//
// The geometry is derived from the *detected* machine rather than fixed:
// the plane extent is sized so the mid-level cap lands at a tile whose
// time block still covers the whole bench horizon — tree and flat then
// share one super-step block structure and the A/B isolates the tree
// walk's traversal/residency effect instead of block fragmentation. nz is
// large enough that the flat per-worker shard streams through the LLC
// between the up and down sweeps while the capped tile's fused up+down
// walk consumes its flanks while resident. Expected shape: tree >= flat
// on bandwidth-bound machines, parity on compute-bound ones (the header
// reports the machine's measured cache sensitivity); results are bitwise
// identical (checked here, not just asserted in tests).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util/harness.hpp"
#include "grid/grid_utils.hpp"
#include "runtime/topology.hpp"

int main() {
  using namespace sf;
  const bool full = bench_full();
  const long llc = llc_bytes();
  // The tree only engages on parallel plans (serial flat plans already
  // LLC-cap their single tile), so a 1-core machine runs the A/B with two
  // oversubscribed workers: what it measures — cache residency of the
  // per-worker tile walk — does not depend on true parallelism.
  const int threads = std::max(2, hardware_threads());
  const int nodes = std::max(1, Topology::system().numa_nodes());
  const int wpn = (threads + nodes - 1) / nodes;

  // ours-2step on Heat3D: fold depth 2 x radius 1.
  const int slope = 2;
  const int tsteps = full ? 64 : 32;
  // Aim the planner's mid-level cap (llc / workers-per-node / 3*slice) at
  // the smallest tile whose block height covers the whole horizon
  // (H >= tsteps/2  <=>  tile >= slope*(tsteps+2)), plus margin: slice =
  // 8*nx*ny bytes, so side follows from the cap target.
  const long cap_planes = slope * (tsteps + 2L) + 12;
  const long plane_pts =
      std::max(1L, llc / (std::max(1, wpn) * 3L * cap_planes * 8L));
  const long side = std::clamp(
      static_cast<long>(std::sqrt(static_cast<double>(plane_pts))), 64L,
      512L);
  // Flat shard (nz / threads) must comfortably exceed the cap so the tree
  // engages and the flat walk's up->down reuse distance spans many tiles.
  const long nz0 = std::max(3L * threads * cap_planes, 384L);
  std::vector<long> depths{nz0, 2 * nz0};
  if (full) depths.push_back(4 * nz0);

  auto solver_at = [&](long nz, int levels) {
    return Solver::make(Preset::Heat3D)
        .size(side, side, nz)
        .steps(tsteps)
        .method(Method::Ours2)
        .isa(Isa::Auto)
        .tiling(Tiling::On)
        .threads(threads)
        .levels(levels);
  };

  // Preflight: how cache-sensitive is this machine at all? Same kernel,
  // untiled, cache-resident vs LLC-exceeding working set. Near 1.0 means
  // the box is compute-bound (common on 1-2 vCPU guests) and the honest
  // A/B expectation is parity, not a win.
  const double sens = [&] {
    auto probe = [&](long n3) {
      Solver s = Solver::make(Preset::Heat3D)
                     .size(n3, n3, n3)
                     .steps(8)
                     .method(Method::Ours2)
                     .isa(Isa::Auto)
                     .tiling(Tiling::Off);
      return bench::measure(s).gflops;
    };
    const double hot = probe(64);
    const double cold = probe(
        std::min(side, static_cast<long>(std::cbrt(
                           static_cast<double>(llc) / 16.0 * 4.0))));
    return cold > 0 ? hot / cold : 1.0;
  }();

  Table t({"nz", "working_set_MB", "flat_gflops", "tree_gflops", "speedup",
           "levels", "flat_tile", "tree_tile"});
  std::cout << "Tile-tree A/B (Heat3D " << side << "x" << side << "xNZ, T = "
            << tsteps << ", " << threads << " threads, LLC = "
            << llc / (1 << 20) << " MB, cache sensitivity = "
            << Table::num(sens) << "x"
            << (sens < 1.05 ? " - compute-bound: expect parity" : "")
            << ")\n";
  std::vector<std::pair<std::string, double>> summary;
  bool mismatch = false;
  for (long nz : depths) {
    Solver flat = solver_at(nz, 1);
    Solver tree = solver_at(nz, 3);
    const RunResult rf = bench::measure(flat);
    const RunResult rt = bench::measure(tree);
    // Same seed; the tree's capped tile is a different wedge split, so
    // flank corrections may round differently — the runs must agree to
    // verification tolerance (bitwise identity across depths at *fixed*
    // geometry is asserted by the tiling fuzz tests).
    const double diff =
        max_abs_diff(*flat.workspace().grids<3>().a,
                     *tree.workspace().grids<3>().a);
    if (diff > 1e-11 * std::max(1.0, max_abs(*flat.workspace().grids<3>().a))) {
      std::cerr << "MISMATCH: tree result differs from flat by " << diff
                << " at nz = " << nz << "\n";
      mismatch = true;
    }
    const double speedup = rf.gflops > 0 ? rt.gflops / rf.gflops : 0;
    t.add_row({std::to_string(nz),
               Table::num(static_cast<double>(
                              working_set_bytes(side, side, nz)) /
                          (1 << 20)),
               Table::num(rf.gflops), Table::num(rt.gflops),
               Table::num(speedup) + "x",
               std::to_string(tree.plan().tree.depth()),
               std::to_string(flat.plan().tile.tile),
               std::to_string(tree.plan().tile.tile)});
    const std::string key = "nz" + std::to_string(nz);
    summary.emplace_back(key + ".flat.gflops", rf.gflops);
    summary.emplace_back(key + ".tree.gflops", rt.gflops);
    summary.emplace_back(key + ".speedup", speedup);
  }
  summary.emplace_back("machine.cache_sensitivity", sens);
  bench::emit(t, "fig_tiletree");
  bench::emit_bench_json("tiletree", summary);
  return mismatch ? 1 : 0;
}
