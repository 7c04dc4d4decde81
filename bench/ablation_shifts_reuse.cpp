// Ablation (paper §3.4): shifts reusing. Runs the folded 2-D kernel with
// the ring-buffer reuse of transposed counterpart columns enabled vs
// disabled (every vector set recomputed three times). Results are
// bit-identical (tested); only throughput changes.
#include <iostream>

#include "bench_util/harness.hpp"
#include "common/timing.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/stage.hpp"

int main() {
  using namespace sf;
  const bool full = bench_full();
  const int n = full ? 5000 : 1200;
  const int tsteps = full ? 200 : 40;

  Table t({"Stencil", "reuse GF/s", "no-reuse GF/s", "gain"});
  for (const auto& spec : all_presets()) {
    if (spec.dims != 2) continue;
    const int halo =
        require_kernel(Method::Ours2, 2, Isa::Avx2).required_halo(spec.p2.radius());
    double g[2];
    for (int mode = 0; mode < 2; ++mode) {
      Grid2D a(n, n, halo), b(n, n, halo);
      fill_random(a, 5);
      copy(a, b);
      Timer timer;
      if (mode == 0) {
        detail::run_ours2_2d<4>(spec.p2, a, b, tsteps);
      } else {
        detail::run_ours2_2d_noreuse<4>(spec.p2, a, b, tsteps);
      }
      do_not_optimize(a.data());
      const double fl = flops_per_step(spec, n, n, 1) * tsteps;
      g[mode] = fl / timer.seconds() / 1e9;
    }
    t.add_row({spec.name, Table::num(g[0]), Table::num(g[1]),
               Table::num(g[0] / g[1]) + "x"});
  }
  std::cout << "Shifts reuse ablation (folded m=2, AVX-2, single thread, "
            << n << "^2, T=" << tsteps << ")\n";
  bench::emit(t, "ablation_shifts_reuse");
  return 0;
}
