// One seeded equivalence check across the execution entry points, written
// once over the dimensionality D: for every preset under a seeded draw of
// extents (odd and prime sizes among them), methods, tilings, tiles wider
// than the domain and more workers than tiles, PreparedStencil::run(), a
// stream of advance() calls, advance_batch(), the Server and Solver::run()
// must leave bitwise-identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"
#include "core/solver.hpp"
#include "grid/grid_utils.hpp"
#include "serving/server.hpp"

namespace sf {
namespace {

struct Draw {
  Extents ext;
  ExecOptions opts;
  int steps = 0;
  std::uint64_t seed = 0;
};

std::string describe(const StencilSpec& spec, const Draw& d) {
  std::ostringstream os;
  os << spec.name << " " << d.ext.nx << "x" << d.ext.ny << "x" << d.ext.nz
     << " " << method_name(d.opts.method) << " tiling "
     << static_cast<int>(d.opts.tiling) << " threads " << d.opts.threads
     << " tile " << d.opts.tile << " steps " << d.steps;
  return os.str();
}

// Extents that include odd and prime sizes; an explicit tile is either
// wider than the tiled (outermost) extent or small enough that several
// workers share fewer tiles than there are workers.
Draw draw(const StencilSpec& spec, std::mt19937_64& rng) {
  auto pick = [&](auto... v) {
    const std::common_type_t<decltype(v)...> all[] = {v...};
    return all[rng() % sizeof...(v)];
  };
  Draw d;
  d.ext.nx = spec.dims == 1 ? pick(61L, 97L, 128L, 257L, 509L, 1031L)
                            : pick(13L, 31L, 40L, 64L, 67L);
  if (spec.dims >= 2) d.ext.ny = pick(7L, 11L, 24L, 37L, 64L);
  if (spec.dims == 3) d.ext.nz = pick(5L, 13L, 17L, 24L);
  const long outer = spec.dims == 1   ? d.ext.nx
                     : spec.dims == 2 ? d.ext.ny
                                      : d.ext.nz;
  d.opts.method = pick(Method::Auto, Method::Naive, Method::DLT, Method::Ours,
                       Method::Ours2);
  d.opts.tiling = pick(Tiling::On, Tiling::On, Tiling::Off, Tiling::Auto);
  d.opts.threads = pick(1, 2, 3, 4);
  switch (rng() % 3) {
    case 0: d.opts.tile = static_cast<int>(outer + 1 + rng() % 8); break;
    case 1: d.opts.tile = static_cast<int>(std::max(1L, outer / 2)); break;
    default: break;  // negotiated
  }
  d.steps = pick(2, 4, 6, 8);
  d.opts.tsteps = d.steps;
  d.seed = rng();
  return d;
}

template <int D>
std::unique_ptr<std::conditional_t<
    D == 1, Grid1D, std::conditional_t<D == 2, Grid2D, Grid3D>>>
make_grid(const Extents& e, int h) {
  const int nx = static_cast<int>(e.nx), ny = static_cast<int>(e.ny),
            nz = static_cast<int>(e.nz);
  if constexpr (D == 1)
    return std::make_unique<Grid1D>(nx, h);
  else if constexpr (D == 2)
    return std::make_unique<Grid2D>(ny, nx, h);
  else
    return std::make_unique<Grid3D>(nz, ny, nx, h);
}

// run() (or, with `stream`, advance()) on one pair.
template <int D>
void execute(const PreparedStencil& ps, const FieldView<D>& a,
             const FieldView<D>& b, const FieldView<D>* k, int steps,
             bool stream) {
  if constexpr (D == 1) {
    if (k != nullptr)
      return stream ? ps.advance(a, b, *k, steps) : ps.run(a, b, *k, steps);
  }
  stream ? ps.advance(a, b, steps) : ps.run(a, b, steps);
}

template <int D>
std::future<ServeResult> submit(Server& server, const PreparedStencil& ps,
                                const FieldView<D>& a, const FieldView<D>& b,
                                const FieldView<D>* k, int steps) {
  if constexpr (D == 1) {
    if (k != nullptr) return server.submit("eq", ps, a, b, *k, steps);
  }
  return server.submit("eq", ps, a, b, steps);
}

// The result grid of a Solver run.
template <int D>
FieldView<D> solver_result(const Workspace& ws) {
  if constexpr (D == 1)
    return ws.grids<1>().a->view();
  else if constexpr (D == 2)
    return ws.grids<2>().a->view();
  else
    return ws.grids<3>().a->view();
}

// Which corners of the tiling space a draw reached.
struct Coverage {
  int blocked = 0;       // wedge-scheduled plans
  int unblocked = 0;     // tiled plans too small to block (tile >= n)
  int idle_workers = 0;  // blocked plans with more workers than tiles
};

template <int D>
void check_entry_points(const StencilSpec& spec, const Draw& d,
                        Server& server, Coverage& cov) {
  const PreparedStencil ps = Engine::instance().prepare(spec, d.ext, d.opts);
  const int h = ps.halo();
  const ExecutionPlan& plan = ps.plan();
  if (plan.tiled && plan.blocked) {
    ++cov.blocked;
    const long outer = D == 1 ? d.ext.nx : D == 2 ? d.ext.ny : d.ext.nz;
    if (plan.tile.threads > (outer + plan.tile.tile - 1) / plan.tile.tile)
      ++cov.idle_workers;
  } else if (plan.tiled) {
    ++cov.unblocked;
  }
  // Pair 0: run(); 1: advance() stream; 2-3: advance_batch(); 4-5: Server.
  constexpr int kPairs = 6;
  std::vector<decltype(make_grid<D>(d.ext, h))> grids;
  std::vector<FieldView<D>> a, b;
  for (int i = 0; i < kPairs; ++i) {
    grids.push_back(make_grid<D>(d.ext, h));
    grids.push_back(make_grid<D>(d.ext, h));
    a.push_back(grids[2 * i]->view());
    b.push_back(grids[2 * i + 1]->view());
    fill_random(a[i], d.seed);
    copy(a[i], b[i]);
  }
  const auto k_grid = make_grid<D>(d.ext, h);
  fill_random(*k_grid, d.seed + 1);
  const FieldView<D> kv = k_grid->view();
  const FieldView<D>* k = spec.has_source ? &kv : nullptr;

  // Every call of the stream advances whole time blocks of the run's wedge
  // schedule (whole folded super-steps when unblocked): the folded
  // kernels' rounding follows the wedge geometry, so a stream only matches
  // run() bitwise when its calls do not cut a block.
  const int chunk = plan.tiled && plan.blocked
                        ? plan.tile.time_block
                        : std::max(1, ps.kernel().fold_depth);
  const int steps = (d.steps + chunk - 1) / chunk * chunk;
  execute(ps, a[0], b[0], k, steps, /*stream=*/false);
  for (int t = 0; t < steps; t += chunk)
    execute(ps, a[1], b[1], k, chunk, /*stream=*/true);
  ps.advance_batch(
      std::vector<TileBatch<D>>{{a[2], b[2], k}, {a[3], b[3], k}}, steps);
  std::vector<std::future<ServeResult>> served;
  for (int i = 4; i < kPairs; ++i)
    served.push_back(submit(server, ps, a[i], b[i], k, steps));
  server.drain();
  for (auto& f : served) {
    const ServeResult r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;
  }
  static const char* const kEntry[] = {"run",   "stream", "batch",
                                       "batch", "serve",  "serve"};
  for (int i = 1; i < kPairs; ++i)
    EXPECT_EQ(max_abs_diff(a[i], a[0]), 0.0) << kEntry[i];

  // Solver::run() plans and runs the drawn horizon on its own workspace
  // (seeded like the pairs above), so it must match run() at that horizon.
  Solver solver = Solver::make(spec)
                      .size(d.ext.nx, d.ext.ny, d.ext.nz)
                      .steps(d.steps)
                      .method(d.opts.method)
                      .tiling(d.opts.tiling)
                      .threads(d.opts.threads)
                      .tile(d.opts.tile)
                      .seed(d.seed);
  solver.run();
  EXPECT_EQ(solver.prepared().plan_key(), ps.plan_key());
  fill_random(a[0], d.seed);
  copy(a[0], b[0]);
  execute(ps, a[0], b[0], k, d.steps, /*stream=*/false);
  EXPECT_EQ(max_abs_diff(solver_result<D>(solver.workspace()), a[0]), 0.0)
      << "solver";
}

TEST(EntryPoints, SeededDrawIsBitwiseIdenticalAcrossEntryPoints) {
  std::mt19937_64 rng(20211114);
  ServerOptions so;
  so.max_batch = 8;
  Server server(so);
  Coverage cov;
  for (const StencilSpec& spec : all_presets()) {
    for (int rep = 0; rep < 4; ++rep) {
      const Draw d = draw(spec, rng);
      SCOPED_TRACE(describe(spec, d));
      switch (spec.dims) {
        case 1: check_entry_points<1>(spec, d, server, cov); break;
        case 2: check_entry_points<2>(spec, d, server, cov); break;
        default: check_entry_points<3>(spec, d, server, cov); break;
      }
    }
  }
  EXPECT_GT(cov.blocked, 0);
  EXPECT_GT(cov.unblocked, 0);
  EXPECT_GT(cov.idle_workers, 0);
}

}  // namespace
}  // namespace sf
