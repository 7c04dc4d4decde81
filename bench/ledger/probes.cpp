// The per-layer probe suite of the traced pass, and the host roofline
// probes. Each probe times one public entry point of one layer from outside,
// on fixed inputs drawn from the seed, and names (in README.md) the
// end-to-end metric and workload it should move.
#include <cpuid.h>
#include <immintrin.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cpu.hpp"
#include "common/timing.hpp"
#include "core/engine.hpp"
#include "fold/cost_model.hpp"
#include "grid/grid.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "ledger.hpp"
#include "runtime/topology.hpp"
#include "runtime/worker_pool.hpp"
#include "stencil/reference.hpp"
#include "tiling/split_tiling.hpp"

namespace ledger {

using namespace sf;

namespace {

// Median seconds per call of `f`: each of `reps` repetitions calls it until
// at least `rep_s` seconds have passed.
template <class F>
double per_call(F&& f, double rep_s = 0.05, int reps = 5) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    long n = 0;
    const auto t0 = Clock::now();
    do {
      f();
      ++n;
    } while (since(t0) < rep_s);
    s.push_back(since(t0) / static_cast<double>(n));
  }
  return median(s);
}

// Individually timed calls of `f`, in seconds.
template <class F>
std::vector<double> samples(F&& f, int n) {
  std::vector<double> s;
  s.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    f();
    s.push_back(since(t0));
  }
  return s;
}

const char* isa_label() {
  return cpu_has_avx512() ? "avx512" : cpu_has_avx2() ? "avx2" : "scalar";
}

// Per-core L2 size from CPUID leaf 4 (deterministic cache parameters);
// 1 MiB when the leaf is unavailable.
long l2_bytes() {
  for (unsigned i = 0; i < 16; ++i) {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid_count(4, i, &a, &b, &c, &d) || (a & 0x1f) == 0) break;
    if (((a >> 5) & 7) == 2)
      return static_cast<long>(((b >> 22) + 1) * (((b >> 12) & 0x3ff) + 1) *
                               ((b & 0xfff) + 1) * (c + 1));
  }
  return 1L << 20;
}

std::string cpu_model() {
  unsigned r[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &r[4 * i], &r[4 * i + 1], &r[4 * i + 2],
                &r[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(r), sizeof r);
  s = s.c_str();
  s.erase(0, s.find_first_not_of(' '));
  std::string clean;
  for (char ch : s)
    if (ch != '"' && ch != '\\') clean += ch;
  return clean;
}

// ---------------------------------------------------------------------------
// Host: STREAM-style triad bandwidth and independent-FMA-chain peak.
// ---------------------------------------------------------------------------

struct HostPeaks {
  double triad_l2_1t = 0, triad_dram_1t = 0, triad_dram_nt = 0;
  double fma_1t = 0, fma_nt = 0;  // widest ISA, GFLOP/s
};

// a[i] = b[i] + s * c[i] over arrays of `n` doubles, on 1 thread and then
// split over the shared pool of `threads` workers (skipped when 1); GB/s
// counting 24 bytes per element, as STREAM does.
std::pair<double, double> triad_gbs(std::size_t n, int threads, double rep_s,
                                    int reps) {
  AlignedBuffer a(n, false), b(n, false), c(n, false);
  std::shared_ptr<WorkerPool> pool =
      threads > 1 ? shared_pool(threads, Affinity::None) : nullptr;
  const auto over = [&](bool parallel, auto&& body) {
    if (!parallel || !pool) return body(std::size_t{0}, n);
    pool->run([&](int w) {
      const std::size_t chunk = (n + pool->threads() - 1) / pool->threads();
      const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(w));
      body(lo, std::min(n, lo + chunk));
    });
  };
  over(true, [&](std::size_t lo, std::size_t hi) {  // parallel first touch
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0;
      b[i] = 1;
      c[i] = 2;
    }
  });
  double* pa = a.data();
  const double* pb = b.data();
  const double* pc = c.data();
  const auto rate = [&](bool parallel) {
    const double t = per_call(
        [&] {
          over(parallel, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 3.0 * pc[i];
          });
          do_not_optimize(pa);
        },
        rep_s, reps);
    return 24.0 * static_cast<double>(n) / t / 1e9;
  };
  const double one = rate(false);
  return {one, pool ? rate(true) : one};
}

// Independent FMA chains: more chains than FMA latency x ports, so the
// loop is bound by FMA throughput. Each returns the flops it performed and
// stores its accumulators' sum in `sink` so the work cannot be elided.
constexpr long kFmaIters = 1 << 22;

__attribute__((target("avx2,fma"))) double fma_chains_avx2(double* sink) {
  constexpr int kChains = 12;  // leaves 4 of the 16 ymm registers free
  __m256d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm256_set1_pd(1.0 + k);
  const __m256d m = _mm256_set1_pd(0.999999), c = _mm256_set1_pd(1e-6);
  for (long i = 0; i < kFmaIters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = _mm256_fmadd_pd(acc[k], m, c);
  __m256d s = acc[0];
  for (int k = 1; k < kChains; ++k) s = _mm256_add_pd(s, acc[k]);
  double lanes[4];
  _mm256_storeu_pd(lanes, s);
  *sink = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  return static_cast<double>(kFmaIters) * kChains * 4 * 2;
}

__attribute__((target("avx512f"))) double fma_chains_avx512(double* sink) {
  constexpr int kChains = 16;
  __m512d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm512_set1_pd(1.0 + k);
  const __m512d m = _mm512_set1_pd(0.999999), c = _mm512_set1_pd(1e-6);
  for (long i = 0; i < kFmaIters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = _mm512_fmadd_pd(acc[k], m, c);
  __m512d s = acc[0];
  for (int k = 1; k < kChains; ++k) s = _mm512_add_pd(s, acc[k]);
  *sink = _mm512_reduce_add_pd(s);
  return static_cast<double>(kFmaIters) * kChains * 8 * 2;
}

// GFLOP/s of independent FMA chains at the widest ISA, on 1 thread or on
// every worker of the shared pool at once.
double fma_gflops(int threads) {
  const auto chains = [](double* sink) {
    return cpu_has_avx512() ? fma_chains_avx512(sink)
                            : fma_chains_avx2(sink);
  };
  std::shared_ptr<WorkerPool> pool =
      threads > 1 ? shared_pool(threads, Affinity::None) : nullptr;
  const std::size_t n = static_cast<std::size_t>(threads);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> flops(n, 0), sink(n, 0);
    const auto t0 = Clock::now();
    if (pool)
      pool->run([&](int w) {
        const std::size_t i = static_cast<std::size_t>(w);
        flops[i] = chains(&sink[i]);
      });
    else
      flops[0] = chains(&sink[0]);
    const double t = since(t0);
    do_not_optimize(sink.data());
    double total = 0;
    for (double f : flops) total += f;
    rates.push_back(total / t / 1e9);
  }
  return median(rates);
}

HostPeaks probe_host(const Options& o, Outcome& out) {
  Span s("host", "roofline_probes");
  HostPeaks h;
  // L2: three arrays filling half the per-core L2.
  const std::size_t l2n = static_cast<std::size_t>(l2_bytes()) / 2 / 3 / 8;
  h.triad_l2_1t = triad_gbs(l2n, 1, 0.05, 5).first;
  // DRAM: each array at least four times the last-level cache.
  const std::size_t dn = static_cast<std::size_t>(llc_bytes()) * 4 / 8;
  std::tie(h.triad_dram_1t, h.triad_dram_nt) =
      triad_gbs(dn, o.threads, 0.2, 3);
  h.fma_1t = fma_gflops(1);
  h.fma_nt = fma_gflops(o.threads);
  std::printf("  host: triad arrays %zu B (L2) and %zu B (DRAM) each\n",
              l2n * 8, dn * 8);
  out.add("host.triad_gbs.l2_1t", "GB/s", h.triad_l2_1t);
  out.add("host.triad_gbs.dram_1t", "GB/s", h.triad_dram_1t);
  out.add("host.triad_gbs.dram_nt", "GB/s", h.triad_dram_nt);
  out.add("host.fma_gflops.1t", "GFLOP/s", h.fma_1t);
  out.add("host.fma_gflops.nt", "GFLOP/s", h.fma_nt);
  return h;
}

// ---------------------------------------------------------------------------
// fold: exact collect counts of the cost model.
// ---------------------------------------------------------------------------

void probe_fold(Outcome& out) {
  Span s("fold", "profitability");
  const Profitability box = profitability(preset(Preset::Box2D9).p2, 2);
  const Profitability heat = profitability(preset(Preset::Heat3D).p3, 2);
  out.add("fold.box2d.collect_vec", "count", static_cast<double>(box.folded_vec));
  out.add("fold.box2d.profitability_vec", "ratio", box.index_vec());
  out.add("fold.heat3d.collect_vec", "count", static_cast<double>(heat.folded_vec));
}

// ---------------------------------------------------------------------------
// kernels: registry executors called directly, untiled, one thread.
// ---------------------------------------------------------------------------

const Method kMethods[] = {Method::MultipleLoads, Method::DataReorg,
                           Method::DLT, Method::Ours, Method::Ours2};

int max_halo(int dims, int radius) {
  int h = 1;
  for (Method m : kMethods)
    if (const KernelInfo* k = find_kernel(m, dims))
      h = std::max(h, k->required_halo(radius));
  return h;
}

constexpr int kBoxN = 256, kBoxSteps = 50;
constexpr int kApN = 32768, kApSteps = 4;

// Times one kernel on `a`/`b` and checks a fresh run against `ref`.
template <class Grid, class Run>
double kernel_gflops(Outcome& out, const std::string& what, double flops,
                     Grid& a, Grid& b, const Grid& init, const Grid& ref,
                     Run&& run) {
  copy(init.view(), a.view());
  copy(init.view(), b.view());
  {
    Span s("kernels", "run");
    run(a, b);
  }
  out.check(max_abs_diff(a.view(), ref.view()) <=
                kTolerance * std::max(1.0, max_abs(ref.view())),
            what + " differs from the reference");
  double t;
  {
    Span s("kernels", "run");
    t = per_call([&] { run(a, b); });
  }
  return flops / t / 1e9;
}

void probe_kernels(const Options& o, const HostPeaks& h, Outcome& out) {
  // 2D9P 256^2, 50 steps per call.
  const StencilSpec& box = preset(Preset::Box2D9);
  const int hb = max_halo(2, box.p2.radius());
  Grid2D init(kBoxN, kBoxN, hb), a(kBoxN, kBoxN, hb), b(kBoxN, kBoxN, hb),
      ref(kBoxN, kBoxN, hb), rs(kBoxN, kBoxN, hb);
  fill_random(init.view(), mix_seed(o.seed, 20));
  copy(init.view(), ref.view());
  copy(init.view(), rs.view());
  run_reference(box.p2, ref.view(), rs.view(), kBoxSteps);
  const double box_flops = flops_per_step(box, kBoxN, kBoxN, 1) * kBoxSteps;
  double box_g[5] = {};
  for (int i = 0; i < 5; ++i) {
    const KernelInfo& k = require_kernel(kMethods[i], 2);
    box_g[i] = kernel_gflops(out, std::string("box2d ") + k.name, box_flops,
                             a, b, init, ref, [&](Grid2D& x, Grid2D& y) {
                               k.run2(box.p2, x.view(), y.view(), kBoxSteps);
                             });
    out.add(std::string("kernels.box2d.") + k.name + ".gflops", "GFLOP/s",
            box_g[i]);
  }
  out.add("kernels.box2d.ours2_over_mloads", "ratio", box_g[4] / box_g[0]);

  // The Auto kernel against its roofline: folded kernels move 16 bytes per
  // point per sweep and sweep once per fold_depth steps (computed bytes).
  const KernelInfo& auto_k = require_kernel(auto_method(box, Isa::Auto), 2);
  double auto_g = 0;
  for (int i = 0; i < 5; ++i)
    if (kMethods[i] == auto_k.method) auto_g = box_g[i];
  const double intensity = static_cast<double>(box.p2.flops_per_point()) /
                           (16.0 / auto_k.fold_depth);
  out.add("kernels.box2d.roofline_pct", "%",
          100.0 * auto_g / std::min(h.fma_1t, intensity * h.triad_l2_1t));

  // The same Auto kernel over 8 separate allocations of identical data.
  std::vector<double> per_set;
  for (int set = 0; set < 8; ++set) {
    Grid2D sa(kBoxN, kBoxN, hb), sb(kBoxN, kBoxN, hb);
    per_set.push_back(kernel_gflops(
        out, "box2d allocation set", box_flops, sa, sb, init, ref,
        [&](Grid2D& x, Grid2D& y) {
          auto_k.run2(box.p2, x.view(), y.view(), kBoxSteps);
        }));
  }
  out.add("kernels.alloc_spread", "ratio",
          *std::max_element(per_set.begin(), per_set.end()) /
              *std::min_element(per_set.begin(), per_set.end()));

  // APOP n = 32768, 4 steps per call.
  const StencilSpec& ap = preset(Preset::Apop);
  const int ha = max_halo(1, std::max(ap.p1.radius(), ap.src1.radius()));
  Grid1D ai(kApN, ha), aa(kApN, ha), ab(kApN, ha), ak(kApN, ha),
      aref(kApN, ha), ars(kApN, ha);
  fill_random(ai.view(), mix_seed(o.seed, 21));
  fill_random(ak.view(), mix_seed(o.seed, 22));
  copy(ai.view(), aref.view());
  copy(ai.view(), ars.view());
  const FieldView1D kv = ak.view();
  run_reference(ap.p1, aref.view(), ars.view(), kApSteps, &ap.src1, &kv);
  const double ap_flops = flops_per_step(ap, kApN, 1, 1) * kApSteps;
  double ap_g[5] = {};
  for (int i = 0; i < 5; ++i) {
    const KernelInfo& k = require_kernel(kMethods[i], 1);
    ap_g[i] = kernel_gflops(out, std::string("apop ") + k.name, ap_flops, aa,
                            ab, ai, aref, [&](Grid1D& x, Grid1D& y) {
                              k.run1(ap.p1, x.view(), y.view(), &ap.src1, &kv,
                                     kApSteps);
                            });
    out.add(std::string("kernels.apop.") + k.name + ".gflops", "GFLOP/s",
            ap_g[i]);
  }
  out.add("kernels.apop.ours2_over_ours", "ratio", ap_g[4] / ap_g[3]);

  // Heat3D ours-2step on a cache-resident 64^3 grid, 16 steps per call.
  const StencilSpec& heat = preset(Preset::Heat3D);
  const KernelInfo& k3 = require_kernel(Method::Ours2, 3);
  const int h3 = k3.required_halo(heat.p3.radius());
  Grid3D hi(64, 64, 64, h3), ha3(64, 64, 64, h3), hb3(64, 64, 64, h3),
      href(64, 64, 64, h3), hrs(64, 64, 64, h3);
  fill_random(hi.view(), mix_seed(o.seed, 23));
  copy(hi.view(), href.view());
  copy(hi.view(), hrs.view());
  run_reference(heat.p3, href.view(), hrs.view(), 16);
  out.add("kernels.heat3d.ours-2step.gflops", "GFLOP/s",
          kernel_gflops(out, "heat3d ours-2step",
                        flops_per_step(heat, 64, 64, 64) * 16, ha3, hb3, hi,
                        href, [&](Grid3D& x, Grid3D& y) {
                          k3.run3(heat.p3, x.view(), y.view(), 16);
                        }));
}

// ---------------------------------------------------------------------------
// layout: the resident-layout transforms and their per-call share.
// ---------------------------------------------------------------------------

void probe_layout(const Options& o, Outcome& out) {
  const StencilSpec& ap = preset(Preset::Apop);
  ExecOptions eo;
  eo.threads = 1;
  eo.tiling = Tiling::Off;
  eo.tsteps = kApSteps;
  const PreparedStencil nat = Engine::instance().prepare(ap, {kApN}, eo);
  const int h = nat.halo();
  Grid1D a(kApN, h), b(kApN, h), k(kApN, h);
  fill_random(a.view(), mix_seed(o.seed, 30));
  fill_random(k.view(), mix_seed(o.seed, 31));

  double gbs = 0, share = 0;
  if (nat.preferred_layout() != Layout::Natural) {
    ExecOptions re = eo;
    re.layout = nat.preferred_layout();
    re.halo_policy = HaloPolicy::Clean;
    const PreparedStencil res = Engine::instance().prepare(ap, {kApN}, re);
    {
      Span s("layout", "to_resident_layout+to_natural_layout");
      const double t = per_call([&] {
        to_natural_layout(res, to_resident_layout(res, a.view()));
      });
      gbs = 2 * 16.0 * kApN / t / 1e9;  // two passes, read + write each
    }
    double t_nat, t_res;
    {
      Span s("core", "advance natural");
      t_nat = per_call([&] { nat.advance(a.view(), b.view(), k.view(), kApSteps); });
    }
    copy(a.view(), b.view());  // Clean promises b's halo equals a's
    const FieldView1D ra = to_resident_layout(res, a.view());
    const FieldView1D rb = to_resident_layout(res, b.view());
    const FieldView1D rk = to_resident_layout(res, k.view());
    {
      Span s("core", "advance resident");
      t_res = per_call([&] { res.advance(ra, rb, rk, kApSteps); });
    }
    share = 1.0 - t_res / t_nat;
  }
  out.add("layout.apop.to_resident_gbs", "GB/s", gbs);
  out.add("layout.apop.per_call_share", "ratio", share);
}

// ---------------------------------------------------------------------------
// runtime: pool dispatch round trip and neighbour hand-off.
// ---------------------------------------------------------------------------

void probe_runtime(const Options& o, Outcome& out) {
  std::shared_ptr<WorkerPool> pool = shared_pool(o.threads, Affinity::None);
  std::vector<double> d;
  {
    Span s("runtime", "WorkerPool::run");
    d = samples([&] { pool->run([](int) {}); }, 5000);
  }
  out.add("runtime.dispatch_us.p50", "us", percentile(d, 50) * 1e6);
  out.add("runtime.dispatch_us.p99", "us", percentile(d, 99) * 1e6);

  // A token passed around the ring of workers through NeighborSync.
  constexpr long kRounds = 500;
  const int n = pool->threads();
  std::vector<double> per;
  {
    Span s("runtime", "WorkerPool::run_pipelined");
    for (int rep = 0; rep < 9; ++rep) {
      const auto t0 = Clock::now();
      pool->run_pipelined([&](int w, NeighborSync& sync) {
        for (long r = 1; r <= kRounds; ++r) {
          if (w > 0) sync.wait_for(w - 1, r);
          else if (r > 1) sync.wait_for(n - 1, r - 1);
          sync.publish(w, r);
        }
      });
      per.push_back(since(t0) / static_cast<double>(kRounds * n));
    }
  }
  out.add("runtime.handoff_us.p50", "us", median(per) * 1e6);
}

// ---------------------------------------------------------------------------
// core: prepare, per-call fixed cost, view validation.
// ---------------------------------------------------------------------------

void probe_core(const Options& o, Outcome& out) {
  Engine& eng = Engine::instance();
  const StencilSpec& heat3 = preset(Preset::Heat3D);
  ExecOptions eo;
  eo.threads = o.threads;
  std::vector<double> cold;
  {
    Span s("core", "prepare cold");
    for (long i = 0; i < 5; ++i) {  // extents no other probe prepares
      const auto t0 = Clock::now();
      eng.prepare(heat3, {72 + 8 * i, 64, 64}, eo);
      cold.push_back(since(t0));
    }
  }
  out.add("core.prepare_cold_ms", "ms", median(cold) * 1e3);
  {
    Span s("core", "prepare hit");
    out.add("core.prepare_hit_us", "us",
            per_call([&] { eng.prepare(heat3, {72, 64, 64}, eo); }) * 1e6);
  }

  const StencilSpec& heat1 = preset(Preset::Heat1D);
  ExecOptions e1;
  e1.tsteps = 2;
  const PreparedStencil p1 = eng.prepare(heat1, {64}, e1);
  Grid1D a(64, p1.halo()), b(64, p1.halo());
  fill_random(a.view(), mix_seed(o.seed, 40));
  std::vector<double> adv;
  {
    Span s("core", "advance");
    adv = samples([&] { p1.advance(a.view(), b.view(), 2); }, 20000);
  }
  out.add("core.advance_fixed_us.p50", "us", percentile(adv, 50) * 1e6);

  ExecOptions e2;
  e2.threads = 1;
  const PreparedStencil p2 = eng.prepare(preset(Preset::Box2D9), {kBoxN, kBoxN}, e2);
  Grid2D va(kBoxN, kBoxN, p2.halo()), vb(kBoxN, kBoxN, p2.halo());
  {
    Span s("core", "validate_views");
    out.add("core.validate_views_us", "us",
            per_call([&] { p2.validate_views(va.view(), vb.view()); }) * 1e6);
  }
}

// ---------------------------------------------------------------------------
// tiling: run_tile_plan on the heat3d_dram input with the prepared plan.
// ---------------------------------------------------------------------------

void probe_tiling(const Options& o, const HostPeaks& h, Outcome& out) {
  constexpr int kX = 384, kY = 384, kZ = 576, kSteps = 16, kUntiledSteps = 2;
  const StencilSpec& heat = preset(Preset::Heat3D);
  ExecOptions eo;
  eo.threads = o.threads;
  eo.tsteps = kSteps;
  const PreparedStencil ps = Engine::instance().prepare(heat, {kX, kY, kZ}, eo);
  Grid3D a(kZ, kY, kX, ps.halo(), false), b(kZ, kY, kX, ps.halo(), false);
  ps.first_touch(a.view());
  ps.first_touch(b.view());
  fill_random(a.view(), mix_seed(o.seed, 50));
  const double flops = flops_per_step(heat, kX, kY, kZ);
  const TilePlan& plan = ps.plan().tile;

  {
    Span s("core", "run");
    ps.run(a.view(), b.view(), 2);  // warm-up; syncs b's halo
  }
  // One call each: a 16-step call on this grid takes seconds.
  auto t0 = Clock::now();
  {
    Span s("tiling", "run_tile_plan");
    run_tile_plan(heat.p3, a.view(), b.view(), kSteps, plan);
  }
  const double t_tile = since(t0);
  t0 = Clock::now();
  {
    Span s("core", "run");
    ps.run(a.view(), b.view(), kSteps);
  }
  const double t_run = since(t0);
  const double tiled = flops * kSteps / t_tile / 1e9;
  double t_untiled;
  {
    Span s("kernels", "run");
    const KernelInfo& k = ps.kernel();
    t_untiled = median(samples(
        [&] { k.run3(heat.p3, a.view(), b.view(), kUntiledSteps); }, 2));
  }
  const double untiled = flops * kUntiledSteps / t_untiled / 1e9;
  // Computed bytes: per time block both buffers are loaded and stored once.
  const int tb = ps.plan().tiled ? plan.time_block : 1;
  const double bytes = 32.0 / tb;
  const double intensity = static_cast<double>(heat.p3.flops_per_point()) / bytes;
  out.add("tiling.heat3d.gflops", "GFLOP/s", tiled);
  out.add("tiling.heat3d.tiled_over_untiled", "ratio", tiled / untiled);
  out.add("tiling.heat3d.computed_bytes_per_point_step", "B", bytes);
  out.add("tiling.heat3d.roofline_pct", "%",
          100.0 * tiled / std::min(h.fma_nt, intensity * h.triad_dram_nt));
  out.add("core.run_overhead_pct", "%", 100.0 * (t_run / t_tile - 1.0));
}

// ---------------------------------------------------------------------------
// serving: submit cost, batching, and the serving layer's share of latency.
// ---------------------------------------------------------------------------

void probe_serving(const Options& o, Outcome& out) {
  ServeLoad load(o, out);
  load.open_loop(kServeRate, 0.5);  // warm-up
  const LoadPhase served = load.open_loop(kServeRate, 2.0);
  const LoadPhase direct = load.open_loop(kServeRate, 2.0, /*direct=*/true);
  const LoadPhase cap = load.closed_loop(64, 1.5);
  load.verify();
  out.add("serving.submit_us.p50", "us", percentile(served.submit_s, 50) * 1e6);
  out.add("serving.submit_us.p99", "us", percentile(served.submit_s, 99) * 1e6);
  out.add("serving.batch_mean", "requests",
          cap.batches ? static_cast<double>(cap.completed) /
                            static_cast<double>(cap.batches)
                      : 0.0);
  out.add("serving.overhead_ms.p50_low", "ms",
          (percentile(served.latency_s, 50) - percentile(direct.latency_s, 50)) *
              1e3);
  out.add("serving.gen_late_ms.max", "ms", served.late_max_s * 1e3);
}

}  // namespace

std::string host_json() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"cpu\": \"%s\", \"nproc\": %d, \"numa_nodes\": %d, "
                "\"l2_bytes\": %ld, \"llc_bytes\": %ld, \"isa\": \"%s\"}",
                cpu_model().c_str(), hardware_threads(),
                Topology::system().numa_nodes(), l2_bytes(), llc_bytes(),
                isa_label());
  return buf;
}

Outcome run_probes(const Options& o) {
  Outcome out;
  const HostPeaks h = probe_host(o, out);
  probe_fold(out);
  probe_kernels(o, h, out);
  probe_layout(o, out);
  probe_runtime(o, out);
  probe_core(o, out);
  probe_tiling(o, h, out);
  probe_serving(o, out);
  return out;
}

Outcome run_host_probes(const Options& o) {
  Outcome out;
  probe_host(o, out);
  return out;
}

}  // namespace ledger
