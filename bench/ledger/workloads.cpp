// The four ledger workloads (BENCHMARK.json). Each measures for `seconds`,
// checks its outputs, and reports the same three end-to-end metrics:
//   gflops   useful GFLOP/s of one call at its 10th-percentile duration
//            (heat3d_dram: its median; serve_mixed: completed work per
//            second of the closed-loop capacity phase);
//   p90_ms   90th-percentile latency of one operation: a run()/advance()
//            call, or for serve_mixed a request at the fixed open-loop rate,
//            timed from when it was due;
//   setup_s  median over repetitions of the library set-up calls
//            (prepare, first_touch, Server construction); generating the
//            inputs is excluded.
// Why these statistics: on a shared host, other tenants on a core's sibling
// hardware thread roughly halve a call's speed for stretches of seconds to
// minutes, so call times are bimodal and the share of slow calls changes
// from run to run. Medians and means then jump between the two modes; the
// 10th percentile sits in the fast mode and the 90th in the slow one, and
// both repeat. The median, the 99th percentile and the mean rate are kept
// as the workload.* diagnostics of the traced pass.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "grid/grid.hpp"
#include "grid/grid_utils.hpp"
#include "ledger.hpp"
#include "stencil/reference.hpp"

namespace ledger {

bool bitwise_equal(const sf::FieldView1D& a, const sf::FieldView1D& b) {
  return std::memcmp(a.data(), b.data(), sizeof(double) * a.n()) == 0;
}

bool bitwise_equal(const sf::FieldView2D& a, const sf::FieldView2D& b) {
  for (int y = 0; y < a.ny(); ++y)
    if (std::memcmp(a.row(y), b.row(y), sizeof(double) * a.nx()) != 0)
      return false;
  return true;
}

bool bitwise_equal(const sf::FieldView3D& a, const sf::FieldView3D& b) {
  for (int z = 0; z < a.nz(); ++z)
    for (int y = 0; y < a.ny(); ++y)
      if (std::memcmp(a.row(z, y), b.row(z, y), sizeof(double) * a.nx()) != 0)
        return false;
  return true;
}

namespace {

using namespace sf;

template <class View>
bool within_tolerance(const View& got, const View& ref) {
  return max_abs_diff(got, ref) <= kTolerance * std::max(1.0, max_abs(ref));
}

// Moves the calling thread to the next CPU it may run on. The one-thread
// workloads do this every round, so contention on any one core is averaged
// over the run instead of deciding it. Restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof saved_, &saved_);
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof saved_, &saved_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t s;
    CPU_ZERO(&s);
    CPU_SET(cpus_[next_++ % cpus_.size()], &s);
    sched_setaffinity(0, sizeof s, &s);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Percentile of the call time gflops is taken at: the fast mode for
// streams of short calls; the median for heat3d_dram, whose few calls last
// seconds each and so already average over the contention.
constexpr double kShortCallPct = 10, kLongCallPct = 50;

// The end-to-end metrics plus the workload.* diagnostics (see the top of
// this file). `flops_per_op` is the useful work of one timed operation.
void add_end_to_end(Outcome& out, const char* what, double flops_per_op,
                    double gflops_pct, const std::vector<double>& lat_s,
                    const std::vector<double>& setups) {
  double busy = 0;
  for (double s : lat_s) busy += s;
  std::printf("  %s: %zu timed operations in %.3f s, %zu set-ups\n", what,
              lat_s.size(), busy, setups.size());
  out.add("gflops", "GFLOP/s",
          flops_per_op / percentile(lat_s, gflops_pct) / 1e9);
  out.add("p90_ms", "ms", percentile(lat_s, 90) * 1e3);
  out.add("setup_s", "s", median(setups));
  out.add("workload.p50_ms", "ms", percentile(lat_s, 50) * 1e3);
  out.add("workload.p99_ms", "ms", percentile(lat_s, 99) * 1e3);
  out.add("workload.mean_gflops", "GFLOP/s",
          flops_per_op * static_cast<double>(lat_s.size()) / busy / 1e9);
}

// ---------------------------------------------------------------------------
// heat3d_dram: Heat3D 384 x 384 x 576 (two grids of 0.68 GB), all workers,
// default method and tiling, run(a, b, 16) back to back.
// ---------------------------------------------------------------------------

constexpr int kH3X = 384, kH3Y = 384, kH3Z = 576, kH3Steps = 16;
constexpr int kWin = 16;  // edge of a light-cone check window

// One light-cone check: a 16^3 window of the result and a snapshot of the
// input box it depends on (the window widened by steps * radius, clipped to
// the domain, plus a radius-wide ring that holds the Dirichlet halo where
// the box touches the domain edge).
struct ConeCheck {
  std::array<int, 3> w;       // window corner (z, y, x)
  std::array<int, 3> e0, e1;  // dependence box [e0, e1)
  std::unique_ptr<Grid3D> in;
};

std::vector<ConeCheck> pick_windows(const PreparedStencil& ps,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::array<int, 3> n{kH3Z, kH3Y, kH3X};
  const auto rnd = [&](int d) {
    return static_cast<int>(rng() % static_cast<unsigned>(n[d] - kWin + 1));
  };
  std::vector<std::array<int, 3>> ws;
  // Four windows touching the Dirichlet halo.
  ws.push_back({0, rnd(1), rnd(2)});
  ws.push_back({kH3Z - kWin, rnd(1), rnd(2)});
  ws.push_back({rnd(0), 0, kH3X - kWin});
  ws.push_back({kH3Z - kWin, kH3Y - kWin, 0});
  // Four straddling seams between wedge tiles (tiles cut z).
  const int tile = ps.plan().tiled ? ps.plan().tile.tile : kH3Z / 4;
  std::vector<int> seams;
  for (int s = tile; s < kH3Z; s += tile) seams.push_back(s);
  if (seams.empty()) seams.push_back(kH3Z / 2);
  for (int i = 0; i < 4; ++i) {
    const int seam = seams[rng() % seams.size()];
    ws.push_back({std::clamp(seam - kWin / 2, 0, kH3Z - kWin), rnd(1),
                  rnd(2)});
  }
  std::vector<ConeCheck> out;
  for (const auto& w : ws) {
    ConeCheck c;
    c.w = w;
    for (int d = 0; d < 3; ++d) {
      c.e0[d] = std::max(0, w[d] - kH3Steps);
      c.e1[d] = std::min(n[d], w[d] + kWin + kH3Steps);
    }
    out.push_back(std::move(c));
  }
  return out;
}

void snapshot_windows(std::vector<ConeCheck>& cs, const FieldView3D& a) {
  for (ConeCheck& c : cs) {
    c.in = std::make_unique<Grid3D>(c.e1[0] - c.e0[0], c.e1[1] - c.e0[1],
                                    c.e1[2] - c.e0[2], 1);
    const FieldView3D v = c.in->view();
    for (int z = -1; z < v.nz() + 1; ++z)
      for (int y = -1; y < v.ny() + 1; ++y)
        for (int x = -1; x < v.nx() + 1; ++x)
          v.at(z, y, x) = a.at(c.e0[0] + z, c.e0[1] + y, c.e0[2] + x);
  }
}

// Steps each snapshot with the naive reference, shrinking the updated box by
// one radius (Heat3D's is 1) per step on every side that is not the domain
// edge (those cells depend on values outside the snapshot), and compares the
// window.
void check_windows(Outcome& out, const std::vector<ConeCheck>& cs,
                   const Pattern3D& p, const FieldView3D& a) {
  const std::array<int, 3> n{kH3Z, kH3Y, kH3X};
  for (const ConeCheck& c : cs) {
    const FieldView3D snap = c.in->view();
    Grid3D other(snap.nz(), snap.ny(), snap.nx(), 1);
    copy(snap, other.view());
    FieldView3D in = snap, res = other.view();
    const std::array<int, 3> ext{snap.nz(), snap.ny(), snap.nx()};
    for (int t = 1; t <= kH3Steps; ++t) {
      std::array<int, 3> lo{}, hi{};
      for (int d = 0; d < 3; ++d) {
        lo[d] = c.e0[d] == 0 ? 0 : t;
        hi[d] = c.e1[d] == n[d] ? ext[d] : ext[d] - t;
      }
      apply_pattern(p, in, res, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]);
      std::swap(in, res);
    }
    double err = 0, scale = 1;
    for (int z = c.w[0]; z < c.w[0] + kWin; ++z)
      for (int y = c.w[1]; y < c.w[1] + kWin; ++y)
        for (int x = c.w[2]; x < c.w[2] + kWin; ++x) {
          const double ref = in.at(z - c.e0[0], y - c.e0[1], x - c.e0[2]);
          err = std::max(err, std::fabs(a.at(z, y, x) - ref));
          scale = std::max(scale, std::fabs(ref));
        }
    char what[128];
    std::snprintf(what, sizeof what,
                  "heat3d window at (%d,%d,%d): error %.3g vs reference",
                  c.w[0], c.w[1], c.w[2], err);
    out.check(err <= kTolerance * scale, what);
  }
}

Outcome heat3d_dram(const Options& o, double seconds) {
  Outcome out;
  const StencilSpec& spec = preset(Preset::Heat3D);
  ExecOptions eo;
  eo.threads = o.threads;
  eo.tsteps = kH3Steps;
  PreparedStencil ps;
  std::unique_ptr<Grid3D> a, b;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    a.reset();
    b.reset();
    auto t0 = Clock::now();
    {
      Span s("core", "prepare");
      ps = Engine::instance().prepare(spec, {kH3X, kH3Y, kH3Z}, eo);
    }
    double t = since(t0);
    a = std::make_unique<Grid3D>(kH3Z, kH3Y, kH3X, ps.halo(), false);
    b = std::make_unique<Grid3D>(kH3Z, kH3Y, kH3X, ps.halo(), false);
    t0 = Clock::now();
    {
      Span s("core", "first_touch");
      ps.first_touch(a->view());
      ps.first_touch(b->view());
    }
    setups.push_back(t + since(t0));
  }
  fill_random(a->view(), mix_seed(o.seed, 1));
  std::printf("  heat3d: kernel %s, %s, tile %d, time block %d, threads %d\n",
              ps.kernel().name, ps.plan().tiled ? "tiled" : "untiled",
              ps.plan().tile.tile, ps.plan().tile.time_block,
              ps.plan().tile.threads);

  const auto call = [&] {
    Span s("core", "run");
    ++out.attempted;
    ps.run(a->view(), b->view(), kH3Steps);
  };
  call();  // warm-up
  std::vector<ConeCheck> checks = pick_windows(ps, mix_seed(o.seed, 2));
  snapshot_windows(checks, a->view());
  std::vector<double> lat;
  double busy = 0;
  while (lat.size() < 3 || busy < seconds) {
    const auto t0 = Clock::now();
    call();
    lat.push_back(since(t0));
    busy += lat.back();
    if (lat.size() == 1) check_windows(out, checks, spec.p3, a->view());
  }
  add_end_to_end(out, "heat3d",
                 flops_per_step(spec, kH3X, kH3Y, kH3Z) * kH3Steps,
                 kLongCallPct, lat, setups);
  return out;
}

// Set-up repetitions of the small workloads: their set-up takes
// milliseconds, so more repetitions steady its median.
constexpr int kSetupReps = 9;

// Moves `v`'s elements to the end of `keep` and empties `v`. Set-up
// repetitions retire their buffers this way instead of freeing them until
// set-up ends, so every repetition first-touches fresh pages rather than
// recycled heap memory (which made the median swing by 30 % between runs
// on the baseline host).
template <class T>
void retire(std::vector<T>& v, std::vector<T>& keep) {
  for (T& x : v) keep.push_back(std::move(x));
  v.clear();
}

// Calls `call(i)` round-robin over `sets` allocation sets, each round on
// the next CPU, until `seconds` of call time have accumulated. Only whole
// rounds run, so every set sees the same calls and ends bitwise equal.
template <class Call>
std::vector<double> timed_rounds(double seconds, int sets, Call&& call) {
  CpuRotation rotation;
  std::vector<double> lat;
  double busy = 0;
  while (busy < seconds) {
    rotation.next();
    for (int i = 0; i < sets; ++i) {
      const auto t0 = Clock::now();
      call(i);
      lat.push_back(since(t0));
      busy += lat.back();
    }
  }
  return lat;
}

// ---------------------------------------------------------------------------
// box2d_incache: 2D9P 256 x 256, one thread, Method::Auto, untiled,
// run(a, b, 50) round-robin over 8 separately allocated grid pairs holding
// identical data.
// ---------------------------------------------------------------------------

constexpr int kB2N = 256, kB2Sets = 8, kB2Steps = 50;

Outcome box2d_incache(const Options& o, double seconds) {
  Outcome out;
  const StencilSpec& spec = preset(Preset::Box2D9);
  ExecOptions eo;
  eo.threads = 1;
  eo.tiling = Tiling::Off;
  eo.tsteps = kB2Steps;
  PreparedStencil ps;
  std::vector<std::unique_ptr<Grid2D>> as, bs, retired;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    retire(as, retired);
    retire(bs, retired);
    auto t0 = Clock::now();
    {
      Span s("core", "prepare");
      ps = Engine::instance().prepare(spec, {kB2N, kB2N}, eo);
    }
    double t = since(t0);
    for (int i = 0; i < kB2Sets; ++i) {
      as.push_back(std::make_unique<Grid2D>(kB2N, kB2N, ps.halo(), false));
      bs.push_back(std::make_unique<Grid2D>(kB2N, kB2N, ps.halo(), false));
    }
    t0 = Clock::now();
    {
      Span s("core", "first_touch");
      for (int i = 0; i < kB2Sets; ++i) {
        ps.first_touch(as[i]->view());
        ps.first_touch(bs[i]->view());
      }
    }
    setups.push_back(t + since(t0));
  }
  retired.clear();
  fill_random(as[0]->view(), mix_seed(o.seed, 3));
  for (int i = 1; i < kB2Sets; ++i) copy(as[0]->view(), as[i]->view());
  Grid2D ra(kB2N, kB2N, ps.halo()), rb(kB2N, kB2N, ps.halo());
  copy(as[0]->view(), ra.view());
  copy(as[0]->view(), rb.view());  // the reference reads b's halo too
  run_reference(spec.p2, ra.view(), rb.view(), kB2Steps);
  std::printf("  box2d: kernel %s, %s\n", ps.kernel().name,
              ps.plan().tiled ? "tiled" : "untiled");

  const auto call = [&](int i) {
    Span s("core", "run");
    ++out.attempted;
    ps.run(as[i]->view(), bs[i]->view(), kB2Steps);
  };
  for (int i = 0; i < kB2Sets; ++i) {  // warm-up round
    call(i);
    if (i == 0)
      out.check(within_tolerance(as[0]->view(), ra.view()),
                "box2d set 0 differs from the reference");
  }
  const std::vector<double> lat = timed_rounds(seconds, kB2Sets, call);
  for (int i = 1; i < kB2Sets; ++i)
    out.check(bitwise_equal(as[i]->view(), as[0]->view()),
              "box2d set " + std::to_string(i) + " differs from set 0");
  add_end_to_end(out, "box2d", flops_per_step(spec, kB2N, kB2N, 1) * kB2Steps,
                 kShortCallPct, lat, setups);
  return out;
}

// ---------------------------------------------------------------------------
// apop1d_stream: APOP n = 32768, one thread, untiled, advance(a, b, k, 4)
// back to back on natural views, round-robin over 8 allocation sets.
// ---------------------------------------------------------------------------

constexpr int kApN = 32768, kApSets = 8, kApSteps = 4, kApPrefixCalls = 16;

struct ApopSet {
  std::unique_ptr<Grid1D> a, b, k;
};

ApopSet apop_copy(const ApopSet& s, int halo) {
  ApopSet c{std::make_unique<Grid1D>(kApN, halo),
            std::make_unique<Grid1D>(kApN, halo),
            std::make_unique<Grid1D>(kApN, halo)};
  copy(s.a->view(), c.a->view());
  copy(s.a->view(), c.b->view());  // the reference reads b's halo too
  copy(s.k->view(), c.k->view());
  return c;
}

Outcome apop1d_stream(const Options& o, double seconds) {
  Outcome out;
  const StencilSpec& spec = preset(Preset::Apop);
  ExecOptions eo;
  eo.threads = 1;
  eo.tiling = Tiling::Off;
  eo.tsteps = kApSteps;
  PreparedStencil ps;
  std::vector<ApopSet> sets, retired;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    retire(sets, retired);
    auto t0 = Clock::now();
    {
      Span s("core", "prepare");
      ps = Engine::instance().prepare(spec, {kApN}, eo);
    }
    double t = since(t0);
    for (int i = 0; i < kApSets; ++i)
      sets.push_back({std::make_unique<Grid1D>(kApN, ps.halo(), false),
                      std::make_unique<Grid1D>(kApN, ps.halo(), false),
                      std::make_unique<Grid1D>(kApN, ps.halo(), false)});
    t0 = Clock::now();
    {
      Span s("core", "first_touch");
      for (ApopSet& st : sets) {
        ps.first_touch(st.a->view());
        ps.first_touch(st.b->view());
        ps.first_touch(st.k->view());
      }
    }
    setups.push_back(t + since(t0));
  }
  retired.clear();
  fill_random(sets[0].a->view(), mix_seed(o.seed, 4));
  fill_random(sets[0].k->view(), mix_seed(o.seed, 5));
  for (int i = 1; i < kApSets; ++i) {
    copy(sets[0].a->view(), sets[i].a->view());
    copy(sets[0].k->view(), sets[i].k->view());
  }
  std::printf("  apop: kernel %s, preferred layout %s\n", ps.kernel().name,
              layout_name(ps.preferred_layout()));

  // 64-step prefix against the reference, and resident views bitwise equal
  // to natural ones over the same calls.
  const int h = ps.halo();
  ApopSet nat = apop_copy(sets[0], h);
  for (int c = 0; c < kApPrefixCalls; ++c) {
    Span s("core", "advance");
    ps.advance(nat.a->view(), nat.b->view(), nat.k->view(), kApSteps);
  }
  ApopSet ref = apop_copy(sets[0], h);
  const FieldView1D rk = ref.k->view();
  run_reference(spec.p1, ref.a->view(), ref.b->view(),
                kApPrefixCalls * kApSteps, &spec.src1, &rk);
  out.check(within_tolerance(nat.a->view(), ref.a->view()),
            "apop 64-step prefix differs from the reference");
  if (ps.preferred_layout() != Layout::Natural) {
    ExecOptions re = eo;
    re.layout = ps.preferred_layout();
    const PreparedStencil psr = Engine::instance().prepare(spec, {kApN}, re);
    ApopSet res = apop_copy(sets[0], h);
    FieldView1D va, vb, vk;
    {
      Span s("layout", "to_resident_layout");
      va = to_resident_layout(psr, res.a->view());
      vb = to_resident_layout(psr, res.b->view());
      vk = to_resident_layout(psr, res.k->view());
    }
    for (int c = 0; c < kApPrefixCalls; ++c) {
      Span s("core", "advance");
      psr.advance(va, vb, vk, kApSteps);
    }
    {
      Span s("layout", "to_natural_layout");
      to_natural_layout(psr, va);
    }
    out.check(bitwise_equal(res.a->view(), nat.a->view()),
              "apop resident views differ from natural views");
  }

  const auto call = [&](int i) {
    Span s("core", "advance");
    ++out.attempted;
    ps.advance(sets[i].a->view(), sets[i].b->view(), sets[i].k->view(),
               kApSteps);
  };
  for (int i = 0; i < kApSets; ++i) call(i);  // warm-up round
  const std::vector<double> lat = timed_rounds(seconds, kApSets, call);
  for (int i = 1; i < kApSets; ++i)
    out.check(bitwise_equal(sets[i].a->view(), sets[0].a->view()),
              "apop set " + std::to_string(i) + " differs from set 0");
  add_end_to_end(out, "apop", flops_per_step(spec, kApN, 1, 1) * kApSteps,
                 kShortCallPct, lat, setups);
  return out;
}

// ---------------------------------------------------------------------------
// serve_mixed: open-loop Poisson arrivals at a fixed rate, then a
// closed-loop capacity phase, through sf::Server with default options.
// ---------------------------------------------------------------------------

constexpr int kServeOutstanding = 64;  // closed-loop capacity phase
constexpr int kServeSetupReps = 5;     // each keeps a server and 48 buffers

Outcome serve_mixed(const Options& o, double seconds) {
  Outcome out;
  std::vector<std::unique_ptr<ServeLoad>> loads, retired;
  std::vector<double> setups;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    retire(loads, retired);
    loads.push_back(std::make_unique<ServeLoad>(o, out));
    setups.push_back(loads.back()->setup_seconds());
  }
  retired.clear();
  ServeLoad* load = loads.back().get();
  load->open_loop(kServeRate, 1.0);  // warm-up
  const LoadPhase low = load->open_loop(kServeRate, 0.6 * seconds);
  const LoadPhase cap = load->closed_loop(kServeOutstanding, 0.4 * seconds);
  load->verify();
  std::printf("  serve: open loop %zu requests at %.0f/s, generator late by "
              "at most %.3f ms; capacity %.0f req/s, %.2f requests per "
              "batch\n",
              low.latency_s.size(), kServeRate, low.late_max_s * 1e3,
              static_cast<double>(cap.completed) / cap.window_s,
              cap.batches ? static_cast<double>(cap.completed) /
                                static_cast<double>(cap.batches)
                          : 0.0);
  const double capacity = cap.flops / cap.window_s / 1e9;
  out.add("gflops", "GFLOP/s", capacity);
  out.add("p90_ms", "ms", percentile(low.latency_s, 90) * 1e3);
  out.add("setup_s", "s", median(setups));
  out.add("workload.p50_ms", "ms", percentile(low.latency_s, 50) * 1e3);
  out.add("workload.p99_ms", "ms", percentile(low.latency_s, 99) * 1e3);
  out.add("workload.mean_gflops", "GFLOP/s", capacity);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "heat3d_dram", "box2d_incache", "apop1d_stream", "serve_mixed"};
  return names;
}

Outcome run_workload(const Options& o, double seconds) {
  if (o.workload == "heat3d_dram") return heat3d_dram(o, seconds);
  if (o.workload == "box2d_incache") return box2d_incache(o, seconds);
  if (o.workload == "apop1d_stream") return apop1d_stream(o, seconds);
  if (o.workload == "serve_mixed") return serve_mixed(o, seconds);
  throw std::invalid_argument("unknown workload " + o.workload);
}

}  // namespace ledger
