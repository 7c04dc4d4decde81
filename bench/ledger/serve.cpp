// Serving load generator of the ledger: the seeded three-plan request mix
// of serve_mixed, sent open loop (Poisson arrivals on a schedule, one sender
// and one collector thread) or closed loop (a fixed number in flight).
#include <sys/prctl.h>

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "grid/grid.hpp"
#include "grid/grid_utils.hpp"
#include "ledger.hpp"
#include "serving/server.hpp"

namespace ledger {

using namespace sf;

namespace {

struct KindSpec {
  Preset preset;
  Extents ext;
  int steps;
  double share;
};
constexpr KindSpec kKinds[] = {
    {Preset::Heat2D, {128, 128, 0}, 8, 0.60},
    {Preset::GB, {96, 96, 0}, 8, 0.25},
    {Preset::Heat3D, {32, 32, 32}, 4, 0.15},
};
constexpr int kNumKinds = 3;
constexpr int kTenants = 4;
constexpr int kInitialSlots = 16;  // request buffers per kind at set-up
constexpr int kSnapshotEvery = 32;
constexpr std::size_t kMaxSnapshots = 128;
// Longest a client sleeps without a completion signal: bounds how late it
// notices a rejected request (the server does not signal those) or the
// end of a phase.
constexpr auto kIdleWait = std::chrono::microseconds(1000);

// One request's ping-pong buffers (2-D or 3-D per kind).
struct Slot {
  std::unique_ptr<Grid2D> a2, b2;
  std::unique_ptr<Grid3D> a3, b3;
};

// A served request's input, kept for replay, and its served output.
struct Snapshot {
  int kind = 0;
  Slot in;   // input copy (a) and replay scratch (b)
  Slot out;  // served output (a)
  bool done = false;
};

struct Pending {
  int kind = 0;
  Slot* slot = nullptr;
  double due = 0;  // seconds since the phase start
  std::future<ServeResult> fut;
  Snapshot* snap = nullptr;
};

// Lowers this thread's timer slack (default 50 us) so the open-loop sender
// wakes when a request is due.
void fine_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

}  // namespace

struct ServeLoad::Impl {
  Impl(const Options& opt, Outcome& outcome) : o(opt), out(outcome) {
    // Default admission and batching; the completion callback only wakes
    // the client (see wait_done).
    ServerOptions so;
    so.on_complete = [this](const ServeResult&) {
      {
        std::lock_guard<std::mutex> lk(done_mu);
        ++done_count;
      }
      done_cv.notify_all();
    };
    auto t0 = Clock::now();
    {
      Span s("serving", "Server()");
      server = std::make_unique<Server>(so);
    }
    setup += since(t0);
    for (int k = 0; k < kNumKinds; ++k) {
      ExecOptions eo;
      eo.tsteps = kKinds[k].steps;
      t0 = Clock::now();
      {
        Span s("core", "prepare_shared");
        plans[k] = Engine::instance().prepare_shared(preset(kKinds[k].preset),
                                                     kKinds[k].ext, eo);
      }
      setup += since(t0);
      flops[k] = flops_per_step(preset(kKinds[k].preset), kKinds[k].ext.nx,
                                kKinds[k].ext.ny, std::max(1L, kKinds[k].ext.nz)) *
                 kKinds[k].steps;
      for (int i = 0; i < kInitialSlots; ++i)
        free[k].push_back(make_slot(k, &setup));
    }
  }

  ~Impl() { server.reset(); }  // drains accepted requests before the buffers go

  // Waits until a request completes after `seen` completions, or `timeout`
  // passes; returns the completion count. Clients sleep until woken instead
  // of polling their futures: on the 4-vCPU baseline host a client polling
  // every 20 us took enough CPU from the server to lower the measured
  // capacity by 15 %.
  long wait_done(long seen, std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lk(done_mu);
    done_cv.wait_for(lk, timeout, [&] { return done_count != seen; });
    return done_count;
  }

  // Allocates a request's buffers, adding the first_touch time to
  // `touch_s` when given. Caller holds slots_mu once phases run.
  Slot* make_slot(int k, double* touch_s = nullptr) {
    auto s = std::make_unique<Slot>();
    const PreparedStencil& ps = plans[k];
    const int nx = static_cast<int>(kKinds[k].ext.nx);
    const int ny = static_cast<int>(kKinds[k].ext.ny);
    const auto t0 = Clock::now();
    if (kKinds[k].ext.nz == 0) {
      s->a2 = std::make_unique<Grid2D>(ny, nx, ps.halo(), false);
      s->b2 = std::make_unique<Grid2D>(ny, nx, ps.halo(), false);
      Span sp("core", "first_touch");
      ps.first_touch(s->a2->view());
      ps.first_touch(s->b2->view());
    } else {
      const int nz = static_cast<int>(kKinds[k].ext.nz);
      s->a3 = std::make_unique<Grid3D>(nz, ny, nx, ps.halo(), false);
      s->b3 = std::make_unique<Grid3D>(nz, ny, nx, ps.halo(), false);
      Span sp("core", "first_touch");
      ps.first_touch(s->a3->view());
      ps.first_touch(s->b3->view());
    }
    if (touch_s != nullptr) *touch_s += since(t0);
    const std::uint64_t seed = mix_seed(o.seed, 1000 + slots.size());
    if (s->a2) fill_random(s->a2->view(), seed);
    else fill_random(s->a3->view(), seed);
    slots.push_back(std::move(s));
    return slots.back().get();
  }

  Slot* take_slot(int k) {
    {
      std::lock_guard<std::mutex> lk(free_mu);
      if (!free[k].empty()) {
        Slot* s = free[k].back();
        free[k].pop_back();
        return s;
      }
    }
    std::lock_guard<std::mutex> lk(slots_mu);
    return make_slot(k);
  }

  void give_slot(int k, Slot* s) {
    std::lock_guard<std::mutex> lk(free_mu);
    free[k].push_back(s);
  }

  // Copies a (interior and halo) from one slot to another of the same kind,
  // allocating the destination's buffers on first use.
  static void copy_a(const Slot& from, Slot& to, bool with_b) {
    if (from.a2) {
      const FieldView2D v = from.a2->view();
      if (!to.a2) to.a2 = std::make_unique<Grid2D>(v.ny(), v.nx(), v.halo());
      if (with_b && !to.b2)
        to.b2 = std::make_unique<Grid2D>(v.ny(), v.nx(), v.halo());
      copy(v, to.a2->view());
    } else {
      const FieldView3D v = from.a3->view();
      if (!to.a3)
        to.a3 = std::make_unique<Grid3D>(v.nz(), v.ny(), v.nx(), v.halo());
      if (with_b && !to.b3)
        to.b3 = std::make_unique<Grid3D>(v.nz(), v.ny(), v.nx(), v.halo());
      copy(v, to.a3->view());
    }
  }

  Snapshot* maybe_snapshot(int k, const Slot& s) {
    if (seq++ % kSnapshotEvery != 0 || snaps.size() >= kMaxSnapshots)
      return nullptr;
    snaps.emplace_back();
    Snapshot& sn = snaps.back();
    sn.kind = k;
    copy_a(s, sn.in, true);
    return &sn;
  }

  std::future<ServeResult> submit(int k, Slot& s, int tenant) {
    static const std::string names[kTenants] = {"tenant-0", "tenant-1",
                                                "tenant-2", "tenant-3"};
    if (s.a2)
      return server->submit(names[tenant], plans[k], s.a2->view(),
                            s.b2->view(), kKinds[k].steps);
    return server->submit(names[tenant], plans[k], s.a3->view(), s.b3->view(),
                          kKinds[k].steps);
  }

  void advance(int k, Slot& s) {
    if (s.a2)
      plans[k].advance(s.a2->view(), s.b2->view(), kKinds[k].steps);
    else
      plans[k].advance(s.a3->view(), s.b3->view(), kKinds[k].steps);
  }

  int pick_kind(std::mt19937_64& rng) {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    double acc = 0;
    for (int k = 0; k < kNumKinds - 1; ++k)
      if (u < (acc += kKinds[k].share)) return k;
    return kNumKinds - 1;
  }

  // Completion of one request: records its outcome into the phase and
  // returns its buffers. `in_window` says whether it counts for throughput.
  void finish(Pending& p, LoadPhase& ph, double latency, bool in_window,
              long& failed, std::vector<std::string>& errs) {
    const ServeResult r = p.fut.valid() ? p.fut.get() : ServeResult{};
    if (!r.ok()) {
      ++failed;
      if (errs.size() < 8)
        errs.push_back(std::string("request ") +
                       (r.rejected != Reject::None ? reject_name(r.rejected)
                                                   : "failed") +
                       ": " + r.error);
    } else if (in_window) {
      ++ph.completed;
      ph.flops += flops[p.kind];
    }
    ph.latency_s.push_back(latency);
    if (p.snap != nullptr) {
      copy_a(*p.slot, p.snap->out, false);
      p.snap->done = r.ok();
    }
    give_slot(p.kind, p.slot);
  }

  // Finishes every completed request of `live`, timed from `t0` (trace
  // times offset by `tr0`). A request counts for throughput when it ends
  // within `window` seconds; returns how many ended before that, which a
  // closed-loop client replaces.
  int sweep(std::vector<Pending>& live, LoadPhase& ph, Clock::time_point t0,
            double tr0, double window, long& failed,
            std::vector<std::string>& errs) {
    int before = 0;
    for (std::size_t i = 0; i < live.size();) {
      if (live[i].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const double end = since(t0);
      Tracer::get().record("serving", "request", tr0 + live[i].due, tr0 + end);
      finish(live[i], ph, end - live[i].due, end <= window, failed, errs);
      before += end < window;
      live[i] = std::move(live.back());
      live.pop_back();
    }
    return before;
  }

  const Options& o;
  Outcome& out;
  double setup = 0;
  long seq = 0;
  int phase = 0;
  PreparedStencil plans[kNumKinds];
  double flops[kNumKinds] = {};
  std::mutex slots_mu;
  std::vector<std::unique_ptr<Slot>> slots;  // every request buffer
  std::mutex free_mu;
  std::vector<Slot*> free[kNumKinds];  // guarded by free_mu
  std::deque<Snapshot> snaps;  // appended by the sender only
  std::mutex done_mu;
  std::condition_variable done_cv;
  long done_count = 0;  // guarded by done_mu; requests the server completed
  std::unique_ptr<Server> server;  // last: destroyed first
};

ServeLoad::ServeLoad(const Options& o, Outcome& out)
    : impl_(std::make_unique<Impl>(o, out)) {}
ServeLoad::~ServeLoad() = default;

double ServeLoad::setup_seconds() const { return impl_->setup; }

LoadPhase ServeLoad::open_loop(double rate, double seconds, bool direct) {
  Impl& m = *impl_;
  LoadPhase ph;
  ph.window_s = seconds;
  std::mt19937_64 rng(mix_seed(m.o.seed, 100 + m.phase++));
  std::exponential_distribution<double> gap(rate);
  std::mutex mu;
  std::deque<Pending> handoff;  // guarded by mu
  bool done = false;            // guarded by mu
  long attempted = 0, failed = 0;
  std::vector<std::string> errs;
  Tracer& tr = Tracer::get();
  const long batches0 = m.server->stats().batches;
  const auto t0 = Clock::now();
  const double tr0 = tr.now();

  std::thread collector;
  if (!direct) {
    collector = std::thread([&] {
      std::vector<Pending> live;
      long seen = -1;
      for (;;) {
        bool last = false;
        {
          std::lock_guard<std::mutex> lk(mu);
          for (Pending& p : handoff) live.push_back(std::move(p));
          handoff.clear();
          last = done;
        }
        m.sweep(live, ph, t0, tr0, seconds, failed, errs);
        if (last && live.empty()) break;
        seen = m.wait_done(seen, kIdleWait);
      }
    });
  }

  fine_timer_slack();
  double due = 0;
  for (;;) {
    due += gap(rng);
    if (due >= seconds) break;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due)));
    ph.late_max_s = std::max(ph.late_max_s, since(t0) - due);
    Pending p;
    p.kind = m.pick_kind(rng);
    const int tenant = static_cast<int>(rng() % kTenants);
    p.slot = m.take_slot(p.kind);
    p.due = due;
    p.snap = m.maybe_snapshot(p.kind, *p.slot);
    ++attempted;
    if (direct) {
      {
        Span s("core", "advance");
        m.advance(p.kind, *p.slot);
      }
      m.finish(p, ph, since(t0) - due, true, failed, errs);
      continue;
    }
    const auto s0 = Clock::now();
    {
      Span s("serving", "submit");
      p.fut = m.submit(p.kind, *p.slot, tenant);
    }
    ph.submit_s.push_back(since(s0));
    std::lock_guard<std::mutex> lk(mu);
    handoff.push_back(std::move(p));
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  if (collector.joinable()) collector.join();
  ph.batches = m.server->stats().batches - batches0;
  m.out.attempted += attempted;
  m.out.failed += failed;
  m.out.errors.insert(m.out.errors.end(), errs.begin(), errs.end());
  return ph;
}

LoadPhase ServeLoad::closed_loop(int outstanding, double seconds) {
  Impl& m = *impl_;
  LoadPhase ph;
  ph.window_s = seconds;
  std::mt19937_64 rng(mix_seed(m.o.seed, 100 + m.phase++));
  long failed = 0;
  std::vector<std::string> errs;
  Tracer& tr = Tracer::get();
  const long batches0 = m.server->stats().batches;
  const auto t0 = Clock::now();
  const double tr0 = tr.now();

  std::vector<Pending> live;
  const auto send = [&] {
    Pending p;
    p.kind = m.pick_kind(rng);
    const int tenant = static_cast<int>(rng() % kTenants);
    p.slot = m.take_slot(p.kind);
    p.due = since(t0);
    p.snap = m.maybe_snapshot(p.kind, *p.slot);
    ++m.out.attempted;
    Span s("serving", "submit");
    p.fut = m.submit(p.kind, *p.slot, tenant);
    live.push_back(std::move(p));
  };
  for (int i = 0; i < outstanding; ++i) send();
  long seen = -1;
  while (!live.empty()) {
    seen = m.wait_done(seen, kIdleWait);
    for (int n = m.sweep(live, ph, t0, tr0, seconds, failed, errs); n > 0; --n)
      send();
  }
  ph.batches = m.server->stats().batches - batches0;
  m.out.failed += failed;
  m.out.errors.insert(m.out.errors.end(), errs.begin(), errs.end());
  return ph;
}

void ServeLoad::verify() {
  Impl& m = *impl_;
  for (Snapshot& sn : m.snaps) {
    if (!sn.done) continue;  // its request failed, and counted so already
    Slot& in = sn.in;
    {
      Span s("core", "advance");
      m.advance(sn.kind, in);
    }
    const bool same = in.a2 ? bitwise_equal(in.a2->view(), sn.out.a2->view())
                            : bitwise_equal(in.a3->view(), sn.out.a3->view());
    m.out.check(same, "served request differs from a direct advance()");
  }
}

}  // namespace ledger
