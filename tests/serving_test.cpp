// Tests for the serving subsystem (serving/server.hpp) and its engine-level
// foundations (the all-preset bitwise agreement of batched and served runs
// with run()/advance() lives in equivalence_test.cpp): batching under load,
// multi-threaded client stress across mixed presets and tenants,
// backpressure/rejection semantics (queue-full, tenant budgets, bad
// requests), clean shutdown with in-flight work, and prepare_shared()
// build coalescing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/tuner.hpp"
#include "grid/grid_utils.hpp"
#include "serving/server.hpp"
#include "stencil/presets.hpp"
#include "telemetry/telemetry.hpp"

namespace sf {
namespace {

constexpr int kSteps = 8;

Extents small_extents(const StencilSpec& spec) {
  if (spec.dims == 1) return Extents{2000};
  if (spec.dims == 2) return Extents{72, 64};
  return Extents{36, 24, 20};
}

PreparedStencil prepare_small(const StencilSpec& spec) {
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = kSteps;
  return Engine::instance().prepare(spec, small_extents(spec), opts);
}

// Caller-owned buffers for one batch item of any dimensionality. Grids are
// kept in deques so growth never relocates (Grid is not required to move).
struct ItemStore {
  std::deque<Grid1D> a1, b1, k1;
  std::deque<Grid2D> a2, b2;
  std::deque<Grid3D> a3, b3;
};

// Builds `nitems` independently-seeded grid pairs for `spec` into `seq`
// (sequential baseline) and `bat` (batched run) with identical contents.
void make_items(const StencilSpec& spec, const PreparedStencil& ps, int nitems,
                std::uint64_t seed0, ItemStore& seq, ItemStore& bat) {
  const int h = ps.halo();
  for (int i = 0; i < nitems; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    if (spec.dims == 1) {
      seq.a1.emplace_back(2000, h, false);
      seq.b1.emplace_back(2000, h);
      bat.a1.emplace_back(2000, h, false);
      bat.b1.emplace_back(2000, h);
      fill_random(seq.a1.back(), seed);
      copy(seq.a1.back(), bat.a1.back());
      if (spec.has_source) {
        seq.k1.emplace_back(2000, h, false);
        fill_random(seq.k1.back(), seed + 7919);
      }
    } else if (spec.dims == 2) {
      seq.a2.emplace_back(64, 72, h, false);
      seq.b2.emplace_back(64, 72, h);
      bat.a2.emplace_back(64, 72, h, false);
      bat.b2.emplace_back(64, 72, h);
      fill_random(seq.a2.back(), seed);
      copy(seq.a2.back(), bat.a2.back());
    } else {
      seq.a3.emplace_back(20, 24, 36, h, false);
      seq.b3.emplace_back(20, 24, 36, h);
      bat.a3.emplace_back(20, 24, 36, h, false);
      bat.b3.emplace_back(20, 24, 36, h);
      fill_random(seq.a3.back(), seed);
      copy(seq.a3.back(), bat.a3.back());
    }
  }
}

// Advances every sequential-baseline item one at a time through advance().
void run_sequential(const StencilSpec& spec, const PreparedStencil& ps,
                    int nitems, ItemStore& seq) {
  for (int i = 0; i < nitems; ++i) {
    if (spec.dims == 1) {
      if (spec.has_source)
        ps.advance(seq.a1[i], seq.b1[i], seq.k1[i], kSteps);
      else
        ps.advance(seq.a1[i], seq.b1[i], kSteps);
    } else if (spec.dims == 2) {
      ps.advance(seq.a2[i], seq.b2[i], kSteps);
    } else {
      ps.advance(seq.a3[i], seq.b3[i], kSteps);
    }
  }
}

// Max |batched - sequential| over every item's result field.
double batch_diff(const StencilSpec& spec, int nitems, const ItemStore& seq,
                  const ItemStore& bat) {
  double m = 0;
  for (int i = 0; i < nitems; ++i) {
    if (spec.dims == 1)
      m = std::max(m, max_abs_diff(seq.a1[i].view(), bat.a1[i].view()));
    else if (spec.dims == 2)
      m = std::max(m, max_abs_diff(seq.a2[i].view(), bat.a2[i].view()));
    else
      m = std::max(m, max_abs_diff(seq.a3[i].view(), bat.a3[i].view()));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Engine level: advance_batch() vs. advance().
// ---------------------------------------------------------------------------

TEST(AdvanceBatch, SingleItemAndEmptyBatchesWork) {
  const auto& spec = preset(Preset::Heat2D);
  PreparedStencil ps = prepare_small(spec);
  ItemStore seq, bat;
  make_items(spec, ps, 1, 500, seq, bat);
  run_sequential(spec, ps, 1, seq);
  std::vector<TileBatch2D> one{{bat.a2[0].view(), bat.b2[0].view()}};
  ps.advance_batch(one, kSteps);
  EXPECT_EQ(max_abs_diff(seq.a2[0].view(), bat.a2[0].view()), 0.0);
  ps.advance_batch(std::vector<TileBatch2D>{}, kSteps);  // no-op, no throw
}

// ---------------------------------------------------------------------------
// Plan keys and shared preparation.
// ---------------------------------------------------------------------------

TEST(PlanKey, IdentifiesTheEffectiveRequest) {
  Engine& eng = Engine::instance();
  const auto& spec = preset(Preset::Heat2D);
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = kSteps;
  PreparedStencil p1 = eng.prepare(spec, Extents{72, 64}, opts);
  PreparedStencil p2 = eng.prepare(spec, Extents{72, 64}, opts);
  EXPECT_EQ(p1.plan_key(), p2.plan_key());
  EXPECT_EQ(p1.plan_key(), eng.plan_key(spec, Extents{72, 64}, opts));
  // Any change to the effective request changes the key.
  EXPECT_NE(p1.plan_key(), eng.plan_key(spec, Extents{96, 64}, opts));
  ExecOptions other = opts;
  other.tsteps = kSteps + 1;
  EXPECT_NE(p1.plan_key(), eng.plan_key(spec, Extents{72, 64}, other));
  EXPECT_NE(p1.plan_key(),
            eng.plan_key(preset(Preset::Box2D9), Extents{72, 64}, opts));
}

TEST(PrepareShared, ConcurrentTenantsShareOnePreparedState) {
  Engine& eng = Engine::instance();
  const auto& spec = preset(Preset::Heat2D);
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = kSteps;
  // A request no other test uses, so the first prepare really builds.
  const Extents ext{88, 56};
  const int nclients = 8;
  std::vector<PreparedStencil> handles(nclients);
  std::vector<std::thread> clients;
  for (int t = 0; t < nclients; ++t)
    clients.emplace_back(
        [&, t] { handles[t] = eng.prepare_shared(spec, ext, opts); });
  for (auto& c : clients) c.join();
  for (int t = 1; t < nclients; ++t) {
    // Identical State, not merely equal plans: spec() returns a reference
    // into the shared prepared state.
    EXPECT_EQ(&handles[0].spec(), &handles[t].spec());
    EXPECT_EQ(handles[0].plan_key(), handles[t].plan_key());
  }
}

// ---------------------------------------------------------------------------
// Server end-to-end.
// ---------------------------------------------------------------------------

// Holds the dispatcher inside the first on_complete callback so admission
// behaviour while the dispatcher is busy can be tested deterministically.
struct DispatcherGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  std::atomic<int> calls{0};

  ServerOptions options(ServerOptions base = {}) {
    base.on_complete = [this](const ServeResult&) {
      if (calls.fetch_add(1) != 0) return;  // block only the first completion
      std::unique_lock<std::mutex> lk(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lk, [this] { return released; });
    };
    return base;
  }
  void await_entered() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(Server, SamePlanRequestsBatchInOneDispatch) {
  const auto& spec = preset(Preset::Heat2D);
  PreparedStencil ps = prepare_small(spec);
  const int nitems = 4;
  ItemStore seq, bat;
  make_items(spec, ps, nitems + 1, 900, seq, bat);
  DispatcherGate gate;
  ServerOptions opts = gate.options();
  opts.max_batch = 16;
  Server server(opts);
  // Warm request: once its completion callback blocks, the dispatcher is
  // parked and everything submitted next accumulates in the ring.
  auto warm =
      server.submit("warm", ps, bat.a2[nitems].view(), bat.b2[nitems].view(),
                    kSteps);
  gate.await_entered();
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < nitems; ++i)
    futures.push_back(
        server.submit("t", ps, bat.a2[i].view(), bat.b2[i].view(), kSteps));
  gate.release();
  server.drain();
  EXPECT_TRUE(warm.get().ok());
  for (auto& f : futures) {
    const ServeResult r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;
    // All four same-plan requests were drained in one round and executed as
    // one batched dispatch.
    EXPECT_EQ(r.batch_size, nitems);
  }
  EXPECT_EQ(server.stats().max_batch, nitems);
}

// Two handles of one plan key run different geometry once a TuneCache
// store lands between their preparations (what Engine::tune does). The
// dispatcher batches by prepared state, so each request still executes
// through its own handle's plan: batched == sequential per handle.
TEST(Server, SamePlanKeyDifferentGeometryBatchSeparately) {
  const StencilSpec& spec = preset(Preset::Heat2D);
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = 16;
  const Extents ext{112, 96};
  const PreparedStencil heur = Engine::instance().prepare(spec, ext, opts);
  ASSERT_TRUE(heur.plan().tune_key.has_value());
  TuneCache::instance().store(*heur.plan().tune_key, TunedGeometry{32, 4});
  const PreparedStencil tuned = Engine::instance().prepare(spec, ext, opts);
  TuneCache::instance().clear();
  ASSERT_EQ(tuned.plan_key(), heur.plan_key());
  ASSERT_EQ(tuned.plan().tile.tile, 32);
  ASSERT_NE(tuned.plan().tile.tile, heur.plan().tile.tile);

  const int nitems = 32;
  const int h = heur.halo();
  std::deque<Grid2D> seq_a, seq_b, bat_a, bat_b;
  for (int i = 0; i <= nitems; ++i) {  // item nitems: the gate's warm request
    seq_a.emplace_back(96, 112, h);
    seq_b.emplace_back(96, 112, h);
    bat_a.emplace_back(96, 112, h);
    bat_b.emplace_back(96, 112, h);
    fill_random(seq_a.back(), 2100 + static_cast<std::uint64_t>(i));
    copy(seq_a.back(), bat_a.back());
  }
  auto handle = [&](int i) -> const PreparedStencil& {
    return i % 2 != 0 ? tuned : heur;
  };
  DispatcherGate gate;
  ServerOptions sopts = gate.options();
  sopts.max_batch = 2 * nitems;
  Server server(sopts);
  auto warm = server.submit("warm", heur, bat_a[nitems].view(),
                            bat_b[nitems].view(), 16);
  gate.await_entered();
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < nitems; ++i)
    futures.push_back(server.submit("t", handle(i), bat_a[i].view(),
                                    bat_b[i].view(), 16));
  gate.release();
  server.drain();
  EXPECT_TRUE(warm.get().ok());
  for (int i = 0; i < nitems; ++i) {
    const ServeResult r = futures[i].get();
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.batch_size, nitems / 2) << i;  // one dispatch per handle
    handle(i).advance(seq_a[i].view(), seq_b[i].view(), 16);
    EXPECT_EQ(max_abs_diff(seq_a[i].view(), bat_a[i].view()), 0.0) << i;
  }
}

TEST(Server, MultiThreadedClientsMixedPresetsAndTenants) {
  const int nclients = 6;
  const int nrequests = 24;
  const StencilSpec* specs[] = {&preset(Preset::Heat1D),
                                &preset(Preset::Heat2D),
                                &preset(Preset::Heat3D)};
  PreparedStencil handles[3] = {prepare_small(*specs[0]),
                                prepare_small(*specs[1]),
                                prepare_small(*specs[2])};
  struct ClientData {
    ItemStore seq, bat;
    std::vector<int> which;  // preset index of request r
    std::vector<std::future<ServeResult>> futures;
  };
  std::deque<ClientData> data(nclients);
  Server server({/*queue_capacity=*/1024, /*max_batch=*/32});
  std::vector<std::thread> clients;
  for (int t = 0; t < nclients; ++t) {
    clients.emplace_back([&, t] {
      ClientData& d = data[t];
      const std::string tenant = "tenant-" + std::to_string(t % 3);
      for (int r = 0; r < nrequests; ++r) {
        const int w = (t + r) % 3;
        d.which.push_back(w);
        const StencilSpec& spec = *specs[w];
        const PreparedStencil& ps = handles[w];
        make_items(spec, ps, 1,
                   static_cast<std::uint64_t>(5000 + 1000 * t + r), d.seq,
                   d.bat);
        const int i = static_cast<int>(
            (spec.dims == 1 ? d.seq.a1.size()
                            : spec.dims == 2 ? d.seq.a2.size()
                                             : d.seq.a3.size()) -
            1);
        // Sequential expectation first (advance() is thread-safe), then the
        // served copy.
        if (spec.dims == 1) {
          ps.advance(d.seq.a1[i], d.seq.b1[i], kSteps);
          d.futures.push_back(server.submit(tenant, ps, d.bat.a1[i].view(),
                                            d.bat.b1[i].view(), kSteps));
        } else if (spec.dims == 2) {
          ps.advance(d.seq.a2[i], d.seq.b2[i], kSteps);
          d.futures.push_back(server.submit(tenant, ps, d.bat.a2[i].view(),
                                            d.bat.b2[i].view(), kSteps));
        } else {
          ps.advance(d.seq.a3[i], d.seq.b3[i], kSteps);
          d.futures.push_back(server.submit(tenant, ps, d.bat.a3[i].view(),
                                            d.bat.b3[i].view(), kSteps));
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  server.drain();
  for (int t = 0; t < nclients; ++t) {
    ClientData& d = data[t];
    int i1 = 0, i2 = 0, i3 = 0;
    for (int r = 0; r < nrequests; ++r) {
      const ServeResult res = d.futures[r].get();
      ASSERT_TRUE(res.ok()) << res.error;
      const StencilSpec& spec = *specs[d.which[r]];
      if (spec.dims == 1) {
        EXPECT_EQ(max_abs_diff(d.seq.a1[i1].view(), d.bat.a1[i1].view()), 0.0);
        ++i1;
      } else if (spec.dims == 2) {
        EXPECT_EQ(max_abs_diff(d.seq.a2[i2].view(), d.bat.a2[i2].view()), 0.0);
        ++i2;
      } else {
        EXPECT_EQ(max_abs_diff(d.seq.a3[i3].view(), d.bat.a3[i3].view()), 0.0);
        ++i3;
      }
    }
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, static_cast<long>(nclients) * nrequests);
  EXPECT_EQ(st.completed, static_cast<long>(nclients) * nrequests);
  EXPECT_EQ(st.rejected, 0);
  EXPECT_EQ(st.failed, 0);
}

// ---------------------------------------------------------------------------
// Admission control and rejection semantics.
// ---------------------------------------------------------------------------

TEST(Server, RejectsBadRequestsAtSubmitTime) {
  const auto& spec = preset(Preset::Heat2D);
  PreparedStencil ps = prepare_small(spec);
  const int h = ps.halo();
  Server server;
  // Geometry mismatch against the prepared extents.
  Grid2D wrong_a(10, 10, h, false), wrong_b(10, 10, h);
  auto f1 = server.submit("t", ps, wrong_a.view(), wrong_b.view(), kSteps);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // rejected futures settle immediately
  const ServeResult r1 = f1.get();
  EXPECT_EQ(r1.rejected, Reject::BadRequest);
  EXPECT_FALSE(r1.error.empty());
  // Empty prepared handle.
  auto f2 = server.submit("t", PreparedStencil{}, wrong_a.view(),
                          wrong_b.view(), kSteps);
  EXPECT_EQ(f2.get().rejected, Reject::BadRequest);
  EXPECT_EQ(server.stats().rejected, 2);
  EXPECT_STREQ(reject_name(Reject::BadRequest), "bad-request");
}

TEST(Server, FullRingAppliesBackpressure) {
  const auto& spec = preset(Preset::Heat2D);
  PreparedStencil ps = prepare_small(spec);
  const int nitems = 8;
  ItemStore seq, bat;
  make_items(spec, ps, nitems, 1500, seq, bat);
  DispatcherGate gate;
  ServerOptions opts = gate.options();
  opts.queue_capacity = 2;  // ring holds exactly two waiting requests
  opts.max_batch = 1;
  Server server(opts);
  auto warm =
      server.submit("w", ps, bat.a2[0].view(), bat.b2[0].view(), kSteps);
  gate.await_entered();  // dispatcher parked; the ring is drained and empty
  auto q1 = server.submit("t", ps, bat.a2[1].view(), bat.b2[1].view(), kSteps);
  auto q2 = server.submit("t", ps, bat.a2[2].view(), bat.b2[2].view(), kSteps);
  auto q3 = server.submit("t", ps, bat.a2[3].view(), bat.b2[3].view(), kSteps);
  const ServeResult rejected = q3.get();  // third one finds the ring full
  EXPECT_EQ(rejected.rejected, Reject::QueueFull);
  gate.release();
  server.drain();
  EXPECT_TRUE(warm.get().ok());
  EXPECT_TRUE(q1.get().ok());
  EXPECT_TRUE(q2.get().ok());
  EXPECT_GE(server.stats().rejected, 1);
}

TEST(Server, TenantInflightBudgetIsEnforced) {
  const auto& spec = preset(Preset::Heat2D);
  PreparedStencil ps = prepare_small(spec);
  ItemStore seq, bat;
  make_items(spec, ps, 4, 1700, seq, bat);
  DispatcherGate gate;
  ServerOptions opts = gate.options();
  opts.tenant_max_inflight = 1;
  opts.max_batch = 1;
  Server server(opts);
  auto warm =
      server.submit("w", ps, bat.a2[0].view(), bat.b2[0].view(), kSteps);
  gate.await_entered();
  // Tenant "t" may have one request in flight; the second is refused while
  // the first still waits in the parked dispatcher's queue. Other tenants
  // are unaffected.
  auto q1 = server.submit("t", ps, bat.a2[1].view(), bat.b2[1].view(), kSteps);
  auto q2 = server.submit("t", ps, bat.a2[2].view(), bat.b2[2].view(), kSteps);
  auto q3 = server.submit("u", ps, bat.a2[3].view(), bat.b2[3].view(), kSteps);
  EXPECT_EQ(q2.get().rejected, Reject::TenantInflight);
  gate.release();
  server.drain();
  EXPECT_TRUE(warm.get().ok());
  EXPECT_TRUE(q1.get().ok());
  EXPECT_TRUE(q3.get().ok());
  // With the first request completed, the tenant has budget again.
  ItemStore seq2, bat2;
  make_items(spec, ps, 1, 1800, seq2, bat2);
  auto q4 =
      server.submit("t", ps, bat2.a2[0].view(), bat2.b2[0].view(), kSteps);
  server.drain();
  EXPECT_TRUE(q4.get().ok());
}

TEST(Server, TenantPlanBudgetIsEnforced) {
  const auto& heat2 = preset(Preset::Heat2D);
  const auto& heat3 = preset(Preset::Heat3D);
  PreparedStencil p2 = prepare_small(heat2);
  PreparedStencil p3 = prepare_small(heat3);
  ItemStore seq, bat;
  make_items(heat2, p2, 2, 2000, seq, bat);
  ItemStore seq3, bat3;
  make_items(heat3, p3, 2, 2100, seq3, bat3);
  ServerOptions opts;
  opts.tenant_max_plans = 1;
  Server server(opts);
  auto ok1 =
      server.submit("t", p2, bat.a2[0].view(), bat.b2[0].view(), kSteps);
  // A second *distinct* plan exceeds the tenant's budget...
  auto rej =
      server.submit("t", p3, bat3.a3[0].view(), bat3.b3[0].view(), kSteps);
  EXPECT_EQ(rej.get().rejected, Reject::TenantPlans);
  // ...but re-using the already-charged plan is fine, as is the same plan
  // under a different tenant.
  auto ok2 =
      server.submit("t", p2, bat.a2[1].view(), bat.b2[1].view(), kSteps);
  auto ok3 =
      server.submit("u", p3, bat3.a3[1].view(), bat3.b3[1].view(), kSteps);
  server.drain();
  EXPECT_TRUE(ok1.get().ok());
  EXPECT_TRUE(ok2.get().ok());
  EXPECT_TRUE(ok3.get().ok());
}

TEST(Server, DestructionDrainsInflightRequests) {
  const auto& spec = preset(Preset::Heat2D);
  PreparedStencil ps = prepare_small(spec);
  const int nitems = 16;
  ItemStore seq, bat;
  make_items(spec, ps, nitems, 2500, seq, bat);
  run_sequential(spec, ps, nitems, seq);
  std::vector<std::future<ServeResult>> futures;
  {
    Server server({/*queue_capacity=*/64, /*max_batch=*/8});
    for (int i = 0; i < nitems; ++i)
      futures.push_back(
          server.submit("t", ps, bat.a2[i].view(), bat.b2[i].view(), kSteps));
    // Destroy with work still queued/executing: the destructor must satisfy
    // every accepted future (no leaks — ASan-checked in CI) and join.
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(batch_diff(spec, nitems, seq, bat), 0.0);
}

// ---------------------------------------------------------------------------
// Telemetry: serving counters must agree with observed request outcomes.
// ---------------------------------------------------------------------------

TEST(ServerTelemetry, CountersMatchRequestOutcomes) {
  // Metrics must be on *before* the Server is constructed: handles are
  // resolved in the Impl constructor (construct-time enablement).
  ::setenv("SF_METRICS", "1", 1);
  telemetry::refresh_env();
  const auto& heat2 = preset(Preset::Heat2D);
  const auto& heat3 = preset(Preset::Heat3D);
  PreparedStencil p2 = prepare_small(heat2);
  PreparedStencil p3 = prepare_small(heat3);
  const int ngood = 6;
  ItemStore seq, bat;
  make_items(heat2, p2, ngood, 4000, seq, bat);
  ItemStore seq3, bat3;
  make_items(heat3, p3, 1, 4100, seq3, bat3);

  const telemetry::Snapshot before = telemetry::snapshot();
  std::string metrics_page;
  {
    ServerOptions opts;
    opts.tenant_max_plans = 1;
    opts.max_batch = 16;
    Server server(opts);
    std::vector<std::future<ServeResult>> good;
    for (int i = 0; i < ngood; ++i)
      good.push_back(server.submit("telem-a", p2, bat.a2[i].view(),
                                   bat.b2[i].view(), kSteps));
    // One distinct-plan submission over the tenant budget...
    auto rej_plan = server.submit("telem-a", p3, bat3.a3[0].view(),
                                  bat3.b3[0].view(), kSteps);
    EXPECT_EQ(rej_plan.get().rejected, Reject::TenantPlans);
    // ...and one geometry mismatch.
    Grid2D wrong_a(10, 10, p2.halo(), false), wrong_b(10, 10, p2.halo());
    auto rej_bad =
        server.submit("telem-a", p2, wrong_a.view(), wrong_b.view(), kSteps);
    EXPECT_EQ(rej_bad.get().rejected, Reject::BadRequest);
    server.drain();
    for (auto& f : good) EXPECT_TRUE(f.get().ok());
    metrics_page = server.metrics();
  }
  const telemetry::Snapshot after = telemetry::snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  // Every submission — accepted or rejected — counts as submitted; only
  // drained requests complete; each rejection lands in its reason counter
  // and the tenant's rejected counter.
  EXPECT_EQ(delta("serving.submitted"), ngood + 2);
  EXPECT_EQ(delta("serving.accepted"), ngood);
  EXPECT_EQ(delta("serving.completed"), ngood);
  EXPECT_EQ(delta("serving.failed"), 0);
  EXPECT_EQ(delta("serving.reject.tenant-plans"), 1);
  EXPECT_EQ(delta("serving.reject.bad-request"), 1);
  EXPECT_EQ(delta("serving.tenant.telem-a.accepted"), ngood);
  // The bad-request rejection never reaches admission, so the tenant
  // counter sees only the plan-budget one.
  EXPECT_EQ(delta("serving.tenant.telem-a.rejected"), 1);

  // The batch-size histogram observes one entry per batch and one unit of
  // sum per completed request.
  const telemetry::HistogramSample* batch_after =
      after.find_histogram("serving.batch_size");
  ASSERT_NE(batch_after, nullptr);
  std::int64_t batch_count = batch_after->count, batch_sum = batch_after->sum;
  if (const telemetry::HistogramSample* b =
          before.find_histogram("serving.batch_size")) {
    batch_count -= b->count;
    batch_sum -= b->sum;
  }
  EXPECT_EQ(batch_sum, ngood);
  EXPECT_EQ(batch_count, delta("serving.batches"));
  EXPECT_GE(delta("serving.batches"), 1);

  // Latency histograms saw every completed request.
  const telemetry::HistogramSample* q =
      after.find_histogram("serving.queue_us");
  ASSERT_NE(q, nullptr);
  std::int64_t q_count = q->count;
  if (const telemetry::HistogramSample* b =
          before.find_histogram("serving.queue_us"))
    q_count -= b->count;
  EXPECT_EQ(q_count, ngood);

  // The metrics endpoint carries both the server stats and the registry.
  EXPECT_NE(metrics_page.find("# sf::Server"), std::string::npos);
  EXPECT_NE(metrics_page.find("serving.submitted"), std::string::npos);

  ::setenv("SF_METRICS", "0", 1);
  telemetry::refresh_env();
}

}  // namespace
}  // namespace sf
