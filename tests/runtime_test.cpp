// The runtime layer: topology discovery against fixture sysfs trees, pin
// orders per affinity policy, the persistent worker pool (coverage,
// exceptions, oversubscription, reuse across Engine::prepare calls),
// first-touch initialization, and the end-to-end guarantee that placement
// never changes results — pinned and unpinned runs agree bitwise for all
// nine presets.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "core/solver.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "runtime/topology.hpp"
#include "runtime/worker_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {
namespace {

// ---------------------------------------------------------------------------
// Fixture sysfs tree: 2 packages x 2 cores x SMT-2 = 8 logical CPUs,
// one NUMA node per package. Physical siblings: (0,4) (1,5) (2,6) (3,7).
// ---------------------------------------------------------------------------

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << path;
  out << contents;
}

std::string make_fixture_tree() {
  const std::string root = ::testing::TempDir() + "sf_sysfs_fixture";
  auto mkdirs = [](const std::string& p) {
    std::string cur;
    for (std::size_t i = 0; i <= p.size(); ++i) {
      if (i == p.size() || p[i] == '/') {
        if (!cur.empty()) ::mkdir(cur.c_str(), 0755);
      }
      if (i < p.size()) cur += p[i];
    }
  };
  struct Cpu {
    int id, core, package;
  };
  // cpus 0,1 = package 0 cores 0,1; cpus 2,3 = package 1 cores 0,1;
  // cpus 4-7 = their SMT siblings.
  const Cpu cpus[] = {{0, 0, 0}, {1, 1, 0}, {2, 0, 1}, {3, 1, 1},
                      {4, 0, 0}, {5, 1, 0}, {6, 0, 1}, {7, 1, 1}};
  mkdirs(root + "/cpu");
  write_file(root + "/cpu/online", "0-7\n");
  for (const Cpu& c : cpus) {
    const std::string base = root + "/cpu/cpu" + std::to_string(c.id);
    mkdirs(base + "/topology");
    write_file(base + "/topology/core_id", std::to_string(c.core) + "\n");
    write_file(base + "/topology/physical_package_id",
               std::to_string(c.package) + "\n");
  }
  mkdirs(root + "/node/node0");
  mkdirs(root + "/node/node1");
  write_file(root + "/node/node0/cpulist", "0-1,4-5\n");
  write_file(root + "/node/node1/cpulist", "2-3,6-7\n");
  return root;
}

TEST(Topology, ParsesCpuLists) {
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("5\n"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpu_list(""), (std::vector<int>{}));
  // Malformed chunks are skipped, the parseable remainder kept.
  EXPECT_EQ(parse_cpu_list("x,7,abc-3"), (std::vector<int>{7}));
  // Duplicates collapse.
  EXPECT_EQ(parse_cpu_list("2,2,1-2"), (std::vector<int>{1, 2}));
}

TEST(Topology, DiscoversFixtureTree) {
  const Topology t = Topology::discover(make_fixture_tree());
  EXPECT_EQ(t.logical_cpus(), 8);
  EXPECT_EQ(t.physical_cores(), 4);
  EXPECT_EQ(t.packages(), 2);
  EXPECT_EQ(t.numa_nodes(), 2);
  EXPECT_TRUE(t.smt());
  EXPECT_EQ(t.cores_per_node(), 2);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(5), 0);
  EXPECT_EQ(t.node_of(2), 1);
  EXPECT_EQ(t.node_of(7), 1);
  EXPECT_EQ(t.node_of(99), -1);
  // SMT ranks: the sibling of each core comes second in id order.
  const auto& cpus = t.cpus();
  EXPECT_EQ(cpus[0].smt_rank, 0);  // cpu0
  EXPECT_EQ(cpus[4].smt_rank, 1);  // cpu4, sibling of cpu0
}

TEST(Topology, PinOrders) {
  const Topology t = Topology::discover(make_fixture_tree());
  // None: no pinning at all.
  EXPECT_TRUE(t.pin_order(Affinity::None).empty());
  // Compact: fill node 0 (package 0) core by core with its SMT sibling
  // adjacent, then node 1.
  EXPECT_EQ(t.pin_order(Affinity::Compact),
            (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
  // Scatter: round-robin across the two nodes, whole cores before any SMT
  // sibling — two workers land on two different nodes.
  EXPECT_EQ(t.pin_order(Affinity::Scatter),
            (std::vector<int>{0, 2, 1, 3, 4, 6, 5, 7}));
}

TEST(Topology, FallsBackFlatWithoutSysfs) {
  const Topology t =
      Topology::discover(::testing::TempDir() + "sf_sysfs_missing");
  EXPECT_EQ(t.logical_cpus(), hardware_threads());
  EXPECT_EQ(t.numa_nodes(), 1);
  EXPECT_EQ(t.packages(), 1);
  EXPECT_FALSE(t.smt());
  EXPECT_TRUE(t.pin_order(Affinity::None).empty());
  // Flat still yields usable pin orders (every cpu exactly once).
  EXPECT_EQ(static_cast<int>(t.pin_order(Affinity::Compact).size()),
            t.logical_cpus());
}

TEST(Topology, AffinityNames) {
  EXPECT_STREQ(affinity_name(Affinity::None), "none");
  EXPECT_STREQ(affinity_name(Affinity::Compact), "compact");
  EXPECT_STREQ(affinity_name(Affinity::Scatter), "scatter");
  EXPECT_EQ(affinity_from_name("compact"), Affinity::Compact);
  EXPECT_EQ(affinity_from_name("scatter"), Affinity::Scatter);
  EXPECT_EQ(affinity_from_name("none"), Affinity::None);
  EXPECT_EQ(affinity_from_name(""), Affinity::None);
  EXPECT_EQ(affinity_from_name("garbage"), Affinity::None);
}

// ---------------------------------------------------------------------------
// PlacementPlan
// ---------------------------------------------------------------------------

TEST(Placement, BalancedCoversEveryTileOnce) {
  const PlacementPlan p = balanced_placement(10, 3, Affinity::Compact);
  EXPECT_EQ(p.workers, 3);
  EXPECT_EQ(p.affinity, Affinity::Compact);
  EXPECT_EQ(p.ntiles(), 10);
  // ceil(10/3) = 4: OpenMP schedule(static) chunking.
  EXPECT_EQ(p.tiles_of(0), (std::pair<int, int>{0, 4}));
  EXPECT_EQ(p.tiles_of(1), (std::pair<int, int>{4, 8}));
  EXPECT_EQ(p.tiles_of(2), (std::pair<int, int>{8, 10}));
}

TEST(Placement, MoreWorkersThanTilesLeavesEmptyTails) {
  const PlacementPlan p = balanced_placement(2, 4, Affinity::None);
  EXPECT_EQ(p.tiles_of(0), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(p.tiles_of(1), (std::pair<int, int>{1, 2}));
  EXPECT_EQ(p.tiles_of(2), (std::pair<int, int>{2, 2}));  // empty
  EXPECT_EQ(p.tiles_of(3), (std::pair<int, int>{2, 2}));  // empty
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPool, ParallelForCoversRangeExactlyOnce) {
  WorkerPool pool(4, Affinity::None);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
}

TEST(WorkerPool, RunHandsEveryWorkerItsIndex) {
  WorkerPool pool(3, Affinity::None);
  std::vector<std::atomic<int>> seen(3);
  for (int rep = 0; rep < 50; ++rep)  // repeated tasks reuse parked workers
    pool.run([&](int w) { ++seen[static_cast<size_t>(w)]; });
  for (int w = 0; w < 3; ++w) EXPECT_EQ(seen[static_cast<size_t>(w)], 50);
}

TEST(WorkerPool, PropagatesWorkerExceptions) {
  WorkerPool pool(2, Affinity::None);
  EXPECT_THROW(pool.run([&](int w) {
                 if (w == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool survives a throwing task.
  std::atomic<int> ok{0};
  pool.run([&](int) { ++ok; });
  EXPECT_EQ(ok, 2);
}

// Oversubscription (far more workers than this machine has CPUs, pinned so
// several workers share each CPU) must complete, not deadlock.
TEST(WorkerPool, OversubscriptionCompletes) {
  const int n = 4 * hardware_threads() + 3;
  WorkerPool pool(n, Affinity::Compact);
  std::atomic<int> ran{0};
  pool.run([&](int) { ++ran; });
  EXPECT_EQ(ran, n);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000,
                    [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
}

TEST(WorkerPool, ArenaAllocatedPerWorker) {
  WorkerPool pool(2, Affinity::None);
  const auto ensure = [&](std::size_t doubles) {
    pool.run([&](int w) { pool.ensure_arena_local(w, doubles); });
  };
  ensure(256);
  for (int w = 0; w < 2; ++w) EXPECT_GE(pool.arena(w).size(), 256u);
  // Distinct workers own distinct buffers.
  EXPECT_NE(pool.arena(0).data(), pool.arena(1).data());
  // Re-ensuring with a satisfied size keeps the buffer (pointer-stable),
  // and so does a smaller request: the arena only grows.
  const double* p0 = pool.arena(0).data();
  ensure(256);
  EXPECT_EQ(pool.arena(0).data(), p0);
  ensure(16);
  EXPECT_EQ(pool.arena(0).data(), p0);
  EXPECT_GE(pool.arena(0).size(), 256u);
  // A larger request grows it.
  ensure(4096);
  for (int w = 0; w < 2; ++w) EXPECT_GE(pool.arena(w).size(), 4096u);
  EXPECT_NE(pool.arena(0).data(), pool.arena(1).data());
}

TEST(WorkerPool, SharedPoolReusedPerConfiguration) {
  const auto a = shared_pool(2, Affinity::None);
  const auto b = shared_pool(2, Affinity::None);
  EXPECT_EQ(a.get(), b.get());
  // A different configuration is a different pool.
  const auto c = shared_pool(2, Affinity::Compact);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->affinity(), Affinity::Compact);
}

TEST(WorkerPool, ReleasedPoolJoinsItsWorkers) {
  std::weak_ptr<WorkerPool> watch;
  {
    const auto p = shared_pool(3, Affinity::None);
    watch = p;
  }
  // The registry keeps the configuration warm after the caller lets go...
  EXPECT_FALSE(watch.expired());
  // ...until it is explicitly released, which must run the destructor (and
  // therefore join the worker threads) because no external reference holds it.
  EXPECT_TRUE(release_pool(3, Affinity::None));
  EXPECT_TRUE(watch.expired());
  // Releasing a configuration that is not cached reports false.
  EXPECT_FALSE(release_pool(3, Affinity::None));
}

TEST(WorkerPool, ReleaseUnusedDropsOnlyUnreferencedPools) {
  const auto held = shared_pool(5, Affinity::None);
  std::weak_ptr<WorkerPool> loose = shared_pool(6, Affinity::None);
  EXPECT_FALSE(loose.expired());
  release_unused_pools();
  // The externally-referenced pool survives and is still the cached one;
  // the unreferenced pool's workers shut down.
  EXPECT_TRUE(loose.expired());
  EXPECT_EQ(shared_pool(5, Affinity::None).get(), held.get());
  EXPECT_TRUE(release_pool(5, Affinity::None));
}

TEST(WorkerPool, LruCapEvictsOldestUnreferencedOnly) {
  ASSERT_EQ(setenv("SF_POOL_CACHE", "1", 1), 0);
  const auto held = shared_pool(3, Affinity::None);
  std::weak_ptr<WorkerPool> oldest = shared_pool(4, Affinity::None);
  // Inserting another configuration over a cap of one evicts the oldest
  // unreferenced entry (4 threads) but never the externally-held pool.
  shared_pool(5, Affinity::None);
  EXPECT_TRUE(oldest.expired());
  EXPECT_EQ(shared_pool(3, Affinity::None).get(), held.get());
  EXPECT_GE(pool_cache_size(), static_cast<std::size_t>(1));
  unsetenv("SF_POOL_CACHE");
  release_unused_pools();
  EXPECT_TRUE(release_pool(3, Affinity::None));
}

// ---------------------------------------------------------------------------
// Engine integration: pool reuse, first touch, pinned bitwise agreement.
// ---------------------------------------------------------------------------

TEST(RuntimeEngine, PoolReusedAcrossPrepareCalls) {
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = 8;
  PreparedStencil p1 =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 64}, opts);
  ASSERT_TRUE(p1.plan().tiled);
  ASSERT_NE(p1.pool(), nullptr);
  EXPECT_EQ(p1.pool()->threads(), 2);
  // A different preparation with the same (threads, affinity) reuses the
  // same pool — workers are per configuration, not per preparation.
  PreparedStencil p2 =
      Engine::instance().prepare(Preset::Heat2D, Extents{96, 80}, opts);
  ASSERT_NE(p2.pool(), nullptr);
  EXPECT_EQ(p1.pool(), p2.pool());
  // Untiled preparations carry no pool.
  ExecOptions off = opts;
  off.tiling = Tiling::Off;
  PreparedStencil p3 =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 64}, off);
  EXPECT_EQ(p3.pool(), nullptr);
}

TEST(RuntimeEngine, FirstTouchZeroesWholeBuffer) {
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.affinity = Affinity::Compact;
  opts.tsteps = 8;
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 64}, opts);
  ASSERT_TRUE(ps.plan().tiled);
  EXPECT_EQ(ps.affinity(), Affinity::Compact);
  const int h = ps.halo();
  Grid2D g(64, 72, h, /*zero_init=*/false);
  ps.first_touch(g.view());
  for (int y = -h; y < 64 + h; ++y)
    for (int x = -h; x < 72 + h; ++x)
      ASSERT_EQ(g.at(y, x), 0.0) << "y=" << y << " x=" << x;
  // The placement the workers touched by is the plan's.
  EXPECT_EQ(ps.plan().placement.workers, 2);
  EXPECT_GT(ps.plan().placement.ntiles(), 0);
}

void apply_small_size(Solver& s, int dims) {
  switch (dims) {
    case 1: s.size(2000); break;
    case 2: s.size(72, 64); break;
    default: s.size(36, 24, 20); break;
  }
  s.steps(8);
}

// The load-bearing guarantee of the whole layer: placement policy moves
// *where* a tile computes, never *what* it computes. Pinned and unpinned
// runs of every preset must agree bit for bit (the pool path vs itself
// under compact and scatter pinning, including first-touch workspaces).
TEST(RuntimeEngine, PinnedMatchesUnpinnedBitwiseAllPresets) {
  for (const auto& spec : all_presets()) {
    Solver none = Solver::make(spec.id).tiling(Tiling::On).threads(2);
    apply_small_size(none, spec.dims);
    none.run();

    for (Affinity aff : {Affinity::Compact, Affinity::Scatter}) {
      Solver pinned =
          Solver::make(spec.id).tiling(Tiling::On).threads(2).affinity(aff);
      apply_small_size(pinned, spec.dims);
      pinned.run();
      double diff = 1;
      switch (spec.dims) {
        case 1:
          diff = max_abs_diff(*none.workspace().grids<1>().a,
                              *pinned.workspace().grids<1>().a);
          break;
        case 2:
          diff = max_abs_diff(*none.workspace().grids<2>().a,
                              *pinned.workspace().grids<2>().a);
          break;
        default:
          diff = max_abs_diff(*none.workspace().grids<3>().a,
                              *pinned.workspace().grids<3>().a);
          break;
      }
      EXPECT_EQ(diff, 0.0) << spec.name << " " << affinity_name(aff);
    }
  }
}

// SF_AFFINITY supplies the process default; an explicit option outranks
// nothing here (the option is None), so the env decides — and the prepared
// handle reports the resolved policy.
// ---------------------------------------------------------------------------
// NeighborSync + pipelined pool tasks
// ---------------------------------------------------------------------------

TEST(NeighborSync, PublishSatisfiesWait) {
  NeighborSync sync;
  sync.reset(3);
  EXPECT_EQ(sync.workers(), 3);
  sync.publish(1, 1);
  sync.publish(1, 2);
  sync.wait_for(1, 1);  // already satisfied: returns immediately
  sync.wait_for(1, 2);
  // reset() re-arms: counters back to zero for the next task.
  sync.reset(3);
  sync.publish(1, 1);
  sync.wait_for(1, 1);
}

TEST(NeighborSync, WaitBlocksUntilNeighborPublishes) {
  NeighborSync sync;
  sync.reset(2);
  int payload = 0;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    payload = 42;       // must be visible after the paired wait_for
    sync.publish(0, 1); // release
  });
  sync.wait_for(0, 1);  // acquire
  EXPECT_EQ(payload, 42);
  t.join();
}

TEST(NeighborSync, AbandonUnblocksAnyFutureWait) {
  NeighborSync sync;
  sync.reset(2);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sync.abandon(0);
  });
  sync.wait_for(0, 1);
  sync.wait_for(0, 1000000);  // abandoned: every round reads as published
  t.join();
}

// ---------------------------------------------------------------------------
// Runtime telemetry: sync wait/park counters and pool task accounting.
// Handles resolve at construction, so each test enables SF_METRICS first
// and builds fresh objects.
// ---------------------------------------------------------------------------

TEST(NeighborSyncTelemetry, LongWaitIsCountedAndParks) {
  ASSERT_EQ(setenv("SF_METRICS", "1", 1), 0);
  telemetry::refresh_env();
  const telemetry::Snapshot before = telemetry::snapshot();
  {
    NeighborSync sync;
    sync.reset(2);
    std::thread waiter([&] { sync.wait_for(1, 5); });
    // Long enough that the waiter exhausts its spin budget and parks
    // before the publish arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sync.publish(1, 5);
    waiter.join();
  }
  const telemetry::Snapshot after = telemetry::snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  EXPECT_GE(delta("runtime.sync.waits"), 1);
  EXPECT_GT(delta("runtime.sync.wait_ns"), 0);
#if defined(__linux__)
  EXPECT_GE(delta("runtime.sync.parks"), 1);
#endif
  ASSERT_EQ(setenv("SF_METRICS", "0", 1), 0);
  telemetry::refresh_env();
}

TEST(NeighborSyncTelemetry, PublishWakesEveryParkedWaiter) {
  ASSERT_EQ(setenv("SF_METRICS", "1", 1), 0);
  telemetry::refresh_env();
  const telemetry::Snapshot before = telemetry::snapshot();
  {
    NeighborSync sync;
    sync.reset(4);
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i)
      waiters.emplace_back([&] { sync.wait_for(0, 1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sync.publish(0, 1);  // one wake must release all parked waiters
    for (auto& w : waiters) w.join();
  }
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GE(after.counter_value("runtime.sync.waits") -
                before.counter_value("runtime.sync.waits"),
            3);
  ASSERT_EQ(setenv("SF_METRICS", "0", 1), 0);
  telemetry::refresh_env();
}

TEST(WorkerPoolTelemetry, TaskCountersMatchDispatches) {
  ASSERT_EQ(setenv("SF_METRICS", "1", 1), 0);
  telemetry::refresh_env();
  // Fresh direct-constructed pool: its runtime.pool.* handles resolve live
  // (shared_pool could hand back a pool built before metrics were on).
  WorkerPool pool(2, Affinity::None);
  const telemetry::Snapshot before = telemetry::snapshot();
  pool.run([](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  pool.run([](int) {});
  const telemetry::Snapshot after = telemetry::snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  EXPECT_EQ(delta("runtime.pool.dispatches"), 2);
  EXPECT_EQ(delta("runtime.pool.tasks"), 4);  // 2 workers x 2 dispatches
  EXPECT_GT(delta("runtime.pool.busy_ns"), 0);
  const telemetry::HistogramSample* h =
      after.find_histogram("runtime.pool.task_us");
  ASSERT_NE(h, nullptr);
  std::int64_t hcount = h->count;
  if (const telemetry::HistogramSample* b =
          before.find_histogram("runtime.pool.task_us"))
    hcount -= b->count;
  EXPECT_EQ(hcount, 4);
  ASSERT_EQ(setenv("SF_METRICS", "0", 1), 0);
  telemetry::refresh_env();
}

TEST(WorkerPool, OnWorkerThreadIdentifiesOwnWorkersOnly) {
  WorkerPool pool(2, Affinity::None);
  WorkerPool other(2, Affinity::None);
  EXPECT_FALSE(pool.on_worker_thread());
  pool.run([&](int) {
    EXPECT_TRUE(pool.on_worker_thread());
    EXPECT_FALSE(other.on_worker_thread());
  });
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(WorkerPool, PipelinedWaveCompletesAndOrdersWrites) {
  // A backward-propagating wave: worker w publishes round b only after its
  // right neighbor published b-1; each round fills the worker's own slot
  // for that round, read by the left neighbor after its wait — the
  // acquire/release pairing must make every write before the publish
  // visible. Slots are preallocated and each written exactly once, so the
  // only cross-thread reads are of slots sequenced before a publish the
  // reader has already waited on (slots past the published round may still
  // be concurrently written and must not be touched).
  const int n = 4, rounds = 50;
  WorkerPool pool(n, Affinity::None);
  std::vector<std::vector<int>> cells(
      static_cast<size_t>(n), std::vector<int>(static_cast<size_t>(rounds), 0));
  pool.run_pipelined([&](int w, NeighborSync& sync) {
    for (int b = 1; b <= rounds; ++b) {
      if (w + 1 < n) {
        sync.wait_for(w + 1, b - 1);
        if (b > 1)
          ASSERT_EQ(cells[static_cast<size_t>(w) + 1][static_cast<size_t>(b) -
                                                      2],
                    b - 1);
      }
      cells[static_cast<size_t>(w)][static_cast<size_t>(b) - 1] = b;
      sync.publish(w, b);
    }
  });
  for (int w = 0; w < n; ++w)
    for (int b = 1; b <= rounds; ++b)
      EXPECT_EQ(cells[static_cast<size_t>(w)][static_cast<size_t>(b) - 1], b);
}

TEST(WorkerPool, PipelinedReArmsAcrossTasks) {
  WorkerPool pool(3, Affinity::None);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> done{0};
    pool.run_pipelined([&](int w, NeighborSync& sync) {
      // Stale counters from the previous task would satisfy this wait
      // before the publish and let a worker read `done` too early.
      sync.publish(w, 1);
      for (int o = 0; o < 3; ++o) sync.wait_for(o, 1);
      ++done;
    });
    EXPECT_EQ(done, 3);
  }
}

TEST(WorkerPool, PipelinedWorkerExceptionUnblocksNeighbors) {
  WorkerPool pool(3, Affinity::None);
  EXPECT_THROW(pool.run_pipelined([&](int w, NeighborSync& sync) {
                 if (w == 1) throw std::runtime_error("boom");
                 // Workers 0 and 2 wait on rounds the dead worker will
                 // never publish; abandon() must unblock them.
                 sync.publish(w, 1);
                 sync.wait_for(1, 1);
               }),
               std::runtime_error);
  // The pool survives and runs pipelined tasks again.
  std::atomic<int> ok{0};
  pool.run_pipelined([&](int w, NeighborSync& sync) {
    sync.publish(w, 1);
    ++ok;
  });
  EXPECT_EQ(ok, 3);
}

TEST(WorkerPool, PipelinedNestedCallThrows) {
  WorkerPool pool(2, Affinity::None);
  EXPECT_THROW(pool.run([&](int) {
                 pool.run_pipelined([](int, NeighborSync&) {});
               }),
               std::logic_error);
  // Off-pool threads (including another pool's workers) may still call it.
  WorkerPool other(2, Affinity::None);
  std::atomic<int> ran{0};
  other.run([&](int w) {
    if (w == 0)
      pool.run_pipelined([&](int, NeighborSync&) { ++ran; });
  });
  EXPECT_EQ(ran, 2);
}

TEST(WorkerPool, JitterStallZeroCostWhenUnset) {
  unsetenv("SF_TEST_JITTER");
  test_jitter_stall(0);  // no env: returns immediately, no crash
  ASSERT_EQ(setenv("SF_TEST_JITTER", "0", 1), 0);
  test_jitter_stall(1);
  unsetenv("SF_TEST_JITTER");
}

// The jitter hook + a pipelined wave: adversarial per-worker stalls must
// skew the stages without breaking the ordering contract.
TEST(WorkerPool, PipelinedSurvivesJitter) {
  ASSERT_EQ(setenv("SF_TEST_JITTER", "400", 1), 0);
  const int n = 4, rounds = 12;
  WorkerPool pool(n, Affinity::None);
  std::vector<long> sum(static_cast<size_t>(n), 0);
  pool.run_pipelined([&](int w, NeighborSync& sync) {
    for (int b = 1; b <= rounds; ++b) {
      test_jitter_stall(w);
      if (w + 1 < n) sync.wait_for(w + 1, b - 1);
      sum[static_cast<size_t>(w)] += b;
      sync.publish(w, b);
    }
  });
  unsetenv("SF_TEST_JITTER");
  for (int w = 0; w < n; ++w)
    EXPECT_EQ(sum[static_cast<size_t>(w)], rounds * (rounds + 1) / 2);
}

// Stress (ctest label `stress`): long adversarial runs — heavy jitter,
// oversubscribed + pinned workers, full pipelined advances through the
// tiling engine compared bitwise against the barrier schedule.
TEST(WorkerPoolStress, JitterAdversarialSkewBitwise) {
  ASSERT_EQ(setenv("SF_TEST_JITTER", "1500", 1), 0);
  const auto& spec = preset(Preset::Heat2D);
  const int ny = 128, nx = 64, tsteps = 24;
  const int halo =
      require_kernel(Method::Ours2, 2).required_halo(spec.p2.radius());
  TilePlan barrier;
  barrier.method = Method::Ours2;
  barrier.tile = 16;
  barrier.threads = 6;
  barrier.barrier = true;
  for (Affinity aff : {Affinity::None, Affinity::Compact, Affinity::Scatter}) {
    barrier.affinity = aff;
    TilePlan piped = barrier;
    piped.barrier = false;
    for (int rep = 0; rep < 6; ++rep) {
      Grid2D ba(ny, nx, halo), bb(ny, nx, halo), pa(ny, nx, halo),
          pb(ny, nx, halo);
      fill_random(ba, 100 + rep);
      fill_random(pa, 100 + rep);
      copy(ba, bb);
      copy(pa, pb);
      run_tile_plan(spec.p2, ba, bb, tsteps, barrier);
      run_tile_plan(spec.p2, pa, pb, tsteps, piped);
      EXPECT_EQ(max_abs_diff(pa, ba), 0.0)
          << affinity_name(aff) << " rep " << rep;
    }
  }
  unsetenv("SF_TEST_JITTER");
}

TEST(RuntimeEngine, EnvAffinityAppliesWhenUnset) {
  ASSERT_EQ(setenv("SF_AFFINITY", "compact", 1), 0);
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.threads = 2;
  opts.tsteps = 8;
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 64}, opts);
  EXPECT_EQ(ps.affinity(), Affinity::Compact);
  ASSERT_NE(ps.pool(), nullptr);
  EXPECT_EQ(ps.pool()->affinity(), Affinity::Compact);
  unsetenv("SF_AFFINITY");
  // With the env cleared the same request resolves to None — and is a
  // *different* preparation (the effective options are the cache key).
  PreparedStencil again =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 64}, opts);
  EXPECT_EQ(again.affinity(), Affinity::None);
}

// warm_pool() resolves threads and affinity exactly as prepare() does, so
// the pool it builds is the one a tiled preparation then acquires instead
// of building a second one.
TEST(RuntimeEngine, PrepareReusesTheWarmedPool) {
  const std::string saved_threads = env_str("SF_THREADS");
  ASSERT_EQ(setenv("SF_THREADS", "3", 1), 0);
  ASSERT_EQ(setenv("SF_POOL_CACHE", "64", 1), 0);  // no eviction mid-test
  Engine& eng = Engine::instance();
  eng.warm_pool();
  const std::size_t warmed = pool_cache_size();
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.tsteps = 8;
  PreparedStencil ps = eng.prepare(Preset::Heat2D, Extents{72, 96}, opts);
  EXPECT_EQ(pool_cache_size(), warmed);
  ASSERT_NE(ps.pool(), nullptr);
  EXPECT_EQ(ps.pool()->threads(), 3);
  unsetenv("SF_POOL_CACHE");
  if (saved_threads.empty())
    unsetenv("SF_THREADS");
  else
    setenv("SF_THREADS", saved_threads.c_str(), 1);
}

TEST(RuntimeEngine, EnvThreadsAppliesWhenUnset) {
  ASSERT_EQ(setenv("SF_THREADS", "2", 1), 0);
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.tsteps = 8;
  PreparedStencil ps =
      Engine::instance().prepare(Preset::Heat2D, Extents{72, 64}, opts);
  ASSERT_TRUE(ps.plan().tiled);
  EXPECT_EQ(ps.plan().tile.threads, 2);
  unsetenv("SF_THREADS");
}

}  // namespace
}  // namespace sf
