/// \file
/// \brief Persistent, topology-pinned worker pool — the execution substrate
/// of the split-tiled stages.
///
/// The tiled wedge schedule used to open an OpenMP parallel region per
/// stage, with no control over where threads ran or whose memory their
/// tiles touched. `sf::WorkerPool` replaces that with a runtime the library
/// owns: `threads` persistent workers, created once and parked on a
/// condition variable between tasks, optionally pinned to CPUs chosen from
/// the machine Topology by an Affinity policy. Persistent + pinned workers
/// are what make *first-touch* placement meaningful: memory a worker
/// allocates or first writes (its workspace arena, its share of a field
/// buffer) lands on that worker's NUMA node and stays useful for every
/// subsequent super-step, because the same worker keeps owning the same
/// tiles (see PlacementPlan).
///
/// Scheduling is deliberately static — `run()` hands every worker its index
/// and the caller maps indices to contiguous tile ranges
/// (balanced_placement(), the OpenMP `schedule(static)` shape) — so results
/// are bitwise independent of the policy: placement moves *where* a tile
/// computes, never *what* it computes.
///
/// Pools are shared per (threads, affinity) configuration via
/// shared_pool(); Engine::prepare builds or reuses them so the execute path
/// never pays thread creation.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "runtime/topology.hpp"
#include "telemetry/telemetry.hpp"

namespace sf {

/// Which pool worker owns which contiguous run of wedge tiles (tile indices
/// along the tiled dimension). Negotiated at plan time alongside
/// tile/time_block (ExecutionPlan::placement) and recomputed identically by
/// the tiling engine — balanced_placement() is the single source of the
/// mapping, so the plan can never drift from what executes. First-touch
/// initialization walks the same map so each worker's tiles live on its
/// NUMA node.
struct PlacementPlan {
  int workers = 0;  ///< Pool size (0 = no pool; the run is serial).
  Affinity affinity = Affinity::None;  ///< Policy the pool pins with.
  std::vector<int> bounds;  ///< size workers+1: worker w owns tile indices
                            ///< [bounds[w], bounds[w+1]).

  /// Number of tiles placed (0 for an empty plan).
  int ntiles() const { return bounds.empty() ? 0 : bounds.back(); }
  /// The tile range worker `w` owns.
  std::pair<int, int> tiles_of(int w) const {
    return {bounds[static_cast<std::size_t>(w)],
            bounds[static_cast<std::size_t>(w) + 1]};
  }
};

/// The static ownership map: `ntiles` tiles over `workers` workers in
/// contiguous chunks of ceil(ntiles/workers) — the exact shape OpenMP's
/// `schedule(static)` used, so the pool rewrite preserves tile-to-stage
/// grouping (and therefore bitwise results trivially, as tiles are
/// independent).
PlacementPlan balanced_placement(int ntiles, int workers, Affinity affinity);

/// Point-to-point progress counters for pipelined pool tasks: one padded
/// acquire/release sequence number per worker. A long-lived task
/// (WorkerPool::run_pipelined) publishes monotonically increasing round
/// numbers as it completes stages; a neighbor that needs the published data
/// waits only on that worker's counter — no global barrier, so fast workers
/// pipeline ahead into their next stage while slow ones finish.
///
/// The release store in publish() paired with the acquire load in
/// wait_for() makes every write the publisher performed before publishing
/// visible to the waiter — that is the whole memory-ordering contract the
/// barrier used to provide, scoped down to one producer/consumer edge.
class NeighborSync {
 public:
  /// Resolves the telemetry counters (`runtime.sync.*`) against the
  /// SF_METRICS state at construction time.
  NeighborSync();
  /// Re-arms the counters for a task over `workers` workers (all zero).
  /// Must not race with publish/wait (the pool resets between tasks, under
  /// its task serialization).
  void reset(int workers);
  /// Announces worker `w` has completed `round` (rounds must be published
  /// in increasing order per worker; the store orders all prior writes
  /// before the counter — and wakes any futex-parked waiter).
  void publish(int w, long round);
  /// Blocks until worker `w` has published at least `round` (acquire).
  /// Spins briefly with pause, then parks on a futex (Linux; portable
  /// yield fallback elsewhere) so oversubscribed pools donate their CPU to
  /// the worker being waited on instead of burning it. Wait/park activity
  /// is recorded in the `runtime.sync.*` telemetry counters.
  void wait_for(int w, long round) const;
  /// Marks worker `w` as finished with every round it could ever publish
  /// (used on the exception path so neighbors waiting on a dead worker
  /// unblock instead of hanging).
  void abandon(int w);
  /// Number of workers the last reset() armed (0 before any reset).
  int workers() const { return workers_; }

 private:
  struct alignas(64) Slot {  // one cache line per worker: no false sharing
    std::atomic<long> seq{0};
    /// Futex generation word: bumped by publish() when `waiters` is
    /// non-zero; a parked waiter sleeps on this 32-bit word, so a bump
    /// between its epoch read and its futex_wait makes the sleep return
    /// immediately instead of missing the wake.
    mutable std::atomic<unsigned> epoch{0};
    /// Number of threads inside the park protocol for this slot.
    mutable std::atomic<int> waiters{0};
  };
  std::unique_ptr<Slot[]> slots_;
  int workers_ = 0;
  telemetry::Counter waits_;    ///< runtime.sync.waits — slow-path entries.
  telemetry::Counter wait_ns_;  ///< runtime.sync.wait_ns — total blocked ns.
  telemetry::Counter parks_;    ///< runtime.sync.parks — futex sleeps.
};

/// Test-only fault injection for pipelined schedules: sleeps the calling
/// worker a pseudo-random 0..SF_TEST_JITTER microseconds (deterministic per
/// worker index sequence, distinct across workers) so stress tests force
/// maximal stage skew between neighbors. Compiled in always; returns
/// immediately when `SF_TEST_JITTER` is unset or 0, so production pays one
/// getenv per stage and nothing else.
void test_jitter_stall(int worker);

/// Persistent worker pool with optional topology pinning. Workers are
/// spawned in the constructor, parked between tasks, and joined in the
/// destructor. Thread-safe: concurrent run() calls from distinct master
/// threads serialize on an internal mutex (each task still runs on all
/// workers). A worker that calls run() on its own pool executes the task
/// inline serially instead of deadlocking (documented degenerate case).
class WorkerPool {
 public:
  /// Spawns `threads` workers (>= 1) pinned per `affinity` against `topo`.
  /// With more workers than pinnable CPUs the pin order wraps around
  /// (oversubscription is legal and deadlock-free; workers just share
  /// CPUs).
  explicit WorkerPool(int threads, Affinity affinity = Affinity::None,
                      const Topology& topo = Topology::system());
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of workers.
  int threads() const { return static_cast<int>(workers_.size()); }
  /// The placement policy the pool was built with.
  Affinity affinity() const { return affinity_; }
  /// CPU id worker `w` is pinned to (-1 when unpinned).
  int cpu_of_worker(int w) const { return workers_[static_cast<std::size_t>(w)].cpu; }
  /// NUMA node of worker `w`'s CPU (-1 when unpinned/unknown).
  int node_of_worker(int w) const { return workers_[static_cast<std::size_t>(w)].node; }

  /// Runs `fn(worker_index)` on every worker and returns when all have
  /// finished (one task, one barrier). Exceptions thrown by workers are
  /// captured; the first one is rethrown on the calling thread after the
  /// barrier.
  void run(const std::function<void(int)>& fn);

  /// Long-lived-task mode: runs `fn(worker_index, sync)` on every worker
  /// with a freshly re-armed NeighborSync, and returns when all workers
  /// have finished. Unlike run() — where each pool dispatch is a stage and
  /// the task boundary a global barrier — a pipelined task spans many
  /// stages and orders itself purely through the sync object's
  /// point-to-point publish/wait edges, so workers never collectively
  /// rendezvous until the final task join. A worker that throws has its
  /// counter abandon()ed before the exception is captured, so neighbors
  /// waiting on it unblock; the first exception is rethrown on the caller
  /// after the join, exactly as run().
  ///
  /// Must be called from off-pool threads only: a pipelined schedule
  /// cannot degrade to the inline serial execution nested run() uses
  /// (worker w's waits on w+1 could never be satisfied in index order), so
  /// a nested call throws std::logic_error. Callers gate on
  /// on_worker_thread() and fall back to their barrier path.
  void run_pipelined(const std::function<void(int, NeighborSync&)>& fn);

  /// True when the calling thread is one of this pool's workers (a nested
  /// run() would execute inline; run_pipelined() would throw).
  bool on_worker_thread() const;

  /// Static parallel for: splits [begin, end) into the
  /// balanced_placement() chunks and calls `fn(i)` for each index on its
  /// owning worker.
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

  /// Worker `w`'s scratch buffer. It lives for the pool's lifetime and is
  /// allocated *by* worker `w` (ensure_arena_local), so its pages are
  /// first-touched on the worker's NUMA node. The tiled 2-D/3-D folded
  /// stage keeps its counterpart window here.
  AlignedBuffer& arena(int w) {
    return workers_[static_cast<std::size_t>(w)].arena;
  }

  /// Grows worker `w`'s arena to at least `doubles` doubles, allocating
  /// and zeroing it on the calling worker so first touch places the pages;
  /// a no-op when it is already that large (the arena survives across runs
  /// and never shrinks, so runs of differently sized plans on one worker do
  /// not reallocate). Must be called from a task already running on worker
  /// `w` (arenas are worker-owned; only the owner may inspect or resize
  /// its buffer) — the pipelined wedge prologue uses this to fold the
  /// first-touch zeroing into the slot that already overlaps the first
  /// super-step.
  void ensure_arena_local(int w, std::size_t doubles);

 private:
  struct Worker {
    AlignedBuffer arena;
    int cpu = -1;
    int node = -1;
  };

  struct Sync;  // pimpl: mutexes/condvars/thread handles

  // Dispatches one task over all workers; caller holds the task mutex.
  void run_locked(const std::function<void(int)>& fn);

  std::vector<Worker> workers_;
  Affinity affinity_ = Affinity::None;
  std::unique_ptr<Sync> sync_;
  NeighborSync nsync_;  // reused per run_pipelined() task

  // Telemetry handles (runtime.pool.*), resolved at pool construction —
  // dead no-ops unless SF_METRICS was on when the pool was built.
  telemetry::Counter t_dispatches_;  // tasks dispatched (one per run())
  telemetry::Counter t_tasks_;       // per-worker task executions
  telemetry::Counter t_busy_ns_;     // summed worker-task ns (utilization
                                     // = busy_ns / (threads * wall))
  telemetry::Histogram t_task_us_;   // per-worker task duration (us)
};

/// The process-wide pool for a (threads, affinity) configuration, built on
/// first request and shared by reference count (workers park between tasks,
/// so a cached idle pool costs nothing but memory). `threads` <= 0 resolves
/// to hardware_threads(). This is what Engine::prepare "builds or reuses";
/// direct run_tile_plan() callers resolve the same pool, so the prepared
/// path and the raw path share workers.
///
/// Lifecycle: the registry behind this function keeps one reference per
/// cached configuration and retains at most `SF_POOL_CACHE` pools (default
/// 8). Acquiring a pool beyond the cap evicts the least-recently-used
/// configuration *nobody else references* — a pool still held by a
/// PreparedStencil, a Server, or any caller-side shared_ptr is never
/// evicted; it merely stops being cached and dies (workers joined) when its
/// last external reference drops. release_pool()/release_unused_pools()
/// drop cache references explicitly.
std::shared_ptr<WorkerPool> shared_pool(int threads, Affinity affinity);

/// Drops the registry's cached reference to the (threads, affinity) pool
/// (`threads` <= 0 resolves as in shared_pool). The pool's worker threads
/// shut down as soon as the last outstanding shared_ptr releases —
/// immediately, when no prepared handle or server still holds one. Returns
/// false when the configuration was not cached. A subsequent shared_pool()
/// for the same configuration simply builds a fresh pool.
bool release_pool(int threads, Affinity affinity);

/// Evicts every cached pool whose only remaining reference is the
/// registry's own (their workers join before this returns). Referenced
/// pools stay cached. Returns the number of pools released.
std::size_t release_unused_pools();

/// Number of (threads, affinity) configurations the pool registry currently
/// caches (referenced or not). Exposed for tests and introspection.
std::size_t pool_cache_size();

}  // namespace sf
