#include "runtime/worker_pool.hpp"

#include <pthread.h>
#include <sched.h>
#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "common/env.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace sf {

PlacementPlan balanced_placement(int ntiles, int workers, Affinity affinity) {
  PlacementPlan p;
  if (workers <= 0 || ntiles <= 0) return p;
  p.workers = workers;
  p.affinity = affinity;
  const int chunk = (ntiles + workers - 1) / workers;
  p.bounds.resize(static_cast<std::size_t>(workers) + 1);
  for (int w = 0; w <= workers; ++w)
    p.bounds[static_cast<std::size_t>(w)] = std::min(ntiles, w * chunk);
  return p;
}

namespace {

// Marks the pool the current thread is a worker of, so a nested run() on
// the same pool degrades to inline execution instead of deadlocking on its
// own barrier.
thread_local const WorkerPool* tls_current_pool = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// NeighborSync
// ---------------------------------------------------------------------------

#if defined(__linux__)
namespace {

// The futex word is the Slot's 32-bit epoch atomic; the kernel compares
// the raw cell against `expect`.
static_assert(sizeof(std::atomic<unsigned>) == sizeof(unsigned),
              "futex word must be the bare 32-bit cell");

void futex_wait(const std::atomic<unsigned>* addr, unsigned expect) {
  // Returns on wake, EAGAIN (word changed first) or spurious interrupt —
  // all handled by the caller's re-check loop.
  syscall(SYS_futex, reinterpret_cast<const void*>(addr), FUTEX_WAIT_PRIVATE,
          expect, nullptr, nullptr, 0);
}

void futex_wake_all(const std::atomic<unsigned>* addr) {
  syscall(SYS_futex, reinterpret_cast<const void*>(addr), FUTEX_WAKE_PRIVATE,
          INT_MAX, nullptr, nullptr, 0);
}

}  // namespace
#endif

NeighborSync::NeighborSync()
    : waits_(telemetry::counter("runtime.sync.waits")),
      wait_ns_(telemetry::counter("runtime.sync.wait_ns")),
      parks_(telemetry::counter("runtime.sync.parks")) {}

void NeighborSync::reset(int workers) {
  if (workers > workers_) slots_.reset(new Slot[static_cast<std::size_t>(workers)]);
  workers_ = workers;
  // relaxed: pre-publication zeroing. reset() runs under the pool's task
  // mutex before any worker of the new task can publish or wait, so there
  // is no concurrent reader to order against.
  for (int w = 0; w < workers; ++w)
    slots_[static_cast<std::size_t>(w)].seq.store(0, std::memory_order_relaxed);
}

void NeighborSync::publish(int w, long round) {
  Slot& s = slots_[static_cast<std::size_t>(w)];
  // seq_cst (not just release) pairs with the waiter's registration in
  // wait_for(): if the waiter's post-registration seq check missed this
  // store, this thread is guaranteed to observe its `waiters` increment
  // below and wake it (classic Dekker store/load on seq vs waiters).
  s.seq.store(round, std::memory_order_seq_cst);
#if defined(__linux__)
  if (s.waiters.load(std::memory_order_seq_cst) != 0) {
    s.epoch.fetch_add(1, std::memory_order_release);
    futex_wake_all(&s.epoch);
  }
#endif
}

void NeighborSync::wait_for(int w, long round) const {
  const Slot& s = slots_[static_cast<std::size_t>(w)];
  if (s.seq.load(std::memory_order_acquire) >= round) return;  // fast path
  const bool timed = wait_ns_.live();
  const std::int64_t t0 = timed ? telemetry::now_ns() : 0;
  // Short spin first (the common case: the neighbor is at most one stage
  // behind), then park so oversubscribed pools donate CPU to the worker
  // being waited on instead of starving it.
  bool done = false;
  for (int spin = 0; spin < 1024 && !done; ++spin) {
    done = s.seq.load(std::memory_order_acquire) >= round;
#if defined(__x86_64__) || defined(__i386__)
    if (!done) __builtin_ia32_pause();
#endif
  }
  while (!done) {
#if defined(__linux__)
    // Park on the slot's epoch word. Ordering against publish(): register
    // in `waiters` (seq_cst), then re-check seq (seq_cst). If the re-check
    // still misses the publish, the publisher's later `waiters` load must
    // observe the registration, so it bumps the epoch and wakes — and a
    // bump between our epoch read and futex_wait makes the sleep return
    // immediately rather than missing it.
    const unsigned epoch = s.epoch.load(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_seq_cst) >= round) break;
    s.waiters.fetch_add(1, std::memory_order_seq_cst);
    if (s.seq.load(std::memory_order_seq_cst) >= round) {
      // relaxed: deregistration only. A publisher reading the stale
      // non-zero count does one harmless extra epoch bump + wake; the
      // Dekker pairing that prevents lost wakes is the seq_cst
      // registration above, not this exit.
      s.waiters.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
    parks_.add(1);
    futex_wait(&s.epoch, epoch);
    // relaxed: same deregistration as above — only the increment side of
    // the park protocol needs seq_cst ordering against `seq`.
    s.waiters.fetch_sub(1, std::memory_order_relaxed);
#else
    std::this_thread::yield();
#endif
    done = s.seq.load(std::memory_order_acquire) >= round;
  }
  if (timed) {
    waits_.add(1);
    wait_ns_.add(telemetry::now_ns() - t0);
  }
}

void NeighborSync::abandon(int w) { publish(w, LONG_MAX); }

// ---------------------------------------------------------------------------
// Test-only jitter injection
// ---------------------------------------------------------------------------

void test_jitter_stall(int worker) {
  // Read per call, not once: tests setenv/unsetenv around individual cases
  // and a cached parse would go stale. One getenv per *stage* (not per
  // wedge) is noise next to the stage's compute.
  const long max_us = test_jitter_us();
  if (max_us <= 0) return;
  // xorshift64, seeded from the worker index so neighbors skew differently
  // and deterministically within one thread's stage sequence.
  thread_local std::uint64_t state = 0;
  if (state == 0)
    state = (static_cast<std::uint64_t>(worker) + 1) * 0x9e3779b97f4a7c15ull;
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<long>(state % static_cast<std::uint64_t>(max_us + 1))));
}

struct WorkerPool::Sync {
  Mutex run_mu;  // serializes whole tasks across master threads

  Mutex mu;  // guards the annotated fields below
  CondVar work_cv;
  CondVar done_cv;
  const std::function<void(int)>* task SF_GUARDED_BY(mu) = nullptr;
  long epoch SF_GUARDED_BY(mu) = 0;
  int pending SF_GUARDED_BY(mu) = 0;
  bool stop SF_GUARDED_BY(mu) = false;
  std::exception_ptr first_error SF_GUARDED_BY(mu);

  std::vector<std::thread> threads;  // ctor spawns, dtor joins; no races
};

WorkerPool::WorkerPool(int threads, Affinity affinity, const Topology& topo)
    : affinity_(affinity),
      sync_(new Sync),
      t_dispatches_(telemetry::counter("runtime.pool.dispatches")),
      t_tasks_(telemetry::counter("runtime.pool.tasks")),
      t_busy_ns_(telemetry::counter("runtime.pool.busy_ns")),
      t_task_us_(telemetry::histogram("runtime.pool.task_us")) {
  if (threads < 1) threads = 1;
  workers_.resize(static_cast<std::size_t>(threads));

  const std::vector<int> order = topo.pin_order(affinity);
  for (int w = 0; w < threads; ++w) {
    if (!order.empty()) {
      const int cpu = order[static_cast<std::size_t>(w) % order.size()];
      workers_[static_cast<std::size_t>(w)].cpu = cpu;
      workers_[static_cast<std::size_t>(w)].node = topo.node_of(cpu);
    }
  }

  for (int w = 0; w < threads; ++w) {
    sync_->threads.emplace_back([this, w] {
      tls_current_pool = this;
      const int cpu = workers_[static_cast<std::size_t>(w)].cpu;
      if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(cpu), &set);
        // Best effort: a shrunken cgroup cpuset (containers) can reject
        // the pin; the worker then floats like Affinity::None.
        (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      }
      Sync& s = *sync_;
      long seen = 0;
      for (;;) {
        const std::function<void(int)>* task = nullptr;
        {
          UniqueLock lock(s.mu);
          // Explicit predicate loop (not a wait-with-lambda): the guarded
          // reads stay in this scope where the thread-safety analysis can
          // see the lock is held.
          while (!s.stop && s.epoch == seen) s.work_cv.wait(lock);
          if (s.stop) return;
          seen = s.epoch;
          task = s.task;
        }
        {
          // Per-worker task accounting: one span + one histogram record
          // per pool *task* (a whole stage or pipelined schedule), never
          // per cell — dead branches when telemetry is off.
          const bool timed = t_busy_ns_.live();
          const std::int64_t t0 = timed ? telemetry::now_ns() : 0;
          telemetry::Span span("pool.task");
          try {
            (*task)(w);
          } catch (...) {
            LockGuard lock(s.mu);
            if (!s.first_error) s.first_error = std::current_exception();
          }
          if (timed) {
            const std::int64_t dur = telemetry::now_ns() - t0;
            t_tasks_.add(1);
            t_busy_ns_.add(dur);
            t_task_us_.record(dur / 1000);
          }
        }
        {
          LockGuard lock(s.mu);
          if (--s.pending == 0) s.done_cv.notify_all();
        }
      }
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    LockGuard lock(sync_->mu);
    sync_->stop = true;
  }
  sync_->work_cv.notify_all();
  for (std::thread& t : sync_->threads) t.join();
}

void WorkerPool::run_locked(const std::function<void(int)>& fn) {
  Sync& s = *sync_;
  t_dispatches_.add(1);
  std::exception_ptr err;
  {
    UniqueLock lock(s.mu);
    s.task = &fn;
    s.pending = threads();
    s.first_error = nullptr;
    ++s.epoch;
    s.work_cv.notify_all();
    // Explicit loop so the guarded `pending` read is visibly under the
    // lock (see the worker loop's matching comment).
    while (s.pending != 0) s.done_cv.wait(lock);
    s.task = nullptr;
    err = s.first_error;
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::run(const std::function<void(int)>& fn) {
  if (tls_current_pool == this) {
    // Nested run() from one of our own workers: execute inline serially.
    for (int w = 0; w < threads(); ++w) fn(w);
    return;
  }
  LockGuard task_lock(sync_->run_mu);
  run_locked(fn);
}

bool WorkerPool::on_worker_thread() const { return tls_current_pool == this; }

void WorkerPool::run_pipelined(
    const std::function<void(int, NeighborSync&)>& fn) {
  if (tls_current_pool == this)
    throw std::logic_error(
        "WorkerPool::run_pipelined called from a worker of the same pool; "
        "pipelined tasks cannot run inline (gate on on_worker_thread())");
  // The sync reset must be ordered against other tasks on this pool, so it
  // happens under the same task mutex the dispatch uses.
  LockGuard task_lock(sync_->run_mu);
  nsync_.reset(threads());
  run_locked([&](int w) {
    try {
      fn(w, nsync_);
    } catch (...) {
      // Unblock neighbors waiting on this worker's counter before the
      // pool captures the exception — otherwise they spin on a round the
      // thrower will never publish and the task never joins.
      nsync_.abandon(w);
      throw;
    }
  });
}

void WorkerPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn) {
  const int n = end - begin;
  if (n <= 0) return;
  const PlacementPlan place = balanced_placement(n, threads(), affinity_);
  run([&](int w) {
    const auto [t0, t1] = place.tiles_of(w);
    for (int i = t0; i < t1; ++i) fn(begin + i);
  });
}

void WorkerPool::ensure_arena_local(int w, std::size_t doubles) {
  AlignedBuffer& a = arena(w);
  // AlignedBuffer zero-fills on construction: the memset happens on this
  // (pinned) worker, so first-touch policy places the pages on its node.
  if (a.size() < doubles) a = AlignedBuffer(doubles);
}

namespace {

// The shared_pool() registry: an LRU-capped list of cached configurations.
// Pools referenced outside the cache (use_count() > 1) are pinned — eviction
// only drops entries whose sole owner is the cache itself, so a prepared
// plan's pool can never be torn down underneath it. The registry is leaked
// intentionally (never destroyed) so pools held across static destruction
// stay valid; evicted/released pools join their workers when the last
// shared_ptr drops, which for unreferenced entries is inside the registry
// lock.
struct PoolCache {
  struct Entry {
    int threads = 0;
    Affinity affinity = Affinity::None;
    unsigned long last_use = 0;
    std::shared_ptr<WorkerPool> pool;
  };
  Mutex mu;
  std::vector<Entry> entries SF_GUARDED_BY(mu);
  unsigned long tick SF_GUARDED_BY(mu) = 0;
};

PoolCache& pool_cache() {
  static PoolCache* cache = new PoolCache();
  return *cache;
}

// Drops cache-only entries, oldest first, until at most `cap` remain (or no
// droppable entry is left). Caller holds the registry mutex. The dropped
// shared_ptrs are handed back so the caller can destroy them (joining
// worker threads) *outside* the lock.
std::vector<std::shared_ptr<WorkerPool>> evict_lru_locked(PoolCache& c,
                                                          std::size_t cap)
    SF_REQUIRES(c.mu) {
  std::vector<std::shared_ptr<WorkerPool>> dropped;
  while (c.entries.size() > cap) {
    std::size_t victim = c.entries.size();
    for (std::size_t i = 0; i < c.entries.size(); ++i) {
      if (c.entries[i].pool.use_count() != 1) continue;  // pinned elsewhere
      if (victim == c.entries.size() ||
          c.entries[i].last_use < c.entries[victim].last_use)
        victim = i;
    }
    if (victim == c.entries.size()) break;  // everything is referenced
    dropped.push_back(std::move(c.entries[victim].pool));
    c.entries.erase(c.entries.begin() +
                    static_cast<std::ptrdiff_t>(victim));
  }
  return dropped;
}

}  // namespace

std::shared_ptr<WorkerPool> shared_pool(int threads, Affinity affinity) {
  if (threads <= 0) threads = hardware_threads();
  PoolCache& c = pool_cache();
  std::vector<std::shared_ptr<WorkerPool>> graveyard;
  std::shared_ptr<WorkerPool> pool;
  {
    LockGuard lock(c.mu);
    for (PoolCache::Entry& e : c.entries) {
      if (e.threads == threads && e.affinity == affinity) {
        e.last_use = ++c.tick;
        return e.pool;
      }
    }
    pool = std::make_shared<WorkerPool>(threads, affinity);
    c.entries.push_back({threads, affinity, ++c.tick, pool});
    graveyard = evict_lru_locked(
        c, static_cast<std::size_t>(pool_cache_cap()));
  }
  // graveyard destructs here, joining evicted pools' workers off-lock.
  return pool;
}

bool release_pool(int threads, Affinity affinity) {
  if (threads <= 0) threads = hardware_threads();
  PoolCache& c = pool_cache();
  std::shared_ptr<WorkerPool> dropped;
  {
    LockGuard lock(c.mu);
    for (std::size_t i = 0; i < c.entries.size(); ++i) {
      if (c.entries[i].threads == threads &&
          c.entries[i].affinity == affinity) {
        dropped = std::move(c.entries[i].pool);
        c.entries.erase(c.entries.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  return dropped != nullptr;
}

std::size_t release_unused_pools() {
  PoolCache& c = pool_cache();
  std::vector<std::shared_ptr<WorkerPool>> dropped;
  {
    LockGuard lock(c.mu);
    dropped = evict_lru_locked(c, 0);
  }
  return dropped.size();
}

std::size_t pool_cache_size() {
  PoolCache& c = pool_cache();
  LockGuard lock(c.mu);
  return c.entries.size();
}

}  // namespace sf
