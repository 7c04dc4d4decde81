// Shared pieces of the performance ledger: run options, the outcome record
// every workload and probe fills in, latency statistics, the span recorder
// of the traced pass, and the serving load generator.
//
// The ledger calls the library only through its public entry points (see
// README.md, "API surface"), and reads no environment variable: every
// option is a command-line flag of sf_ledger.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "grid/field_view.hpp"

namespace ledger {

/// Command-line options of one sf_ledger run.
struct Options {
  std::string workload;     ///< heat3d_dram | box2d_incache | ...
  std::uint64_t seed = 1;   ///< Drives every generated input.
  double seconds = 10;      ///< Length of the measured phase.
  bool trace = false;       ///< Traced pass + layer probes instead of the
                            ///< end-to-end metrics.
  bool host = false;        ///< Only the host roofline probes.
  std::string out;          ///< Directory for trace.json / layers.csv.
  int threads = 1;          ///< Worker threads (the host's nproc).
};

/// One reported number.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one workload pass or probe suite reports: operations attempted and
/// failed (a failed operation threw, was rejected, or produced a wrong
/// result), plus its metrics.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  /// Records one checked operation; a false `ok` counts as failed.
  void check(bool ok, const std::string& what);
  /// Records a failure of an operation already counted in `attempted`.
  void fail(const std::string& what);
  void add(const std::string& name, const std::string& unit, double value);
  /// Folds another outcome's counts, errors and metrics into this one.
  void merge(const Outcome& o);
};

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50);
}

/// Deterministic per-purpose seed: the run seed mixed with a stream id, so
/// every generated input is a function of --seed alone.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// True when the interiors of two same-shaped views are bitwise equal.
bool bitwise_equal(const sf::FieldView1D& a, const sf::FieldView1D& b);
bool bitwise_equal(const sf::FieldView2D& a, const sf::FieldView2D& b);
bool bitwise_equal(const sf::FieldView3D& a, const sf::FieldView3D& b);

/// Relative tolerance of folded kernels against the naive reference, as in
/// the library's tests: |got - ref| <= kTolerance * max(1, max|ref|).
constexpr double kTolerance = 1e-10;

// ---------------------------------------------------------------------------
// Span recorder of the traced pass.
// ---------------------------------------------------------------------------

/// One recorded call into a library layer.
struct SpanRecord {
  const char* layer;     ///< kernels | fold | layout | tiling | runtime |
                         ///< core | serving | host
  const char* name;      ///< The entry point called.
  int workload;          ///< Which Tracer::set_workload() id was current.
  long id;               ///< 1-based span id.
  long parent;           ///< Enclosing span on the same thread (0 = none,
                         ///< -1 = recorded in flight by Tracer::record).
  int tid;               ///< Small per-thread index.
  double t0, t1;         ///< Seconds since the tracer's epoch.
};

/// Process-wide span store. Spans stay in memory until write(); recording
/// is a single relaxed load and branch while the tracer is off.
class Tracer {
 public:
  static Tracer& get();

  // relaxed: toggled only between phases, while no other thread records.
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  /// Spans recorded from now on carry this workload id.
  void set_workload(const std::string& name);
  /// Seconds since the tracer's epoch.
  double now() const { return since(epoch_); }
  long next_id() { return ids_.fetch_add(1) + 1; }
  /// Stores a finished span (stamped with the current workload id).
  void push(SpanRecord r);
  /// Records a span whose start and end the caller took, with no parent —
  /// e.g. a served request, which starts at its due time on one thread and
  /// ends when another thread sees it complete.
  void record(const char* layer, const char* name, double t0, double t1);

  /// Writes `dir`/trace.json (chrome trace) and `dir`/layers.csv (self time
  /// per workload and layer).
  void write(const std::string& dir) const;

 private:
  Tracer() : epoch_(Clock::now()) {}
  std::atomic<bool> on_{false};
  std::atomic<long> ids_{0};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;       // guarded by mu_
  std::vector<std::string> workloads_;  // guarded by mu_
  int workload_ = -1;                   // guarded by mu_
};

/// RAII span around one call into a layer. Spans nest per thread: a span
/// opened while another is open on the same thread is its child.
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  long id_ = 0;
  long parent_ = 0;
  double t0_ = 0;
};

// ---------------------------------------------------------------------------
// Serving load generator (serve.cpp), shared by serve_mixed and the serving
// probe.
// ---------------------------------------------------------------------------

/// Open-loop arrival rate (requests per second) of serve_mixed and the
/// serving probe: light load. On the 4-vCPU baseline host (README.md), at
/// 500 req/s queueing behind slowed requests amplified the host's noise and
/// the 90th-percentile latency varied by 15 % over ten runs, against 2.5 %
/// at this rate.
constexpr double kServeRate = 250;

/// What one load phase measured.
struct LoadPhase {
  std::vector<double> latency_s;  ///< Per request: open loop from its due
                                  ///< time, closed loop from its submit.
  std::vector<double> submit_s;   ///< Time spent inside Server::submit().
  double late_max_s = 0;          ///< Largest generator lateness.
  long completed = 0;             ///< Completed correctly within the phase.
  double flops = 0;               ///< Useful flops of those requests.
  double window_s = 0;            ///< Phase length.
  long batches = 0;               ///< Server dispatches during the phase.
};

/// An sf::Server with the seeded three-plan request mix of serve_mixed:
/// 60 % Heat2D 128^2 x 8 steps, 25 % GB 96^2 x 8, 15 % Heat3D 32^3 x 4,
/// over four tenants. Every 32nd request is snapshotted for verify().
class ServeLoad {
 public:
  /// Starts the server, prepares the plans and first-touches the initial
  /// request buffers. Request outcomes are counted into `out`.
  ServeLoad(const Options& o, Outcome& out);
  ~ServeLoad();
  ServeLoad(const ServeLoad&) = delete;
  ServeLoad& operator=(const ServeLoad&) = delete;

  /// Seconds the constructor spent in those library calls.
  double setup_seconds() const;
  /// Poisson arrivals at `rate` per second for `seconds`, sent by one
  /// thread and collected by another that the server's completion callback
  /// wakes. `direct` calls advance() on the sender instead of submitting.
  LoadPhase open_loop(double rate, double seconds, bool direct = false);
  /// `outstanding` requests kept in flight for `seconds`.
  LoadPhase closed_loop(int outstanding, double seconds);
  /// Replays every snapshotted request with a direct advance() and checks
  /// it bitwise against the served output.
  void verify();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Workloads and probes (workloads.cpp, probes.cpp).
// ---------------------------------------------------------------------------

/// Names of the four workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload for `seconds` of measurement and returns its checks,
/// its end-to-end metrics (gflops, p90_ms, setup_s) and the workload.*
/// diagnostics (p50_ms, p99_ms, mean_gflops).
Outcome run_workload(const Options& o, double seconds);

/// The per-layer probe suite: every per-layer metric of BENCHMARK.json but
/// workload.* and trace.overhead_pct, on fixed inputs drawn from the seed.
Outcome run_probes(const Options& o);

/// The host roofline probes alone (STREAM-style triad at L2 and DRAM
/// sizes, independent-FMA-chain peak), for the host signature.
Outcome run_host_probes(const Options& o);

/// Host signature (CPU model, nproc, caches, ISA) as a JSON object.
std::string host_json();

}  // namespace ledger
