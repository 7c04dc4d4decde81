#include "telemetry/telemetry.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "common/env.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace sf::telemetry {

namespace {

// Shards per metric. A power of two so the thread->shard map is a mask;
// 16 shards x 64B lines bounds a counter at 1 KiB while keeping the
// collision rate low for the pool sizes this library runs (worker counts
// beyond 16 share shards — still exact, just occasionally contended).
constexpr unsigned kShards = 16;

std::atomic<unsigned> shard_seq{0};
std::atomic<int> tid_seq{0};

// Round-robin shard assignment at first use per thread: workers created
// together land on distinct shards.
unsigned my_shard() {
  // relaxed: a pure id allocator — each thread only needs a unique ticket,
  // and the RMW's own atomicity guarantees that; no other data is ordered
  // by it.
  thread_local const unsigned shard =
      shard_seq.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

int my_tid() {
  // relaxed: same id-allocator argument as my_shard().
  thread_local const int tid = tid_seq.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

namespace detail {

struct CounterCells {
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  Cell cells[kShards];

  std::int64_t sum() const {
    std::int64_t s = 0;
    // relaxed: statistical read. Shard cells are independent monotone
    // tallies; a reader racing writers sees a slightly-stale total, which
    // is the documented contract of snapshot() — no write is ordered by a
    // counter value.
    for (const Cell& c : cells) s += c.v.load(std::memory_order_relaxed);
    return s;
  }
};

struct HistogramCells {
  // One shard is only ever hammered by (mostly) one thread, so the
  // buckets inside it share lines freely; padding isolates *shards* from
  // each other.
  struct alignas(64) Shard {
    std::atomic<std::int64_t> buckets[kHistogramBuckets] = {};
    std::atomic<std::int64_t> count{0};
    std::atomic<std::int64_t> sum{0};
  };
  Shard shards[kShards];

  HistogramSample aggregate(const std::string& name) const {
    HistogramSample out;
    out.name = name;
    out.buckets.fill(0);
    for (const Shard& s : shards) {
      // relaxed: statistical read, as CounterCells::sum(). A racing
      // record() may be half-applied (bucket visible, sum not yet): the
      // aggregate is approximate by contract, never used for ordering.
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      // relaxed: same statistical-read contract as count/sum above.
      for (int b = 0; b < kHistogramBuckets; ++b)
        out.buckets[static_cast<std::size_t>(b)] +=
            s.buckets[b].load(std::memory_order_relaxed);
    }
    return out;
  }
};

struct SampleTable {
  Mutex mu;
  std::vector<std::string> columns SF_GUARDED_BY(mu);
  std::vector<std::vector<std::string>> rows SF_GUARDED_BY(mu);
};

}  // namespace detail

namespace {

struct TraceRing {
  Mutex mu;
  int tid = 0;  // immutable after creation (set before the ring is shared)
  // fixed capacity, set at creation
  std::vector<TraceEvent> slots SF_GUARDED_BY(mu);
  std::size_t head SF_GUARDED_BY(mu) = 0;    // next write index
  std::uint64_t total SF_GUARDED_BY(mu) = 0;  // events ever recorded
                                              // (wrap detection)
};

struct Registry {
  Mutex mu;
  std::map<std::string, std::unique_ptr<detail::CounterCells>> counters
      SF_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<detail::HistogramCells>> histograms
      SF_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<detail::SampleTable>> samples
      SF_GUARDED_BY(mu);
  std::vector<std::shared_ptr<TraceRing>> rings SF_GUARDED_BY(mu);
};

// Leaked on purpose: metric handles are raw pointers into the registry and
// worker threads may still be incrementing them during static destruction.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

struct EnvState {
  bool metrics;
  bool trace;
  int trace_cap;
  std::string out_dir;
};

Mutex env_mu;
EnvState env_state SF_GUARDED_BY(env_mu);
bool env_loaded SF_GUARDED_BY(env_mu) = false;
bool exit_hook_registered SF_GUARDED_BY(env_mu) = false;

void exit_dump() {
  std::string dir;
  {
    LockGuard lock(env_mu);
    dir = env_state.out_dir;
  }
  if (!dir.empty()) write_reports(dir);
}

void load_env_locked() SF_REQUIRES(env_mu) {
  env_state.metrics = env_flag("SF_METRICS");
  env_state.trace = env_flag("SF_TRACE");
  const long cap = env_long("SF_TRACE_BUF", 8192, 0, INT_MAX);
  env_state.trace_cap = cap < 16 ? 16 : static_cast<int>(cap);
  env_state.out_dir = env_str("SF_TELEMETRY_OUT");
  env_loaded = true;
  if (!env_state.out_dir.empty() && !exit_hook_registered) {
    exit_hook_registered = true;
    std::atexit(exit_dump);
  }
}

EnvState env() {
  LockGuard lock(env_mu);
  if (!env_loaded) load_env_locked();
  return env_state;
}

TraceRing* my_ring() {
  thread_local std::shared_ptr<TraceRing> ring = [] {
    auto r = std::make_shared<TraceRing>();
    r->tid = my_tid();
    {
      // Uncontended (the ring is not shared yet); taken for the
      // thread-safety analysis, which checks guarded members at every
      // access, visibility notwithstanding.
      LockGuard init(r->mu);
      r->slots.resize(static_cast<std::size_t>(trace_capacity()));
    }
    Registry& reg = registry();
    LockGuard lock(reg.mu);
    reg.rings.push_back(r);
    return r;
  }();
  return ring.get();
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

const std::string& run_stamp() {
  // Same format as bench_util's run stamp so telemetry CSVs join the
  // bench run family and plot_figures.py's stamp regex matches.
  // Leaked (like the registry): when write_reports() runs mid-process the
  // stamp is constructed after the atexit dump hook was registered, so a
  // destructible static would be torn down before exit_dump() reads it.
  static const std::string* stamp = new std::string([] {
    char buf[48];
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    localtime_r(&now, &tm);
    const std::size_t n = std::strftime(buf, sizeof(buf), "%Y%m%d-%H%M%S", &tm);
    std::snprintf(buf + n, sizeof(buf) - n, "-p%ld",
                  static_cast<long>(getpid()));
    return std::string(buf);
  }());
  return *stamp;
}

}  // namespace

bool metrics_enabled() { return env().metrics; }
bool trace_enabled() { return env().trace; }
int trace_capacity() { return env().trace_cap; }

void refresh_env() {
  LockGuard lock(env_mu);
  load_env_locked();
}

// ---------------------------------------------------------------------------
// Counters / histograms / samples
// ---------------------------------------------------------------------------

void Counter::add(std::int64_t n) const {
  if (cells_ == nullptr) return;
  // relaxed: hot-path tally. Each shard is an independent monotone sum
  // read only by snapshot()'s statistical aggregation; the increment
  // carries no happens-before obligation, so the RMW's atomicity is all
  // that is required.
  cells_->cells[my_shard()].v.fetch_add(n, std::memory_order_relaxed);
}

Counter counter(const std::string& name) {
  if (!metrics_enabled()) return Counter();
  Registry& reg = registry();
  LockGuard lock(reg.mu);
  auto& slot = reg.counters[name];
  if (!slot) slot = std::make_unique<detail::CounterCells>();
  return Counter(slot.get());
}

int histogram_bucket(std::int64_t v) {
  if (v <= 0) return 0;
  return 64 - __builtin_clzll(static_cast<unsigned long long>(v));
}

std::int64_t histogram_bucket_lo(int b) {
  if (b <= 0) return 0;
  if (b >= kHistogramBuckets) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(1) << (b - 1);
}

void Histogram::record(std::int64_t v) const {
  if (cells_ == nullptr) return;
  detail::HistogramCells::Shard& s = cells_->shards[my_shard()];
  // relaxed: hot-path tallies, as Counter::add. The three cells of one
  // record() are not applied atomically as a group; aggregate() documents
  // the resulting snapshot skew as acceptable.
  s.buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
}

Histogram histogram(const std::string& name) {
  if (!metrics_enabled()) return Histogram();
  Registry& reg = registry();
  LockGuard lock(reg.mu);
  auto& slot = reg.histograms[name];
  if (!slot) slot = std::make_unique<detail::HistogramCells>();
  return Histogram(slot.get());
}

void SampleLog::append(const std::vector<std::string>& row) const {
  if (table_ == nullptr) return;
  LockGuard lock(table_->mu);
  if (row.size() != table_->columns.size()) return;
  table_->rows.push_back(row);
}

SampleLog samples(const std::string& name,
                  const std::vector<std::string>& columns) {
  if (!metrics_enabled()) return SampleLog();
  Registry& reg = registry();
  LockGuard lock(reg.mu);
  auto& slot = reg.samples[name];
  if (!slot) {
    slot = std::make_unique<detail::SampleTable>();
    // Uncontended (the table is not yet visible outside the registry
    // lock); taken for the thread-safety analysis.
    LockGuard init(slot->mu);
    slot->columns = columns;
  }
  return SampleLog(slot.get());
}

// ---------------------------------------------------------------------------
// Trace journal
// ---------------------------------------------------------------------------

std::int64_t now_ns() {
  static const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - base)
      .count();
}

namespace detail {

void record_span(const char* name, std::int64_t t0_ns, std::int64_t t1_ns) {
  TraceRing* r = my_ring();
  LockGuard lock(r->mu);
  r->slots[r->head] = TraceEvent{name, t0_ns, t1_ns - t0_ns, r->tid};
  r->head = (r->head + 1) % r->slots.size();
  ++r->total;
}

}  // namespace detail

std::vector<TraceEvent> trace_events() {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    Registry& reg = registry();
    LockGuard lock(reg.mu);
    rings = reg.rings;
  }
  std::vector<TraceEvent> out;
  for (const auto& r : rings) {
    LockGuard lock(r->mu);
    const std::size_t cap = r->slots.size();
    const std::size_t n = r->total < cap ? static_cast<std::size_t>(r->total)
                                         : cap;
    // Oldest surviving event first: when wrapped, it's at head.
    const std::size_t start = r->total < cap ? 0 : r->head;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(r->slots[(start + i) % cap]);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.t0_ns < b.t0_ns;
            });
  return out;
}

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = trace_events();
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << e.name << "\", \"ph\": \"X\", \"pid\": 1"
       << ", \"tid\": " << e.tid << ", \"ts\": " << e.t0_ns / 1000 << "."
       << e.t0_ns % 1000 << ", \"dur\": " << e.dur_ns / 1000 << "."
       << e.dur_ns % 1000 << "}";
  }
  os << "\n]\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Snapshot + exporters
// ---------------------------------------------------------------------------

double HistogramSample::mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSample::percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  std::int64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::int64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lo = static_cast<double>(histogram_bucket_lo(b));
      const double hi =
          b == 0 ? 1.0 : static_cast<double>(histogram_bucket_lo(b + 1));
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
    }
    seen += in_bucket;
  }
  return static_cast<double>(histogram_bucket_lo(kHistogramBuckets - 1));
}

std::int64_t Snapshot::counter_value(const std::string& name) const {
  for (const CounterSample& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

const HistogramSample* Snapshot::find_histogram(const std::string& name) const {
  for (const HistogramSample& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

Snapshot snapshot() {
  Snapshot out;
  Registry& reg = registry();
  LockGuard lock(reg.mu);
  for (const auto& [name, cells] : reg.counters)
    out.counters.push_back(CounterSample{name, cells->sum()});
  for (const auto& [name, cells] : reg.histograms)
    out.histograms.push_back(cells->aggregate(name));
  for (const auto& [name, table] : reg.samples) {
    LockGuard tlock(table->mu);
    out.samples.push_back(SampleTableDump{name, table->columns, table->rows});
  }
  return out;
}

std::string text_dump() {
  const Snapshot s = snapshot();
  std::ostringstream os;
  os << "# sf::telemetry (metrics " << (metrics_enabled() ? "on" : "off")
     << ", trace " << (trace_enabled() ? "on" : "off") << ")\n";
  os << "counters " << s.counters.size() << "\n";
  for (const CounterSample& c : s.counters)
    os << "  " << c.name << " " << c.value << "\n";
  os << "histograms " << s.histograms.size() << "\n";
  char buf[160];
  for (const HistogramSample& h : s.histograms) {
    std::snprintf(buf, sizeof(buf),
                  "  %s count=%lld sum=%lld mean=%.1f p50=%.0f p99=%.0f\n",
                  h.name.c_str(), static_cast<long long>(h.count),
                  static_cast<long long>(h.sum), h.mean(), h.percentile(50),
                  h.percentile(99));
    os << buf;
  }
  os << "samples " << s.samples.size() << "\n";
  for (const SampleTableDump& t : s.samples)
    os << "  " << t.name << " rows=" << t.rows.size() << "\n";
  return os.str();
}

void write_reports(const std::string& dir) {
  std::string d = dir.empty() ? "." : dir;
  if (d != ".") {
    std::error_code ec;
    std::filesystem::create_directories(d, ec);
    if (ec) d = ".";
  }
  const Snapshot s = snapshot();
  {
    std::ofstream f(d + "/telemetry_counters-" + run_stamp() + ".csv");
    f << "counter,value\n";
    for (const CounterSample& c : s.counters)
      f << csv_escape(c.name) << "," << c.value << "\n";
  }
  {
    std::ofstream f(d + "/telemetry_hist-" + run_stamp() + ".csv");
    f << "metric,bucket_lo,bucket_hi,count\n";
    for (const HistogramSample& h : s.histograms)
      for (int b = 0; b < kHistogramBuckets; ++b) {
        const std::int64_t n = h.buckets[static_cast<std::size_t>(b)];
        if (n == 0) continue;
        f << csv_escape(h.name) << "," << histogram_bucket_lo(b) << ","
          << (b == 0 ? 1 : histogram_bucket_lo(b + 1)) << "," << n << "\n";
      }
  }
  for (const SampleTableDump& t : s.samples) {
    std::ofstream f(d + "/telemetry_samples_" + t.name + "-" + run_stamp() +
                    ".csv");
    for (std::size_t i = 0; i < t.columns.size(); ++i)
      f << (i ? "," : "") << csv_escape(t.columns[i]);
    f << "\n";
    for (const auto& row : t.rows) {
      for (std::size_t i = 0; i < row.size(); ++i)
        f << (i ? "," : "") << csv_escape(row[i]);
      f << "\n";
    }
  }
  if (!trace_events().empty()) {
    std::ofstream f(d + "/trace-" + run_stamp() + ".json");
    f << chrome_trace_json();
  }
}

}  // namespace sf::telemetry
