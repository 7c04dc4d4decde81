// sf_ledger: runs one ledger workload and prints its result as one JSON
// line (the last line of standard output).
//
//   sf_ledger --workload NAME --seed N --seconds S [--trace] [--out DIR]
//   sf_ledger --host
//
// Untraced, the workload's end-to-end metrics are reported. With --trace
// the workload runs with spans recorded around every call the ledger makes
// into the library, then the per-layer probe suite runs (also traced), and
// DIR/trace.json and DIR/layers.csv are written. --host runs only the host
// roofline probes. run.py drives this binary.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "common/cpu.hpp"
#include "ledger.hpp"

namespace ledger {

// ---------------------------------------------------------------------------
// Outcome and statistics helpers.
// ---------------------------------------------------------------------------

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 32) errors.push_back(what);
}

void Outcome::add(const std::string& name, const std::string& unit,
                  double value) {
  metrics.push_back({name, unit, value});
}

void Outcome::merge(const Outcome& o) {
  attempted += o.attempted;
  failed += o.failed;
  errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  metrics.insert(metrics.end(), o.metrics.begin(), o.metrics.end());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  const double f = pos - static_cast<double>(i);
  return v[i] + f * (v[i + 1] - v[i]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Span recorder.
// ---------------------------------------------------------------------------

namespace {
thread_local long t_current = 0;  // innermost open span on this thread
thread_local int t_tid = -1;
std::atomic<int> g_tids{0};

int this_tid() {
  if (t_tid < 0) t_tid = g_tids.fetch_add(1);
  return t_tid;
}
}  // namespace

Tracer& Tracer::get() {
  static Tracer* t = new Tracer();  // leaked: spans may close during exit
  return *t;
}

void Tracer::set_workload(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  workloads_.push_back(name);
  workload_ = static_cast<int>(workloads_.size()) - 1;
}

void Tracer::push(SpanRecord r) {
  std::lock_guard<std::mutex> lk(mu_);
  r.workload = workload_;
  spans_.push_back(r);
}

void Tracer::record(const char* layer, const char* name, double t0,
                    double t1) {
  if (!on()) return;
  push({layer, name, 0, next_id(), -1, this_tid(), t0, t1});
}

void Tracer::write(const std::string& dir) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::filesystem::create_directories(dir);

  std::ofstream tj(dir + "/trace.json");
  tj << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%ld,"
                  "\"parent\":%ld,\"workload\":\"%s\"}}%s\n",
                  s.name, s.layer, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, s.tid,
                  s.id, s.parent,
                  s.workload >= 0 ? workloads_[s.workload].c_str() : "",
                  i + 1 < spans_.size() ? "," : "");
    tj << buf;
  }
  tj << "]}\n";

  // Self time: a span's duration minus the time its children cover. Spans
  // recorded in flight (parent -1, e.g. served requests) overlap each other,
  // so they get rows of their own ("<layer>.in_flight") and no share.
  std::map<long, double> child_time;
  for (const SpanRecord& s : spans_)
    if (s.parent > 0) child_time[s.parent] += s.t1 - s.t0;
  struct Agg {
    long spans = 0;
    double self = 0;
    bool in_flight = false;
  };
  std::map<std::pair<int, std::string>, Agg> agg;
  std::map<int, double> total;
  for (const SpanRecord& s : spans_) {
    const bool in_flight = s.parent < 0;
    const auto it = child_time.find(s.id);
    const double self =
        (s.t1 - s.t0) - (it == child_time.end() ? 0.0 : it->second);
    Agg& a = agg[{s.workload,
                  std::string(s.layer) + (in_flight ? ".in_flight" : "")}];
    ++a.spans;
    a.self += self;
    a.in_flight = in_flight;
    if (!in_flight) total[s.workload] += self;
  }
  std::ofstream lc(dir + "/layers.csv");
  lc << "workload,layer,spans,self_ms,self_share_pct\n";
  for (const auto& [key, a] : agg) {
    const double tot = total[key.first];
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s,%s,%ld,%.3f,%s\n",
                  key.first >= 0 ? workloads_[key.first].c_str() : "",
                  key.second.c_str(), a.spans, a.self * 1e3,
                  a.in_flight || tot <= 0
                      ? ""
                      : std::to_string(100.0 * a.self / tot).c_str());
    lc << buf;
  }
}

Span::Span(const char* layer, const char* name) : layer_(layer), name_(name) {
  Tracer& t = Tracer::get();
  if (!t.on()) return;
  id_ = t.next_id();
  parent_ = t_current;
  t_current = id_;
  t0_ = t.now();
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer& t = Tracer::get();
  const double t1 = t.now();
  t_current = parent_;
  t.push({layer_, name_, 0, id_, parent_, this_tid(), t0_, t1});
}

namespace {

// ---------------------------------------------------------------------------
// Command line and result line.
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "sf_ledger: %s\nusage: sf_ledger --workload NAME --seed N "
               "--seconds S [--trace] [--out DIR]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--out") o.out = value();
    else if (a == "--trace") o.trace = true;
    else if (a == "--host") o.host = true;
    else usage(("unknown argument " + a).c_str());
  }
  bool known = o.host;
  for (const std::string& w : workload_names()) known |= w == o.workload;
  if (!known) usage("unknown or missing --workload");
  if (!(o.seconds > 0) || o.seconds > 600) usage("--seconds out of range");
  o.threads = sf::hardware_threads();
  if (o.threads < 1) o.threads = 1;
  return o;
}

void print_result(Outcome& r) {
  for (Metric& m : r.metrics)
    if (!std::isfinite(m.value)) {
      r.fail("metric " + m.name + " is not finite");
      m.value = 0;
    }
  for (const Metric& m : r.metrics)
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& e : r.errors)
    std::printf("  FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  const Options o = parse(argc, argv);
  if (o.host)
    std::printf("sf_ledger: host probes, threads=%d\n", o.threads);
  else
    std::printf("sf_ledger: workload=%s seed=%llu seconds=%g threads=%d %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.threads, o.trace ? "traced" : "untraced");
  std::printf("host: %s\n", host_json().c_str());
  Outcome r;
  try {
    if (o.host) {
      r = run_host_probes(o);
    } else if (!o.trace) {
      r = run_workload(o, o.seconds);
      // The workload.* diagnostics are per-layer metrics of the traced run.
      std::vector<Metric> e2e;
      for (const Metric& m : r.metrics) {
        if (m.name.rfind("workload.", 0) != 0) e2e.push_back(m);
        else std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                         m.unit.c_str());
      }
      r.metrics = e2e;
    } else {
      Tracer& t = Tracer::get();
      t.enable(true);
      t.set_workload(o.workload);
      r = run_workload(o, o.seconds);
      // The traced pass's end-to-end numbers are marked "traced." for the
      // overhead run.py computes against an untraced run of the workload.
      for (Metric& m : r.metrics)
        if (m.name.rfind("workload.", 0) != 0) m.name = "traced." + m.name;
      t.set_workload("probes");
      r.merge(run_probes(o));
      t.enable(false);
      if (!o.out.empty()) t.write(o.out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sf_ledger: %s\n", e.what());
    return 1;
  }
  print_result(r);
  return r.failed == 0 ? 0 : 1;
}
