// Serving throughput: batched dispatch vs. one-at-a-time for small grids.
//
// A serving deployment sees many concurrent tenants each advancing a *small*
// grid — individually too little work to amortize a pool dispatch. The
// sf::Server front end batches same-plan requests so one dispatch advances
// the whole group (see docs/SERVING.md). This harness runs N closed-loop
// synthetic clients against three configurations of the same Heat2D 64x64 /
// 8-step request:
//
//   direct   — no serving layer: every client calls advance() itself
//              (concurrent calls serialize on the shared pool's dispatch).
//   serve-1  — sf::Server with max_batch = 1: the serving layer's queueing
//              without its batching (the one-at-a-time straw man).
//   batched  — sf::Server with max_batch = 64: same-plan requests drained
//              in one round execute as one advance_batch() dispatch.
//
// Reported per (mode, clients) point: client-observed p50/p99 latency and
// aggregate throughput in GFLOP/s. The acceptance criterion is batched
// beating one-at-a-time on aggregate throughput once clients contend.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/harness.hpp"
#include "common/timing.hpp"
#include "core/engine.hpp"
#include "grid/grid_utils.hpp"
#include "serving/server.hpp"
#include "telemetry/telemetry.hpp"

namespace sf::bench {
namespace {

constexpr long kNx = 64, kNy = 64;
constexpr int kSteps = 8;

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

struct LoadPoint {
  std::vector<double> latencies;  // seconds, one per request
  double wall = 0;                // seconds for the whole load
  long requests = 0;
};

// Histogram delta between two telemetry snapshots — isolates one load
// point's observations from the process-lifetime totals.
telemetry::HistogramSample hist_delta(const telemetry::Snapshot& before,
                                      const telemetry::Snapshot& after,
                                      const std::string& name) {
  telemetry::HistogramSample d;
  d.name = name;
  d.buckets.fill(0);
  const telemetry::HistogramSample* a = after.find_histogram(name);
  if (a == nullptr) return d;
  d = *a;
  if (const telemetry::HistogramSample* b = before.find_histogram(name)) {
    d.count -= b->count;
    d.sum -= b->sum;
    for (std::size_t i = 0; i < d.buckets.size(); ++i)
      d.buckets[i] -= b->buckets[i];
  }
  return d;
}

// Runs `nclients` closed-loop clients, each issuing `reqs` requests through
// `issue(client, request_index)` which must block until the request
// completed and return its latency in seconds.
template <class Issue>
LoadPoint run_clients(int nclients, long reqs, const Issue& issue) {
  LoadPoint out;
  std::vector<std::vector<double>> lat(nclients);
  Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < nclients; ++c) {
    clients.emplace_back([&, c] {
      lat[c].reserve(reqs);
      for (long r = 0; r < reqs; ++r) lat[c].push_back(issue(c, r));
    });
  }
  for (auto& t : clients) t.join();
  out.wall = wall.seconds();
  for (auto& l : lat) {
    out.requests += static_cast<long>(l.size());
    out.latencies.insert(out.latencies.end(), l.begin(), l.end());
  }
  return out;
}

void sweep() {
  const bool full = bench_full();
  const long reqs =
      env_long("SF_BENCH_REPS", full ? 400 : 80, 0, INT_MAX);
  const int max_clients = full ? 16 : 8;

  const StencilSpec& spec = preset(Preset::Heat2D);
  ExecOptions opts;
  opts.tiling = Tiling::On;
  opts.tsteps = kSteps;
  PreparedStencil ps =
      Engine::instance().prepare(spec, Extents{kNx, kNy}, opts);
  const int h = ps.halo();
  const double flops_per_req = flops_per_step(spec, kNx, kNy, 1) * kSteps;

  // One grid pair per client slot, reused across requests (a closed-loop
  // client never has two requests in flight on the same buffers).
  std::vector<Grid2D> as, bs;
  as.reserve(max_clients);
  bs.reserve(max_clients);
  for (int c = 0; c < max_clients; ++c) {
    as.emplace_back(static_cast<int>(kNy), static_cast<int>(kNx), h, false);
    bs.emplace_back(static_cast<int>(kNy), static_cast<int>(kNx), h);
    fill_random(as.back(), 42 + static_cast<std::uint64_t>(c));
  }

  Table t({"mode", "clients", "requests", "p50 ms", "p99 ms", "wall s",
           "GFLOP/s", "req/s"});
  std::vector<std::pair<std::string, double>> summary;  // BENCH_serving.json
  const auto add = [&](const char* mode, int nclients, LoadPoint lp) {
    const double p50 = percentile(lp.latencies, 0.50) * 1e3;
    const double p99 = percentile(lp.latencies, 0.99) * 1e3;
    const double gflops =
        flops_per_req * static_cast<double>(lp.requests) / lp.wall / 1e9;
    t.add_row({mode, std::to_string(nclients), std::to_string(lp.requests),
               Table::num(p50, 3), Table::num(p99, 3), Table::num(lp.wall, 2),
               Table::num(gflops, 2),
               Table::num(static_cast<double>(lp.requests) / lp.wall, 0)});
    const std::string key = std::string(mode) + ".c" + std::to_string(nclients);
    summary.emplace_back(key + ".gflops", gflops);
    summary.emplace_back(key + ".p50_ms", p50);
    summary.emplace_back(key + ".p99_ms", p99);
    summary.emplace_back(key + ".req_s",
                         static_cast<double>(lp.requests) / lp.wall);
  };

  // Server-side telemetry per batched load point (SF_METRICS=1): queue and
  // exec latency plus batch-size/queue-depth percentiles, as snapshot
  // deltas so each row isolates its own load point. Emitted as the
  // telemetry_* plot family ("p50/p99 over the load sweep").
  const bool telem = sf::telemetry::metrics_enabled();
  Table tt({"clients", "queue_p50_ms", "queue_p99_ms", "exec_p50_ms",
            "exec_p99_ms", "batch_p50", "batch_p99", "depth_p50",
            "depth_p99"});
  const auto add_telemetry = [&](int nclients,
                                 const telemetry::Snapshot& before) {
    const telemetry::Snapshot after = telemetry::snapshot();
    const auto queue = hist_delta(before, after, "serving.queue_us");
    const auto exec = hist_delta(before, after, "serving.exec_us");
    const auto batch = hist_delta(before, after, "serving.batch_size");
    const auto depth = hist_delta(before, after, "serving.queue_depth");
    tt.add_row({std::to_string(nclients),
                Table::num(queue.percentile(50) / 1e3, 3),
                Table::num(queue.percentile(99) / 1e3, 3),
                Table::num(exec.percentile(50) / 1e3, 3),
                Table::num(exec.percentile(99) / 1e3, 3),
                Table::num(batch.percentile(50), 1),
                Table::num(batch.percentile(99), 1),
                Table::num(depth.percentile(50), 1),
                Table::num(depth.percentile(99), 1)});
  };

  for (int nclients = 1; nclients <= max_clients; nclients *= 2) {
    // direct: clients call the prepared handle themselves.
    add("direct", nclients,
        run_clients(nclients, reqs, [&](int c, long) {
          Timer timer;
          ps.advance(as[c].view(), bs[c].view(), kSteps);
          do_not_optimize(as[c].data());
          return timer.seconds();
        }));

    // serve-1: the serving layer with batching disabled.
    {
      ServerOptions so;
      so.queue_capacity = 4096;
      so.max_batch = 1;
      Server server(so);
      add("serve-1", nclients,
          run_clients(nclients, reqs, [&](int c, long) {
            Timer timer;
            server
                .submit("client-" + std::to_string(c), ps, as[c].view(),
                        bs[c].view(), kSteps)
                .wait();
            return timer.seconds();
          }));
    }

    // batched: same-plan requests drained together run as one dispatch.
    {
      const telemetry::Snapshot before = telemetry::snapshot();
      ServerOptions so;
      so.queue_capacity = 4096;
      so.max_batch = 64;
      Server server(so);
      add("batched", nclients,
          run_clients(nclients, reqs, [&](int c, long) {
            Timer timer;
            server
                .submit("client-" + std::to_string(c), ps, as[c].view(),
                        bs[c].view(), kSteps)
                .wait();
            return timer.seconds();
          }));
      if (telem) add_telemetry(nclients, before);
    }
  }
  emit(t, "serving_heat2d");
  if (telem) {
    emit(tt, "telemetry_latency_heat2d");
    // Full queue-depth/batch-size/latency histograms + counters, as the
    // telemetry_* CSV family (plot_figures.py renders the histograms).
    telemetry::write_reports(bench_out_dir());
    std::printf("%s\n", telemetry::text_dump().c_str());
  } else {
    std::printf(
        "(SF_METRICS unset: no server-side queue/batch telemetry; rerun "
        "with SF_METRICS=1 for histograms)\n");
  }
  emit_bench_json("serving", summary);
}

}  // namespace
}  // namespace sf::bench

int main() {
  std::printf(
      "Serving throughput: batched vs. one-at-a-time dispatch of small "
      "Heat2D %ldx%ld / %d-step requests\n(closed-loop clients; latency is "
      "client-observed submit-to-completion)\n\n",
      sf::bench::kNx, sf::bench::kNy, sf::bench::kSteps);
  sf::bench::sweep();
  return 0;
}
