/// \file
/// \brief Environment-variable knobs, in one place.
///
/// Every `SF_*` variable the library reads is declared here (docs/TUNING.md
/// documents them for users):
///
///  * `SF_BENCH_FULL=1`   — benches use the paper's Table-1 problem sizes
///    (slow, minutes per bench); default is a scaled-down sweep that
///    finishes fast.
///  * `SF_BENCH_REPS=n`   — override the bench measurement repetition count.
///  * `SF_BENCH_OUT=dir`  — directory the bench harnesses write their CSVs
///    into (created if missing; default: the working directory). Files are
///    suffixed with a per-run timestamp so repeated sweeps never overwrite
///    each other.
///  * `SF_TUNE=1`         — run the measure-once auto-tuner (Engine::tune)
///    on every tiled Solver run (equivalent to `Solver::tune(true)`).
///  * `SF_TUNE_CACHE=path` — persist tuned tile geometries to `path` and
///    reload them at startup, so production runs skip re-measurement across
///    processes (see core/tuner.hpp).
///  * `SF_TILE_MIN_BYTES=n` — working-set floor (bytes, default 2 MiB)
///    below which Tiling::Auto stays untiled even on multicore: smaller
///    problems lose more to stage barriers than they gain from parallel
///    wedges.
///  * `SF_LLC_BYTES=n`    — override the detected last-level-cache size the
///    Tiling::Auto cost model compares working sets against
///    (common/cpu.hpp llc_bytes()).
///  * `SF_THREADS=n`      — default worker count for tiled stages when the
///    caller leaves `threads` unset (0/unset = hardware threads; at most
///    kMaxEnvThreads).
///  * `SF_AFFINITY=none|compact|scatter` — default worker-placement policy
///    of the runtime's WorkerPool when ExecOptions::affinity is left at
///    Affinity::None (runtime/topology.hpp env_affinity()).
///  * `SF_VALIDATE=0`     — debug-only toggle that skips the per-call
///    FieldView validation in PreparedStencil::run()/advance() (combined
///    with HaloPolicy::Clean this makes a streaming advance() pure kernel
///    dispatch). Any other value — including unset — keeps validation on.
///  * `SF_POOL_CACHE=n`   — max (threads, affinity) configurations the
///    shared_pool() registry keeps cached (default 8, floor 1). Acquiring
///    a pool beyond the cap evicts the least-recently-used unreferenced
///    configuration; pools still referenced by prepared plans or servers
///    are never evicted (runtime/worker_pool.hpp).
///  * `SF_TILE_LEVELS=n|auto` — default tile-tree depth for plans whose
///    ExecOptions::levels is left at 0: 1 (the default) keeps the flat
///    one-level plan, 2/3 engage the hierarchical LLC/register blocking
///    pass (core/execution_plan.hpp TileTree), `auto` picks 3 when the
///    working set exceeds the LLC and 1 otherwise. Only the tile geometry
///    changes; every depth runs the same fused tile walk.
///  * `SF_ADAPTIVE_BATCH=0` — pin the serving dispatcher's per-round drain
///    cap to the configured `max_batch` instead of letting it adapt to the
///    observed queue depth (serving/server.hpp). Any other value — including
///    unset — keeps adaptation on.
///  * `SF_TEST_JITTER=n`  — test-only fault injection: each pipelined wedge
///    stage first sleeps its worker a pseudo-random 0..n microseconds
///    (runtime/worker_pool.hpp test_jitter_stall), forcing maximal stage
///    skew between neighbors. Unset/0 (the default) is a no-op.
///  * `SF_METRICS=1`      — enable the telemetry counters/histograms
///    (telemetry/telemetry.hpp). Unset/0 hands out dead no-op handles;
///    resolution happens at construct/prepare time, never per operation.
///  * `SF_TRACE=1`        — enable the scoped trace-span journal (bounded
///    per-thread rings, chrome-trace JSON export).
///  * `SF_TRACE_BUF=n`    — per-thread trace ring capacity in events
///    (default 8192, floor 16; oldest events overwritten on wrap).
///  * `SF_TELEMETRY_OUT=dir` — write the telemetry CSV/JSON artifact set
///    into `dir` at process exit (telemetry::write_reports()).
///
/// Integer knobs are parsed strictly (env_long): the whole value must be a
/// base-10 integer inside the knob's range. Anything else — junk, a
/// trailing suffix, a value that would wrap — keeps the default and prints
/// one warning per variable to stderr.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

namespace sf {

/// True when `name` is set to anything but "" or "0".
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::string(v) != "0" && std::string(v) != "";
}

/// Prints `name`'s rejected `value` to stderr, once per variable per
/// process.
void env_warn_once(const char* name, const char* value,
                   const char* expected);

/// True (storing the value in `*out`) when the whole of `s` is a base-10
/// integer in [lo, hi]: the strict grammar of knobs and tune-cache lines.
inline bool parse_long(const char* s, long lo, long hi, long* out) {
  const char* digits = *s == '+' || *s == '-' ? s + 1 : s;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(s, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*digits)) || *end != '\0' ||
      errno == ERANGE || n < lo || n > hi)
    return false;
  *out = n;
  return true;
}

/// Integer value of `name`: `fallback` when unset or empty, the value when
/// the whole string is a base-10 integer in [lo, hi] (parse_long), and
/// otherwise `fallback` after one stderr warning for the variable.
inline long env_long(const char* name, long fallback, long lo = LONG_MIN,
                     long hi = LONG_MAX) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long n = 0;
  if (parse_long(v, lo, hi, &n)) return n;
  const std::string range =
      "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  env_warn_once(name, v, range.c_str());
  return fallback;
}

/// String value of `name`, or an empty string when unset.
inline std::string env_str(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

/// SF_BENCH_FULL: paper-size bench sweeps.
inline bool bench_full() { return env_flag("SF_BENCH_FULL"); }

/// SF_BENCH_OUT: output directory for bench CSVs ("" = working directory).
inline std::string bench_out_dir() { return env_str("SF_BENCH_OUT"); }

/// SF_TUNE: auto-tune every tiled Solver run (measure-once, cached).
inline bool tune_forced() { return env_flag("SF_TUNE"); }

/// SF_TUNE_CACHE: path of the persistent tuning cache ("" = in-process
/// only).
inline std::string tune_cache_path() { return env_str("SF_TUNE_CACHE"); }

/// SF_TILE_MIN_BYTES: Tiling::Auto working-set floor (default 2 MiB).
inline long tile_min_bytes() {
  return env_long("SF_TILE_MIN_BYTES", 2L << 20, 0);
}

/// Largest SF_THREADS value accepted: a worker count beyond it is far more
/// likely a typo than a machine.
constexpr long kMaxEnvThreads = 4096;

/// SF_THREADS: default tiled-stage worker count (0 = hardware threads).
inline int env_threads() {
  return static_cast<int>(env_long("SF_THREADS", 0, 0, kMaxEnvThreads));
}

/// SF_POOL_CACHE: shared_pool() registry capacity (default 8, floor 1).
inline int pool_cache_cap() {
  const long cap = env_long("SF_POOL_CACHE", 8, 0, INT_MAX);
  return cap < 1 ? 1 : static_cast<int>(cap);
}

/// SF_TEST_JITTER: max per-stage fault-injection stall in microseconds
/// (unset/0 = disabled). Deliberately re-read per call — the stress tests
/// setenv/unsetenv around individual cases, so a cached parse would go
/// stale (runtime/worker_pool.hpp test_jitter_stall).
inline long test_jitter_us() {
  return env_long("SF_TEST_JITTER", 0, 0, INT_MAX);
}

/// SF_VALIDATE: false only when the variable is set to exactly "0" — the
/// debug-only escape hatch that drops per-call view validation.
inline bool env_validate() {
  const char* v = std::getenv("SF_VALIDATE");
  return v == nullptr || std::string(v) != "0";
}

/// SF_TILE_LEVELS: default tile-tree depth when ExecOptions::levels is
/// unset. Returns 1 when the variable is unset (or rejected), -1 for "auto"
/// (depth from working set vs LLC, resolved by the Engine), else the depth
/// in [1, 3].
inline int env_tile_levels() {
  if (env_str("SF_TILE_LEVELS") == "auto") return -1;
  return static_cast<int>(env_long("SF_TILE_LEVELS", 1, 1, 3));
}

/// SF_ADAPTIVE_BATCH: false only when the variable is set to exactly "0" —
/// the escape hatch that pins the serving dispatcher's drain cap to the
/// configured max_batch.
inline bool env_adaptive_batch() {
  const char* v = std::getenv("SF_ADAPTIVE_BATCH");
  return v == nullptr || std::string(v) != "0";
}

}  // namespace sf
