#include "core/tuner.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/env.hpp"
#include "common/timing.hpp"
#include "core/engine.hpp"
#include "runtime/topology.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

namespace {

// One entry per line:
//   v3 <kernel> <isa> <dims> <radius> <nx> <ny> <nz> <tsteps> <threads>
//      <tile> <tb> <tuned_threads> <levels> <leaf>
// The kernel key never contains whitespace (registry names are method
// names), so plain stream extraction round-trips. Earlier formats still
// parse, each missing column defaulting to its pre-axis meaning: v2 lines
// (no <levels> <leaf>) load as flat entries (levels = 1, leaf = 0), v1
// lines (additionally no <tuned_threads>) also deploy with the key's
// thread count (tuned_threads = 0).
constexpr const char* kFormatTag = "v3";
constexpr const char* kFormatTagV2 = "v2";
constexpr const char* kFormatTagV1 = "v1";

std::string to_line(const TuneKey& k, const TunedGeometry& g) {
  std::ostringstream os;
  os << kFormatTag << ' ' << k.kernel << ' ' << static_cast<int>(k.isa)
     << ' ' << k.dims << ' ' << k.radius << ' ' << k.nx << ' ' << k.ny << ' '
     << k.nz << ' ' << k.tsteps << ' ' << k.threads << ' ' << g.tile << ' '
     << g.time_block << ' ' << g.threads << ' ' << k.levels << ' '
     << g.leaf;
  return os.str();
}

// Strict parse of one line: a known tag with exactly its column count,
// each numeric column a whole base-10 integer in its field's range (isa
// code, dims, radius, nx, ny, nz, tsteps, threads, tile, tb,
// tuned_threads, levels, leaf). Anything else is rejected whole.
bool parse_line(const std::string& line, TuneKey& k, TunedGeometry& g) {
  static_assert(static_cast<int>(Isa::Avx512) == 2, "isa codes 0..2");
  std::istringstream is(line);
  std::vector<std::string> tok;
  for (std::string t; is >> t;) tok.push_back(std::move(t));
  const std::size_t cols = tok.empty()              ? 0
                           : tok[0] == kFormatTag   ? 15
                           : tok[0] == kFormatTagV2 ? 13
                           : tok[0] == kFormatTagV1 ? 12
                                                    : 0;
  if (cols == 0 || tok.size() != cols) return false;
  constexpr long kInt = INT_MAX, kLong = LONG_MAX;
  static const long kRange[13][2] = {
      {0, 2},    {1, 3},    {0, kInt}, {1, kLong}, {1, kLong},
      {1, kLong}, {1, kInt}, {1, kInt}, {1, kInt}, {1, kInt},
      {0, kInt}, {1, 3},    {0, kInt}};
  long v[13] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0};  // pre-axis defaults
  for (std::size_t i = 2; i < cols; ++i)
    if (!parse_long(tok[i].c_str(), kRange[i - 2][0], kRange[i - 2][1],
                    &v[i - 2]))
      return false;
  auto col = [&v](int c) { return static_cast<int>(v[c]); };
  k = TuneKey{tok[1], static_cast<Isa>(v[0]), col(1), col(2), v[3], v[4],
              v[5], col(6), col(7), col(11)};
  g = TunedGeometry{col(8), col(9), col(10), col(12)};
  return true;
}

// Candidate tile extents the tuner measures: the planner's negotiated
// tile, the per-thread split, and a small fan around them (halved,
// doubled, slope-proportional), filtered to extents that can actually
// block (at least (2*1+1)*slope for an H = 1 wedge, strictly inside the
// domain).
std::vector<int> candidate_tiles(long n, int slope, int threads,
                                 int planned) {
  const int thr = std::max(1, threads);
  const int heur = std::max(4 * slope, static_cast<int>(n / thr));
  const int raw[] = {planned,   planned / 2, 2 * planned,
                     heur,      4 * slope,   8 * slope,
                     static_cast<int>(n / (2L * thr))};
  std::vector<int> out;
  for (int c : raw) {
    if (c < 3 * slope) continue;
    if (c >= n) continue;
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  if (out.empty()) out.push_back(planned > 0 ? planned : heur);
  return out;
}

}  // namespace

TuneKey make_tune_key(const KernelInfo& kernel, int radius, long nx, long ny,
                      long nz, int tsteps, int threads, int levels) {
  TuneKey k;
  k.kernel = kernel.name;
  k.isa = kernel.isa;
  k.dims = kernel.dims;
  k.radius = radius;
  k.nx = nx;
  k.ny = ny;
  k.nz = nz;
  k.tsteps = tsteps;
  k.threads = threads;
  k.levels = levels;
  return k;
}

long tune_bucket(long n) {
  if (n <= 0) return n;
  long lo = 1;
  while (lo * 2 <= n) lo *= 2;  // lo = 2^floor(log2 n)
  const long q = lo / 4;        // quarter-octave step
  return q > 0 ? lo + (n - lo) / q * q : n;
}

TuneKey bucketed_key(const TuneKey& k) {
  TuneKey b = k;
  b.nx = tune_bucket(k.nx);
  b.ny = tune_bucket(k.ny);
  b.nz = tune_bucket(k.nz);
  b.tsteps = static_cast<int>(tune_bucket(k.tsteps));
  return b;
}

TuneCache& TuneCache::instance() {
  static TuneCache* cache = [] {
    auto* c = new TuneCache();
    const std::string path = tune_cache_path();
    {
      // Uncontended (the singleton is not shared until this lambda
      // returns); taken for the thread-safety analysis.
      LockGuard lock(c->mu_);
      c->persist_path_ = path;
    }
    if (!path.empty()) c->load_file(path);
    return c;
  }();
  return *cache;
}

std::optional<TunedGeometry> TuneCache::lookup_locked(
    const TuneKey& key) const {
  for (const auto& e : entries_)
    if (e.first == key) return e.second;
  return std::nullopt;
}

void TuneCache::upsert_locked(TuneKey key, const TunedGeometry& g) {
  for (auto& e : entries_)
    if (e.first == key) {
      e.second = g;
      return;
    }
  entries_.emplace_back(std::move(key), g);
}

std::optional<TunedGeometry> TuneCache::lookup(const TuneKey& key) const {
  LockGuard lock(mu_);
  return lookup_locked(key);
}

std::optional<TunedGeometry> TuneCache::lookup_rounded(
    const TuneKey& key) const {
  LockGuard lock(mu_);
  if (auto exact = lookup_locked(key)) return exact;
  const TuneKey want = bucketed_key(key);
  for (const auto& e : entries_)
    if (bucketed_key(e.first) == want) return e.second;
  return std::nullopt;
}

void TuneCache::store(const TuneKey& key, const TunedGeometry& g) {
  LockGuard lock(mu_);
  ++stores_;
  upsert_locked(key, g);
  if (!persist_path_.empty()) {
    // Append-only persistence: load_file's later-lines-win rule makes an
    // updated entry shadow its predecessor without rewriting the file.
    std::ofstream out(persist_path_, std::ios::app);
    if (out) out << to_line(key, g) << '\n';
  }
}

long TuneCache::stored_count() const {
  LockGuard lock(mu_);
  return stores_;
}

std::size_t TuneCache::size() const {
  LockGuard lock(mu_);
  return entries_.size();
}

void TuneCache::clear() {
  LockGuard lock(mu_);
  entries_.clear();
}

std::size_t TuneCache::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::size_t loaded = 0;
  std::size_t skipped = 0;
  std::string line;
  LockGuard lock(mu_);
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    TuneKey k;
    TunedGeometry g;
    if (!parse_line(line, k, g)) {
      ++skipped;
      continue;
    }
    upsert_locked(std::move(k), g);
    ++loaded;
  }
  if (skipped > 0)
    std::fprintf(stderr,
                 "stencilfold: tune cache %s: skipped %zu malformed line(s)\n",
                 path.c_str(), skipped);
  return loaded;
}

bool TuneCache::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# stencilfold tuning cache: " << kFormatTag
      << " kernel isa dims radius nx ny nz tsteps threads tile time_block"
         " tuned_threads levels leaf\n";
  LockGuard lock(mu_);
  for (const auto& e : entries_) out << to_line(e.first, e.second) << '\n';
  return static_cast<bool>(out);
}

// Engine::tune. A Cached plan is never re-measured — that is the
// "repeated runs are free" contract — and an unblockable plan has no
// wedge geometry worth measuring. The search runs its axes in sequence
// rather than their full product (additive, not multiplicative, probe
// counts):
//  0. tree plans only (ExecutionPlan::tree depth >= 2), staged ahead of
//     the tile axis: leaf (register-block) granules 1x/2x/4x
//     KernelInfo::reg_block — the planner's mid tile re-aligned down to
//     each granule and measured, so the L3-tile axis then searches
//     leaf-aligned extents;
//  1. tile extents, each probed at the block height the Fig. 7 heuristic
//     yields for it — the heuristic is the probe seed, never skipped;
//  2. (tile × time_block) pairs: the winning tile re-measured at halved
//     and quartered block heights, so a machine whose sweet spot departs
//     from the triangle-geometry derivation is actually measured;
//  3. thread counts {resolved/2, cores-per-node} below the resolved one:
//     bandwidth-saturated stencils can settle below the hardware maximum.
template <int D>
PreparedStencil Engine::tune(const PreparedStencil& ps, FieldView<D> a,
                             FieldView<D> b, const FieldView<D>* k) {
  ps.validate_views(a, b, k);
  const ExecutionPlan& plan = ps.plan();
  if (!(plan.tiled && plan.blocked && plan.tune_key &&
        plan.source == PlanSource::Heuristic))
    return ps;
  const StencilSpec& spec = ps.spec();
  const KernelInfo& kernel = ps.kernel();
  const Pattern<D>& p = spec.pattern<D>();
  const Pattern1D* src = spec.has_source ? &spec.src1 : nullptr;
  const Extents ext{ps.nx(), ps.ny(), ps.nz()};
  const int tsteps = ps.tsteps();
  const long n_tiled = a.outer_extent();  // validated: the prepared extent
  const int m = std::max(1, kernel.fold_depth);
  const int slope = kernel.wedge_slope(p.radius());
  // One uniform probe horizon for every candidate: fixed per-call
  // overheads (layout transposes in/out, stage fork/join) amortize
  // identically and cancel out of the ranking.
  const int probe_steps = std::min(tsteps, std::max(2 * m, 48));
  const int base_threads = plan.tile.threads;  // the resolved count
  // The planner request of every probe: the handle's options at the
  // resolved thread count and the probe horizon. `treq` reads `probe_opts`
  // by reference, so each axis below just sets the candidate fields.
  ExecOptions probe_opts = options_of(ps);
  probe_opts.threads = base_threads;
  probe_opts.affinity = plan.tile.affinity;
  probe_opts.tsteps = probe_steps;
  const PlanRequest treq{spec, kernel, ext, probe_opts};

  auto probe = [&](int tile_c, int tb_c, int thr_c, int steps) {
    TilePlan cand = plan.tile;
    cand.tile = tile_c;
    cand.time_block = tb_c;
    cand.threads = thr_c;
    run_tile_plan(p, a, b, src, k, steps, cand);
  };
  // Every probe measurement is logged (not just winners): the accumulated
  // (geometry -> GFLOP/s) table is the training set a performance model
  // fits over. Dead no-op unless SF_METRICS is on.
  const telemetry::SampleLog tune_log = telemetry::samples(
      "tuner", {"kernel", "isa", "dims", "radius", "nx", "ny", "nz",
                "probe_steps", "threads", "tile", "time_block", "seconds",
                "gflops"});
  auto measure = [&](int tile_c, int tb_c, int thr_c) {
    Timer timer;
    probe(tile_c, tb_c, thr_c, probe_steps);
    const double sec = timer.seconds();
    if (tune_log.live()) {
      const double gflops =
          flops_per_step(spec, ext.nx, ext.ny, ext.nz) * probe_steps / sec /
          1e9;
      tune_log.append(
          {kernel.name, isa_name(kernel.isa), std::to_string(spec.dims),
           std::to_string(effective_radius(spec)), std::to_string(ext.nx),
           std::to_string(ext.ny), std::to_string(ext.nz),
           std::to_string(probe_steps), std::to_string(thr_c),
           std::to_string(tile_c), std::to_string(tb_c), std::to_string(sec),
           std::to_string(gflops)});
    }
    return sec;
  };

  double best_sec = std::numeric_limits<double>::infinity();
  int best_tile = plan.tile.tile;
  int best_tb = 0;  // 0 = the heuristic height (re-derived at deploy time)
  int best_leaf = 0;  // 0 = no leaf granule probed/won (flat plans)
  bool warmed = false;

  // Axis 0 (tree plans only): leaf granules, staged ahead of the tile axis.
  // A granule only survives as provenance (TunedGeometry::leaf) when its
  // aligned tile actually measured fastest so far; the axis-1 candidates
  // are then rounded to it, keeping the winner leaf-aligned.
  if (plan.tree.depth() >= 2) {
    const int q = std::max(1, kernel.reg_block());
    for (int mult : {1, 2, 4}) {
      const int granule = q * mult;
      const int aligned = plan.tile.tile / granule * granule;
      if (granule < 2 || aligned < 3 * slope) continue;
      probe_opts.tile = aligned;
      probe_opts.time_block = 0;
      const WedgeGeometry g = plan_geometry(treq);
      if (!g.blocked) continue;
      if (!warmed) {
        // Untimed warmup: absorbs one-time costs (pool creation, page
        // faults) so they don't land on the first measured candidate.
        probe(g.tile, g.time_block, base_threads, std::min(tsteps, 2 * m));
        warmed = true;
      }
      const double sec = measure(g.tile, g.time_block, base_threads);
      if (sec < best_sec) {
        best_sec = sec;
        best_tile = g.tile;
        best_leaf = granule;
      }
    }
  }

  // Axis 1: tile extents at their heuristic block heights, rounded to the
  // winning leaf granule when axis 0 picked one. A taller block than the
  // probe horizon can observe is never measured; unblockable candidates
  // have no wedge schedule to measure.
  std::vector<std::pair<int, int>> cands;  // (tile, probe time_block)
  for (int c : candidate_tiles(n_tiled, slope, base_threads, plan.tile.tile)) {
    if (best_leaf > 1) c = std::max(best_leaf, c / best_leaf * best_leaf);
    probe_opts.tile = c;
    probe_opts.time_block = 0;
    const WedgeGeometry g = plan_geometry(treq);
    if (g.blocked &&
        std::find(cands.begin(), cands.end(),
                  std::make_pair(g.tile, g.time_block)) == cands.end())
      cands.emplace_back(g.tile, g.time_block);
  }
  if (!warmed) {
    if (cands.empty()) return ps;  // nothing measurable at all
    probe(cands.front().first, cands.front().second, base_threads,
          std::min(tsteps, 2 * m));
  }
  for (const auto& [tile_c, tb_c] : cands) {
    const double sec = measure(tile_c, tb_c, base_threads);
    if (sec < best_sec) {
      best_sec = sec;
      best_tile = tile_c;
    }
  }

  // Axis 2: block heights below the winner's heuristic height — the
  // (tile × time_block) pair is measured, not re-derived. Only shorter
  // blocks exist for a fixed tile: the Fig. 7 height is the viability
  // maximum (taller blocks have degenerate triangle tops and renegotiate
  // back down), so the taller-block direction is explored through wider
  // tiles on axis 1. A non-heuristic winner is deployed (and recorded)
  // explicitly.
  probe_opts.tile = best_tile;
  probe_opts.time_block = 0;
  const int heur_tb = plan_geometry(treq).time_block;
  for (int tb_c : {std::max(m, heur_tb / 2 / m * m),
                   std::max(m, heur_tb / 4 / m * m)}) {
    if (tb_c == heur_tb) continue;
    probe_opts.time_block = tb_c;
    const WedgeGeometry g = plan_geometry(treq);
    if (!g.blocked || g.time_block == heur_tb || g.time_block == best_tb)
      continue;
    const double sec = measure(best_tile, g.time_block, base_threads);
    if (sec < best_sec) {
      best_sec = sec;
      best_tb = g.time_block;
    }
  }

  // Axis 3: thread counts below the resolved maximum. The geometry is
  // re-negotiated per count (the heuristic tile is a per-thread split), so
  // each candidate runs its own best-known shape.
  int best_thr = base_threads;
  std::vector<int> thr_cands{std::max(1, base_threads / 2),
                             Topology::system().cores_per_node()};
  if (thr_cands[1] == thr_cands[0]) thr_cands.pop_back();
  for (int thr_c : thr_cands) {
    if (thr_c <= 0 || thr_c >= base_threads) continue;
    probe_opts.threads = thr_c;
    probe_opts.tile = best_tile;
    probe_opts.time_block = best_tb;
    const WedgeGeometry g = plan_geometry(treq);
    if (!g.blocked) continue;
    const double sec = measure(g.tile, g.time_block, thr_c);
    if (sec < best_sec) {
      best_sec = sec;
      best_thr = thr_c;
    }
  }

  // Deploy (and record) the winner: the measured block height when one
  // beat the heuristic, otherwise the height the heuristic gives the
  // winning tile at the full horizon (so a tuned plan never trades away
  // the tall blocks an untuned plan would use); the winning thread count
  // only when the axis actually moved it (0 = "deploy with the key's").
  probe_opts.tsteps = tsteps;
  probe_opts.threads = best_thr;
  probe_opts.tile = best_tile;
  probe_opts.time_block = best_tb;
  const WedgeGeometry deployed = plan_geometry(treq);
  TuneCache::instance().store(
      *plan.tune_key,
      TunedGeometry{deployed.tile, deployed.time_block,
                    best_thr != base_threads ? best_thr : 0, best_leaf});
  return reprepare_tuned(ps);
}

template PreparedStencil Engine::tune<1>(const PreparedStencil&, FieldView1D,
                                         FieldView1D, const FieldView1D*);
template PreparedStencil Engine::tune<2>(const PreparedStencil&, FieldView2D,
                                         FieldView2D, const FieldView2D*);
template PreparedStencil Engine::tune<3>(const PreparedStencil&, FieldView3D,
                                         FieldView3D, const FieldView3D*);

}  // namespace sf
