/// \file
/// \brief Persistent measure-once auto-tuner cache for tiled execution.
///
/// The split-tiling heuristics (tiling/split_tiling.hpp negotiate_wedge)
/// give a good default tile geometry, but the best tile/time_block for a
/// *specific* {kernel, shape, tsteps, threads} configuration depends on the
/// machine. Engine::tune (core/engine.hpp, defined in tuner.cpp) measures
/// a handful of candidate geometries once on the caller's views, picks the
/// fastest, and records it here under the plan's ExecutionPlan::tune_key —
/// so every later plan of that configuration (in this process, or in any
/// process when `SF_TUNE_CACHE=path` persists the table to disk) recalls
/// it without re-measurement.
///
/// The cache is deliberately tiny machinery: a flat table with linear
/// lookup (real workloads tune a few dozen configurations at most) behind a
/// mutex, serialized as one whitespace-separated text line per entry.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "kernels/registry.hpp"

namespace sf {

/// Everything the tuned geometry depends on. Two runs with equal keys are
/// interchangeable for tuning purposes: same kernel (method + ISA level +
/// dimensionality), same stencil radius (the wedge slope is fold_depth ×
/// radius, so different-radius stencils need different geometry even under
/// the same kernel), same extents, same horizon, same thread count.
struct TuneKey {
  std::string kernel;      ///< Registry string key, e.g. "ours-2step".
  Isa isa = Isa::Scalar;   ///< Concrete ISA level of the selected kernel.
  int dims = 0;            ///< 1, 2 or 3.
  int radius = 0;          ///< Effective stencil radius (incl. 1-D source).
  long nx = 0;             ///< Extents (unused trailing dims = 1).
  long ny = 1;             ///< Second extent.
  long nz = 1;             ///< Third extent.
  int tsteps = 0;          ///< Time-step horizon.
  int threads = 0;         ///< Resolved OpenMP thread count.
  int levels = 1;          ///< Engaged tile-tree depth (1 = flat). Tree
                           ///< plans tile a different axis of the geometry
                           ///< space (the LLC-capped mid tile), so their
                           ///< measurements never leak into flat plans of
                           ///< the same shape, and vice versa.

  /// Field-wise equality.
  bool operator==(const TuneKey& o) const {
    return kernel == o.kernel && isa == o.isa && dims == o.dims &&
           radius == o.radius && nx == o.nx && ny == o.ny && nz == o.nz &&
           tsteps == o.tsteps && threads == o.threads && levels == o.levels;
  }
};

/// The geometry a measurement settled on.
struct TunedGeometry {
  int tile = 0;        ///< Tile extent along the tiled dimension.
  int time_block = 0;  ///< Time steps per block.
  int threads = 0;     ///< Winning worker count, when the measuring pass
                       ///< probed the thread-count axis (0 = deploy with
                       ///< the key's thread count — the pre-axis format,
                       ///< still written by entries that never probed).
  int leaf = 0;        ///< Winning leaf (register-block) alignment granule,
                       ///< when the measuring pass probed the per-level
                       ///< leaf axis of a tree plan (0 = none probed — flat
                       ///< plans and the pre-v3 formats). Provenance for
                       ///< the recorded tile, which is already aligned.

  /// Field-wise equality (the Engine's plan cache compares the lookup it
  /// snapshotted at prepare time against the current one).
  bool operator==(const TunedGeometry& o) const {
    return tile == o.tile && time_block == o.time_block &&
           threads == o.threads && leaf == o.leaf;
  }
  /// Field-wise inequality.
  bool operator!=(const TunedGeometry& o) const { return !(*this == o); }
};

/// Builds the key for a kernel/radius/shape/horizon/threads configuration;
/// `levels` is the engaged tile-tree depth (1 = flat, the default).
TuneKey make_tune_key(const KernelInfo& kernel, int radius, long nx, long ny,
                      long nz, int tsteps, int threads, int levels = 1);

/// Rounds an extent down to its tuning bucket: quarter-octave edges
/// (1.0x, 1.25x, 1.5x, 1.75x of each power of two), so production sweeps
/// whose shapes differ by a few percent share one bucket while shapes a
/// cache level apart never do. Monotone; tune_bucket(n) <= n.
long tune_bucket(long n);

/// The key with its shape (nx, ny, nz) and horizon rounded into buckets
/// via tune_bucket(); kernel/radius/threads stay exact.
TuneKey bucketed_key(const TuneKey& k);

/// Process-wide tuning table. Thread-safe. The singleton loads
/// `SF_TUNE_CACHE` (when set) on first use, and store() appends each new
/// result to that file so later processes start warm.
class TuneCache {
 public:
  /// The singleton cache (loads SF_TUNE_CACHE on first call).
  static TuneCache& instance();

  /// The tuned geometry recorded for `key`, if any.
  std::optional<TunedGeometry> lookup(const TuneKey& key) const;

  /// Widened lookup: an exact-shape entry always wins; on a miss, any
  /// entry whose kernel/radius/threads match exactly and whose shape and
  /// horizon fall in the same tune_bucket() buckets is returned — so
  /// nearby production sizes reuse measurements instead of re-tuning.
  /// Callers must re-validate the geometry against their real extents
  /// (plan_execution does) before deploying it.
  std::optional<TunedGeometry> lookup_rounded(const TuneKey& key) const;

  /// Records (or overwrites) the geometry for `key`; appends to the
  /// SF_TUNE_CACHE file when the singleton was configured with one.
  void store(const TuneKey& key, const TunedGeometry& g);

  /// Number of store() calls over this object's lifetime. Tests use this to
  /// assert measure-once behavior: a second run of a tuned configuration
  /// must not store (= must not have re-measured) again.
  long stored_count() const;

  /// Number of distinct keys currently cached.
  std::size_t size() const;

  /// Drops every entry (test isolation; does not touch the disk file).
  void clear();

  /// Merges entries from a cache file (later lines win). Returns the number
  /// of lines parsed: exactly the version's columns, each a whole integer
  /// in its field's range. Other lines are skipped, with one warning.
  std::size_t load_file(const std::string& path);

  /// Writes the whole table to `path` (one line per entry). Returns false
  /// when the file cannot be opened.
  bool save_file(const std::string& path) const;

  /// Constructs an empty cache that persists nothing. The process-wide
  /// instance() is the usual entry point; independent objects exist for
  /// tests.
  TuneCache() = default;

 private:
  std::optional<TunedGeometry> lookup_locked(const TuneKey& key) const
      SF_REQUIRES(mu_);
  // Records `g` for `key`, replacing an existing entry in place.
  void upsert_locked(TuneKey key, const TunedGeometry& g) SF_REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<std::pair<TuneKey, TunedGeometry>> entries_ SF_GUARDED_BY(mu_);
  // "" = in-process only. Written once by instance() before the singleton
  // is shared (construction-time), read under mu_ afterwards.
  std::string persist_path_ SF_GUARDED_BY(mu_);
  long stores_ SF_GUARDED_BY(mu_) = 0;
};

}  // namespace sf
