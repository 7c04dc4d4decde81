#include "core/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/env.hpp"
#include "core/tuner.hpp"
#include "grid/grid_utils.hpp"
#include "layout/transpose_layout.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

// ---------------------------------------------------------------------------
// Auto method selection + flop accounting (shared by Engine and Solver).
// ---------------------------------------------------------------------------

double flops_per_step(const StencilSpec& spec, long nx, long ny, long nz) {
  return spec.visit([&](const auto& p) {
    const long ext[] = {nx, ny, nz};
    double pts = 1;
    for (int ax = 0; ax < p.dims; ++ax) pts *= static_cast<double>(ext[ax]);
    long f = p.flops_per_point();
    if (p.dims == 1 && spec.has_source)
      f += 2 * static_cast<long>(spec.src1.size());
    return pts * static_cast<double>(f);
  });
}

Method auto_method(const StencilSpec& spec, Isa isa) {
  // Multiple-loads engages at any radius at every ISA, tiles, and was the
  // fastest method at every shape measured (docs/BENCHMARKS.md). The
  // paper's methods run when requested by name.
  if (find_kernel(Method::MultipleLoads, spec.dims, isa) != nullptr)
    return Method::MultipleLoads;
  return Method::Naive;
}

// ---------------------------------------------------------------------------
// Prepared state
// ---------------------------------------------------------------------------

struct PreparedStencil::State {
  StencilSpec spec;
  const KernelInfo* kernel = nullptr;
  int halo = 0;
  ExecutionPlan plan;
  Extents ext;       // resolved extents (1 below the stencil's dims)
  ExecOptions opts;  // the resolved request (see resolve_request)
  Layout preferred = Layout::Natural;  // kernel's layout at this radius
  std::uint64_t plan_key = 0;          // effective-request hash (batch key)
  std::shared_ptr<WorkerPool> pool;    // runtime pool of the tiled stages
                                       // (shared per (threads, affinity);
                                       // null for untiled/serial plans)
};

const StencilSpec& PreparedStencil::spec() const { return st_->spec; }
const KernelInfo& PreparedStencil::kernel() const { return *st_->kernel; }
int PreparedStencil::halo() const { return st_->halo; }
const ExecutionPlan& PreparedStencil::plan() const { return st_->plan; }
long PreparedStencil::nx() const { return st_->ext.nx; }
long PreparedStencil::ny() const { return st_->ext.ny; }
long PreparedStencil::nz() const { return st_->ext.nz; }
int PreparedStencil::tsteps() const { return st_->opts.tsteps; }
Layout PreparedStencil::preferred_layout() const { return st_->preferred; }
Layout PreparedStencil::resident_layout() const { return st_->opts.layout; }
HaloPolicy PreparedStencil::halo_policy() const {
  return st_->opts.halo_policy;
}
Affinity PreparedStencil::affinity() const { return st_->opts.affinity; }
bool PreparedStencil::validates() const { return st_->opts.validate; }
std::uint64_t PreparedStencil::plan_key() const { return st_->plan_key; }
const WorkerPool* PreparedStencil::pool() const { return st_->pool.get(); }

// ---------------------------------------------------------------------------
// View validation
// ---------------------------------------------------------------------------

namespace {

bool aligned64(const double* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 63u) == 0;
}

[[noreturn]] void bad_view(const char* which, const std::string& why) {
  throw std::invalid_argument(std::string("PreparedStencil::run: view '") +
                              which + "' " + why);
}

// The prepared extent of `axis` (0 = x).
long prepared_extent(const PreparedStencil& ps, int axis) {
  return axis == 0 ? ps.nx() : axis == 1 ? ps.ny() : ps.nz();
}

// Throws unless `ps` holds prepared state — for a D-dimensional stencil
// when `check_dims` is set.
void require_prepared(const PreparedStencil& ps, int dims, const char* fn,
                      bool check_dims = true) {
  if (!ps.valid())
    throw std::invalid_argument(std::string("PreparedStencil::") + fn +
                                " on an empty handle");
  if (check_dims && ps.spec().dims != dims)
    throw std::invalid_argument(std::to_string(dims) + "-D " + fn +
                                "() on a stencil prepared for " +
                                std::to_string(ps.spec().dims) + "-D");
}

// `accept` is the resident layout this preparation admits beyond Natural
// (ExecOptions::layout): Natural-tagged views are always valid (the kernel
// transforms in/out per call), accept-tagged views execute resident —
// provided their recorded layout width matches the prepared kernel's (the
// transforms permute differently per SIMD width, so a W=4-resident buffer
// handed to a W=8 kernel would be silently misread, never detectably).
template <int D>
void check_common(const char* which, const FieldView<D>& v, int need_halo,
                  Layout accept, int want_width) {
  if (!v.valid()) bad_view(which, "is empty (default-constructed)");
  if (v.layout() != Layout::Natural && v.layout() != accept)
    bad_view(which,
             std::string("is tagged ") + layout_name(v.layout()) +
                 "; this preparation accepts " +
                 (accept == Layout::Natural
                      ? std::string("only natural-layout views (prepare with "
                                    "ExecOptions::layout = the kernel's "
                                    "preferred_layout() for resident "
                                    "execution)")
                      : std::string("natural or ") + layout_name(accept) +
                            " views (transform via to_resident_layout)"));
  if (v.layout() != Layout::Natural && v.layout_width() != want_width) {
    std::ostringstream os;
    os << "is tagged " << layout_name(v.layout()) << " for SIMD width "
       << v.layout_width() << " but the prepared kernel reads width "
       << want_width
       << "; transform via to_resident_layout on this handle (hand-tagged "
          "views must record the width: with_layout(layout, width))";
    bad_view(which, os.str());
  }
  if (v.halo() < need_halo) {
    std::ostringstream os;
    os << "has halo " << v.halo() << " but the prepared kernel requires >= "
       << need_halo;
    bad_view(which, os.str());
  }
  if (!aligned64(v.data()))
    bad_view(which, "interior is not 64-byte aligned (allocate via Grid or "
                    "an aligned allocator)");
}

// The ping-pong pair must share one layout: the kernels treat both buffers
// as being in the same storage order throughout the run.
void check_same_layout(Layout a, Layout b) {
  if (a != b)
    bad_view("b", std::string("is tagged ") + layout_name(b) +
                      " but 'a' is tagged " + layout_name(a) +
                      "; ping-pong buffers must share one layout");
}

// Addressable span of a view, as [lo, hi) byte-order addresses: from the
// element at index -halo on every axis to the one past n + halo - 1.
// Pointer order across distinct allocations is compared via uintptr_t,
// which every supported platform orders consistently.
struct Span {
  std::uintptr_t lo, hi;
};

template <int D>
Span span_of(const FieldView<D>& v) {
  const int h = v.halo();
  std::ptrdiff_t lo = -h, hi = v.nx() + h;
  for (int ax = 1; ax < D; ++ax) {
    lo -= h * v.axis_stride(ax);
    hi += (v.extent(ax) + h - 1) * v.axis_stride(ax);
  }
  return {reinterpret_cast<std::uintptr_t>(v.data() + lo),
          reinterpret_cast<std::uintptr_t>(v.data() + hi)};
}

template <int D>
void check_disjoint(const char* which, const FieldView<D>& v,
                    const char* other_name, const FieldView<D>& other) {
  const Span a = span_of(v), b = span_of(other);
  if (a.lo < b.hi && b.lo < a.hi)
    bad_view(which, std::string("overlaps view '") + other_name +
                        "'; executors need disjoint buffers");
}

// Extents against the prepared ones, x first; a 1-D extent is called n.
template <int D>
void check_extents(const char* which, const FieldView<D>& v,
                   const PreparedStencil& ps) {
  static const char* const kAxis[] = {"nx", "ny", "nz"};
  for (int ax = 0; ax < D; ++ax)
    if (v.extent(ax) != prepared_extent(ps, ax)) {
      std::ostringstream os;
      os << "has " << (D == 1 ? "n" : kAxis[ax]) << " = " << v.extent(ax)
         << " but was prepared for " << prepared_extent(ps, ax);
      bad_view(which, os.str());
    }
}

// Stride of `axis` (1 = rows, 2 = planes): a multiple of 8 doubles, and
// wide enough that consecutive rows/planes including their halo never
// alias.
template <int D>
void check_stride(const char* which, const FieldView<D>& v, int axis) {
  static const char* const kName[] = {"", "row", "plane"};
  static const char* const kNeed[] = {"", "nx + 2*halo",
                                      "stride * (ny + 2*halo)"};
  const std::ptrdiff_t stride = v.axis_stride(axis);
  const std::ptrdiff_t need =
      v.axis_stride(axis - 1) * (v.extent(axis - 1) + 2 * v.halo());
  if (stride % 8 != 0) {
    std::ostringstream os;
    os << "has " << kName[axis] << " stride " << stride
       << ", which is not a multiple of 8 doubles";
    bad_view(which, os.str());
  }
  if (stride < need) {
    std::ostringstream os;
    os << "has " << kName[axis] << " stride " << stride << " < "
       << kNeed[axis] << " = " << need << "; consecutive " << kName[axis]
       << "s would alias";
    bad_view(which, os.str());
  }
}

// Validates a ping-pong pair (plus the source array `k` of a stencil with
// a source term) against the prepared geometry.
template <int D>
void validate(const PreparedStencil& ps, const FieldView<D>& a,
              const FieldView<D>& b, const FieldView<D>* k) {
  const int need_halo = ps.halo();
  const Layout accept = ps.resident_layout();
  const int want_width = ps.kernel().width;
  check_common("a", a, need_halo, accept, want_width);
  check_common("b", b, need_halo, accept, want_width);
  check_same_layout(a.layout(), b.layout());
  check_extents("a", a, ps);
  check_extents("b", b, ps);
  for (int ax = 1; ax < D; ++ax) {
    check_stride("a", a, ax);
    check_stride("b", b, ax);
  }
  check_disjoint("b", b, "a", a);
  if (ps.spec().has_source) {
    if (k == nullptr)
      throw std::invalid_argument(
          "PreparedStencil::run: this stencil has a source term; use the "
          "overload taking the source view 'k'");
    // The source array's layout is independent of the pair's: a
    // natural-tagged k is copied+transformed per call, a resident-tagged
    // one is read zero-copy.
    check_common("k", *k, need_halo, accept, want_width);
    check_extents("k", *k, ps);
    check_disjoint("k", *k, "a", a);
    check_disjoint("k", *k, "b", b);
  } else if (k != nullptr) {
    throw std::invalid_argument(
        "PreparedStencil::run: source view 'k' passed but the prepared "
        "stencil has no source term");
  }
}

// The Dirichlet halo is input state on *both* ping-pong buffers (kernels
// read whichever buffer holds the current parity), so run() mirrors a's
// halo ring into b before executing. Interior cells are not touched —
// that is the zero-copy contract — and only the halo shell is copied,
// O(surface) rather than O(volume): rows inside a halo slab in full, the
// other rows (the one row of a 1-D field included) just their x rims. The
// copy is positional, so it is valid in any resident layout as long as
// both buffers share one (validated): permute-then-copy and
// copy-then-permute produce identical bytes.
template <int D>
void sync_halo(const FieldView<D>& a, const FieldView<D>& b) {
  const int h = std::min(a.halo(), b.halo());
  auto copy_x = [](const double* s, double* d, int x0, int x1) {
    for (int x = x0; x < x1; ++x) d[x] = s[x];
  };
  for_each_row(
      a, -h, a.outer_extent() + h, h,
      [&](int x0, int x1, bool edge, const double* s, double* d) {
        if (edge) {
          copy_x(s, d, x0, x1);
        } else {
          copy_x(s, d, x0, x0 + h);
          copy_x(s, d, x1 - h, x1);
        }
      },
      b);
}

}  // namespace

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

template <int D>
void PreparedStencil::run_views(const FieldView<D>& a, const FieldView<D>& b,
                                const FieldView<D>* k, int tsteps) const {
  require_prepared(*this, D, "run");
  if (st_->opts.validate) validate(*this, a, b, k);
  if (st_->opts.halo_policy == HaloPolicy::Sync) sync_halo(a, b);
  const Pattern<D>& p = st_->spec.pattern<D>();
  const Pattern1D* src = st_->spec.has_source ? &st_->spec.src1 : nullptr;
  if (st_->plan.tiled)
    run_tile_plan(p, a, b, src, k, tsteps, st_->plan.tile);
  else
    st_->kernel->run(p, a, b, src, k, tsteps);
}

template <int D>
void PreparedStencil::run(FieldView<D> a, FieldView<D> b, int tsteps) const {
  run_views<D>(a, b, nullptr, tsteps);
}
void PreparedStencil::run(FieldView1D a, FieldView1D b, FieldView1D k,
                          int tsteps) const {
  run_views<1>(a, b, k.valid() ? &k : nullptr, tsteps);
}

template <int D>
void PreparedStencil::validate_views(FieldView<D> a, FieldView<D> b,
                                     const ViewArg<D>* k) const {
  require_prepared(*this, D, "validate_views");
  validate(*this, a, b, k);
}

template <int D>
void PreparedStencil::advance_batch(const std::vector<TileBatch<D>>& items,
                                    int nsteps) const {
  require_prepared(*this, D, "advance_batch");
  if (items.empty()) return;
  for (const TileBatch<D>& it : items) {
    if (st_->opts.validate) validate(*this, it.a, it.b, it.k);
    if (st_->opts.halo_policy == HaloPolicy::Sync) sync_halo(it.a, it.b);
  }
  const Pattern<D>& p = st_->spec.pattern<D>();
  const Pattern1D* src = st_->spec.has_source ? &st_->spec.src1 : nullptr;
  if (st_->plan.tiled) {
    run_tile_plan_batch(p, items, src, nsteps, st_->plan.tile);
    return;
  }
  // Untiled plan: the batch *is* the parallelism — fan the independent
  // per-item kernel runs over the shared pool in one dispatch.
  auto run_item = [&](int i) {
    const TileBatch<D>& it = items[static_cast<std::size_t>(i)];
    st_->kernel->run(p, it.a, it.b, src, it.k, nsteps);
  };
  if (items.size() > 1 && st_->opts.threads != 1)
    shared_pool(st_->opts.threads, st_->opts.affinity)
        ->parallel_for(0, static_cast<int>(items.size()), run_item);
  else
    for (std::size_t i = 0; i < items.size(); ++i)
      run_item(static_cast<int>(i));
}

// ---------------------------------------------------------------------------
// First-touch initialization
// ---------------------------------------------------------------------------

namespace {

// Drives `fn(lo, hi)` over the outermost (tiled) axis's logical range
// [-halo, n_tiled + halo) either per placement — each owning worker
// handling exactly its tile rows/planes (plus the domain-end halo slabs
// abutting its tiles) — or serially on the calling thread when the plan has
// no pool or the view's tiled extent is not the prepared one.
// `pinned_only` additionally forces the serial path for unpinned
// (Affinity::None) pools: first-touch zeroing gains nothing from floating
// workers (pages would land on whatever node the OS scheduled them),
// whereas compute-bound callers (the pool-parallel layout transform) want
// the parallelism either way.
template <class Fn>
void split_over_placement(const ExecutionPlan& plan, WorkerPool* pool,
                          long n_tiled, long prepared_n, int halo,
                          bool pinned_only, Fn&& fn) {
  const PlacementPlan& place = plan.placement;
  if (pool == nullptr || place.workers == 0 ||
      (pinned_only && place.affinity == Affinity::None) ||
      n_tiled != prepared_n) {
    fn(-halo, n_tiled + halo);
    return;
  }
  const int tile = plan.tile.tile;
  pool->run([&](int w) {
    const auto [t0, t1] = place.tiles_of(w);
    if (t0 >= t1) return;
    long lo = static_cast<long>(t0) * tile;
    long hi = std::min<long>(n_tiled, static_cast<long>(t1) * tile);
    // The domain-end halo slabs belong to the workers whose tiles abut
    // them — they are read alongside those tiles every super-step.
    if (t0 == 0) lo = -halo;
    if (hi >= n_tiled) hi = n_tiled + halo;
    fn(lo, hi);
  });
}

}  // namespace

template <int D>
void PreparedStencil::first_touch(FieldView<D> v) const {
  require_prepared(*this, D, "first_touch", /*check_dims=*/false);
  const int h = v.halo();
  split_over_placement(
      st_->plan, st_->pool.get(), v.outer_extent(),
      prepared_extent(*this, D - 1), h,
      /*pinned_only=*/true, [&](long lo, long hi) {
        for_each_row(v, static_cast<int>(lo), static_cast<int>(hi), h,
                     [](int x0, int x1, bool, double* row) {
                       std::memset(row + x0, 0,
                                   static_cast<std::size_t>(x1 - x0) *
                                       sizeof(double));
                     });
      });
}

// ---------------------------------------------------------------------------
// Resident-layout conversion helpers
// ---------------------------------------------------------------------------

namespace {

// Shared implementation of to_resident_layout()/to_natural_layout(): the
// preferred layouts are involutions (register transpose), so the same
// transform converts in either direction and only the tag bookkeeping
// differs. The in-place transform is placement-aware: rows, planes and
// 1-D W*W blocks are independent, so it runs as a pool task over the
// plan's ownership map — each worker permutes the part of its own tiles,
// keeping the work where the pages live (and off the calling thread's node
// for fresh first-touched buffers). Serial/untiled preparations and
// mismatched extents fall back to the caller's thread. The const_cast is
// sound: pool() returns const only as introspection hygiene; the pool
// object itself is the registry's mutable shared state.
template <int D>
FieldView<D> convert_layout(const PreparedStencil& ps, FieldView<D> v,
                            bool to_resident, const char* fn) {
  if (!ps.valid())
    throw std::invalid_argument(std::string(fn) +
                                ": empty PreparedStencil handle");
  if (!v.valid())
    throw std::invalid_argument(std::string(fn) + ": empty view");
  const Layout pref = ps.preferred_layout();
  if (pref == Layout::Natural) {
    if (v.layout() != Layout::Natural)
      throw std::invalid_argument(
          std::string(fn) + ": view is tagged " + layout_name(v.layout()) +
          " but the prepared kernel keeps data in natural layout");
    return v;  // nothing to convert to or from
  }
  // A non-natural view must have been transformed at *this* kernel's SIMD
  // width — the permutations differ per width, so converting (or handing
  // back, in the idempotent case) a foreign-width buffer would scramble it
  // undetectably.
  const int width = ps.kernel().width;
  if (v.layout() != Layout::Natural && v.layout_width() != width) {
    std::ostringstream os;
    os << fn << ": view is tagged " << layout_name(v.layout())
       << " for SIMD width " << v.layout_width()
       << " but this handle's kernel uses width " << width;
    throw std::invalid_argument(os.str());
  }
  const Layout want = to_resident ? pref : Layout::Natural;
  if (v.layout() == want) return v;  // idempotent
  const Layout from = to_resident ? Layout::Natural : pref;
  if (v.layout() != from)
    throw std::invalid_argument(
        std::string(fn) + ": view is tagged " + layout_name(v.layout()) +
        "; expected " + layout_name(from) + " (preferred layout is " +
        layout_name(pref) + ")");
  split_over_placement(ps.plan(), const_cast<WorkerPool*>(ps.pool()),
                       v.outer_extent(), prepared_extent(ps, D - 1), v.halo(),
                       /*pinned_only=*/false, [&](long lo, long hi) {
                         apply_transpose_layout(v, width,
                                                static_cast<int>(lo),
                                                static_cast<int>(hi));
                       });
  return v.with_layout(want, want == Layout::Natural ? 0 : width);
}

}  // namespace

template <int D>
FieldView<D> to_resident_layout(const PreparedStencil& ps, FieldView<D> v) {
  return convert_layout(ps, v, true, "to_resident_layout");
}
template <int D>
FieldView<D> to_natural_layout(const PreparedStencil& ps, FieldView<D> v) {
  return convert_layout(ps, v, false, "to_natural_layout");
}

// The D-generic entry points (engine.hpp), instantiated for 1-, 2- and 3-D.
#define SF_ENTRY_POINTS(D)                                                   \
  template void PreparedStencil::first_touch(FieldView<D>) const;            \
  template void PreparedStencil::run(FieldView<D>, FieldView<D>, int) const; \
  template void PreparedStencil::advance_batch(                              \
      const std::vector<TileBatch<D>>&, int) const;                          \
  template void PreparedStencil::validate_views<D>(                          \
      FieldView<D>, FieldView<D>, const ViewArg<D>*) const;                  \
  template FieldView<D> to_resident_layout(const PreparedStencil&,           \
                                           FieldView<D>);                    \
  template FieldView<D> to_natural_layout(const PreparedStencil&, FieldView<D>);
SF_ENTRY_POINTS(1)
SF_ENTRY_POINTS(2)
SF_ENTRY_POINTS(3)
#undef SF_ENTRY_POINTS

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

template <int D>
std::uint64_t hash_pattern(std::uint64_t h, const Pattern<D>& p) {
  for (const auto& t : p.taps) {
    for (int d = 0; d < D; ++d)
      h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(t.off[d])));
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(t.w), "double is 64-bit");
    __builtin_memcpy(&bits, &t.w, sizeof(bits));
    h = fnv1a(h, bits);
  }
  return h;
}

std::uint64_t hash_spec(const StencilSpec& s) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, static_cast<std::uint64_t>(s.dims));
  h = s.visit([h](const auto& p) { return hash_pattern(h, p); });
  h = fnv1a(h, s.has_source ? 1 : 0);
  if (s.has_source) h = hash_pattern(h, s.src1);
  return h;
}

[[noreturn]] void bad_request(const std::string& why) {
  throw std::invalid_argument("Engine::prepare: " + why);
}

void require_non_negative(const char* field, long v) {
  if (v < 0)
    bad_request(std::string(field) + " " + std::to_string(v) +
                " is negative (0 = the default)");
}

// The worker-pool axes of a request: unset ones take their process-wide
// defaults. Shared by resolve_request() and warm_pool(), so a warmed pool
// is the one a prepared plan acquires.
void resolve_workers(ExecOptions& opts) {
  require_non_negative("threads", opts.threads);
  if (opts.affinity == Affinity::None) opts.affinity = env_affinity();
  if (opts.threads == 0) opts.threads = env_threads();
}

// Environment/preset fallback resolution shared by prepare() and
// plan_key(): the resolved record is what the plan cache matches and the
// plan key hashes, so an env change between calls is never served (or
// keyed as) a stale preparation. Values no request can mean are rejected
// here instead of being remapped.
void resolve_request(const StencilSpec& spec, Extents& ext,
                     ExecOptions& opts) {
  // FieldView extents are int: refuse what no view could describe instead
  // of letting a narrowing cast wrap it into some other grid.
  for (long e : {ext.nx, ext.ny, ext.nz})
    if (e < 0 || e > std::numeric_limits<int>::max())
      bad_request("extent " + std::to_string(e) +
                  " is outside [0, INT_MAX] (0 = the preset default)");
  require_non_negative("tsteps", opts.tsteps);
  require_non_negative("tile", opts.tile);
  require_non_negative("time_block", opts.time_block);
  if (opts.levels < -1 || opts.levels > 3)
    bad_request("levels " + std::to_string(opts.levels) +
                " is outside [-1, 3] (0 = SF_TILE_LEVELS, -1 = auto)");
  resolve_workers(opts);
  opts.validate = opts.validate && env_validate();
  if (ext.nx == 0) ext.nx = spec.small_size[0];
  if (ext.ny == 0) ext.ny = spec.dims >= 2 ? spec.small_size[1] : 1;
  if (ext.nz == 0) ext.nz = spec.dims >= 3 ? spec.small_size[2] : 1;
  if (opts.tsteps == 0) opts.tsteps = static_cast<int>(spec.small_tsteps);
  // The planner's byte counts — the working set and the tile planners'
  // 3-slice cap, at most 1.5x it — must fit a long: bound them by twice
  // the working set with a checked multiply.
  long bytes = 2 * 2 * static_cast<long>(sizeof(double));
  for (long e : {ext.nx, ext.ny, ext.nz})
    if (__builtin_mul_overflow(bytes, e, &bytes))
      bad_request("extents " + std::to_string(ext.nx) + " x " +
                  std::to_string(ext.ny) + " x " + std::to_string(ext.nz) +
                  " overflow the plan's byte counts");
  // Tile-tree depth: unset defers to SF_TILE_LEVELS; Auto (-1, from either
  // source) engages the full hierarchy exactly when the ping-pong working
  // set spills the LLC — flat plans already keep LLC-resident tiles.
  if (opts.levels == 0) opts.levels = env_tile_levels();
  if (opts.levels < 0)
    opts.levels =
        working_set_bytes(ext.nx, ext.ny, ext.nz) > llc_bytes() ? 3 : 1;
}

// The plan key: FNV-1a over the full resolved request. Equal keys mean
// prepare() would serve both requests from one cache entry (modulo hash
// collisions, which only cost a missed batching opportunity downstream —
// the serving batcher executes each group through a handle of that group,
// never across groups).
std::uint64_t request_key(std::uint64_t spec_hash, const Extents& ext,
                          const ExecOptions& o) {
  std::uint64_t h = fnv1a(1469598103934665603ull, spec_hash);
  for (long e : {ext.nx, ext.ny, ext.nz})
    h = fnv1a(h, static_cast<std::uint64_t>(e));
  std::apply(
      [&h](const auto&... f) {
        ((h = fnv1a(h, static_cast<std::uint64_t>(f))), ...);
      },
      o.fields());
  return h;
}

template <int D>
bool same_pattern(const Pattern<D>& a, const Pattern<D>& b) {
  if (a.taps.size() != b.taps.size()) return false;
  for (std::size_t i = 0; i < a.taps.size(); ++i) {
    if (a.taps[i].off != b.taps[i].off) return false;
    if (a.taps[i].w != b.taps[i].w) return false;
  }
  return true;
}

// Taps are kept sorted and offset-unique by the Pattern algebra, so
// element-wise comparison is a canonical equality test. Identity metadata
// (id, name) participates too: a pattern-identical custom spec must not be
// handed a cached state whose spec() reports another stencil's name.
bool same_spec(const StencilSpec& a, const StencilSpec& b) {
  if (a.id != b.id || a.name != b.name) return false;
  if (a.dims != b.dims || a.has_source != b.has_source) return false;
  if (a.has_source && !same_pattern(a.src1, b.src1)) return false;
  return a.visit([&b](const auto& p) {
    return same_pattern(p, b.pattern<std::decay_t<decltype(p)>::dims>());
  });
}

}  // namespace

struct Engine::CacheEntry {
  std::uint64_t spec_hash = 0;
  // Per-key tuner dependence: a plan that consulted the TuneCache carries
  // the key it asked about (ExecutionPlan::tune_key) and the entry records
  // what the lookup returned. The entry stays valid exactly while that
  // lookup still returns the same answer — so tuning one configuration
  // invalidates only the preparations that actually read its entry, not
  // every cached plan. Plans that never consulted the tuner (untiled, or
  // explicit tile/time_block) are valid across any tuning activity.
  std::optional<TunedGeometry> tune_seen;
  std::shared_ptr<const PreparedStencil::State> state;  // holds the request
};

Engine& Engine::instance() {
  static Engine* e = new Engine();
  return *e;
}

PreparedStencil Engine::prepare(Preset p, Extents ext,
                                const ExecOptions& opts) {
  return prepare(preset(p), ext, opts);
}

PreparedStencil Engine::prepare(const StencilSpec& spec, Extents ext,
                                const ExecOptions& opts_in) {
  // Defaults mirror Solver::resolve(): each unset extent independently
  // falls back to the preset fast-run size. Unset runtime knobs pick up
  // their process-wide environment defaults here, so the cache key below
  // is the *effective* request and an env change between calls is never
  // served a stale preparation.
  ExecOptions opts = opts_in;
  resolve_request(spec, ext, opts);

  // Tiled auto-geometry plans read the TuneCache, so each cached
  // preparation snapshots the lookup it depended on; it is served only
  // while that per-key lookup still returns the same answer (see
  // CacheEntry). The request match covers every ExecOptions field — the
  // resident-layout axis and halo policy change run()-time behavior, so
  // preparations differing in them must not be shared.
  const std::uint64_t sh = hash_spec(spec);
  auto matches = [&](const CacheEntry& e) {
    const PreparedStencil::State& st = *e.state;
    return e.spec_hash == sh && st.ext.nx == ext.nx && st.ext.ny == ext.ny &&
           st.ext.nz == ext.nz && st.opts == opts && same_spec(st.spec, spec);
  };
  auto tuner_fresh = [](const CacheEntry& e) {
    const std::optional<TuneKey>& key = e.state->plan.tune_key;
    return !key || TuneCache::instance().lookup_rounded(*key) == e.tune_seen;
  };
  {
    LockGuard lock(mu_);
    for (const CacheEntry& e : cache_)
      if (matches(e) && tuner_fresh(e)) {
        ++hits_;
        telemetry::counter("engine.plan_cache.hit").add(1);
        return PreparedStencil(e.state);
      }
  }
  // Miss: a full plan + pool + workspace build — worth a trace span, and
  // the counter pair the cache-effectiveness dashboards divide. Resolving
  // the handle per call is fine here: prepare() is the documented cold
  // path (serving pays it once per plan).
  telemetry::counter("engine.plan_cache.miss").add(1);
  telemetry::Span prepare_span("engine.prepare");

  auto st = std::make_shared<PreparedStencil::State>();
  st->spec = spec;
  st->ext = ext;
  st->opts = opts;
  st->plan_key = request_key(sh, ext, opts);

  const Method m =
      opts.method == Method::Auto ? auto_method(spec, opts.isa) : opts.method;
  st->kernel = find_kernel(m, spec.dims, opts.isa);
  if (st->kernel == nullptr)
    throw std::invalid_argument(std::string("no kernel registered for ") +
                                method_name(m) + " in " +
                                std::to_string(spec.dims) + "-D at " +
                                isa_name(resolve_isa(opts.isa)));
  st->halo = st->kernel->required_halo(effective_radius(spec));
  if (spec.dims > 1 && !row_stride_fits(static_cast<std::size_t>(ext.nx),
                                        static_cast<std::size_t>(st->halo)))
    bad_request("nx " + std::to_string(ext.nx) + " with halo " +
                std::to_string(st->halo) +
                " pads a row beyond INT_MAX doubles (the row stride)");
  // Resident-layout negotiation: the handle records the kernel's engaged
  // layout preference, and a request to accept resident views must match
  // it — a mismatch would mean kernels misinterpreting the caller's bytes.
  st->preferred = st->kernel->resident_layout(effective_radius(spec));
  if (opts.layout != Layout::Natural && opts.layout != st->preferred)
    throw std::invalid_argument(
        std::string("Engine::prepare: ExecOptions::layout requests ") +
        layout_name(opts.layout) + "-resident execution but kernel '" +
        st->kernel->name + "' keeps data in " + layout_name(st->preferred) +
        " layout at this radius");

  st->plan = plan_execution({st->spec, *st->kernel, ext, st->opts});

  // Build or reuse the runtime pool the tiled stages will run on (shared
  // per (threads, affinity), workers parked between tasks). The folded
  // stage's per-worker window is first-touched by the wedge
  // schedule's prologue on its owner (tiling/split_tiling.cpp), in the slot
  // that already overlaps the first super-step.
  if (st->plan.tiled && st->plan.blocked && st->plan.tile.threads > 1)
    st->pool = shared_pool(st->plan.tile.threads, opts.affinity);

  CacheEntry entry;
  entry.spec_hash = sh;
  // Snapshot the tuner lookup this plan depended on, under the key the
  // planner recorded. The snapshot is taken after planning, so a store
  // racing in between leaves a snapshot one step ahead of the plan —
  // harmless: the entry self-invalidates on the *next* change to that
  // key, and tuned geometry is advisory, never a correctness input.
  if (st->plan.tune_key)
    entry.tune_seen = TuneCache::instance().lookup_rounded(*st->plan.tune_key);
  entry.state = st;
  {
    LockGuard lock(mu_);
    // Evict the same-request entry being superseded and any entry whose
    // tuner snapshot went stale (it can never be served again); a hard cap
    // bounds the cache against unbounded distinct-shape churn in
    // long-lived processes.
    const std::size_t before = cache_.size();
    cache_.erase(std::remove_if(cache_.begin(), cache_.end(),
                                [&](const CacheEntry& e) {
                                  return matches(e) || !tuner_fresh(e);
                                }),
                 cache_.end());
    constexpr std::size_t kMaxEntries = 256;
    std::size_t evicted = before - cache_.size();
    if (cache_.size() >= kMaxEntries) {
      cache_.erase(cache_.begin());  // oldest first
      ++evicted;
    }
    if (evicted > 0)
      telemetry::counter("engine.plan_cache.evictions")
          .add(static_cast<std::int64_t>(evicted));
    cache_.push_back(std::move(entry));
  }
  return PreparedStencil(st);
}

PreparedStencil Engine::prepare_shared(Preset p, Extents ext,
                                       const ExecOptions& opts) {
  return prepare_shared(preset(p), ext, opts);
}

PreparedStencil Engine::prepare_shared(const StencilSpec& spec, Extents ext,
                                       const ExecOptions& opts) {
  // Build coalescing: the first caller of a key claims it and builds; later
  // callers of the *same* key wait here and are then served the cached
  // state their builder inserted (their prepare() below is a cache hit
  // returning the identical State). Distinct keys never wait on each other.
  const std::uint64_t key = plan_key(spec, ext, opts);
  {
    UniqueLock lock(share_mu_);
    // Explicit loop so the guarded building_ reads are visibly under the
    // lock to the thread-safety analysis.
    while (building_.count(key) != 0) share_cv_.wait(lock);
    building_.insert(key);
  }
  struct Claim {  // release the key and wake waiters even on throw
    Engine* e;
    std::uint64_t key;
    ~Claim() {
      {
        LockGuard lock(e->share_mu_);
        e->building_.erase(key);
      }
      e->share_cv_.notify_all();
    }
  } claim{this, key};
  return prepare(spec, ext, opts);
}

const ExecOptions& Engine::options_of(const PreparedStencil& ps) {
  return ps.st_->opts;
}

PreparedStencil Engine::reprepare_tuned(const PreparedStencil& ps) {
  // The resolved request re-resolves to itself, so this is ps's own cache
  // slot; the tuner's store invalidated it, so it re-plans and recalls the
  // stored geometry. The handed-out copy reports the provenance; the
  // cached state keeps reporting Cached to later prepare() calls.
  const PreparedStencil fresh =
      prepare(ps.spec(), Extents{ps.nx(), ps.ny(), ps.nz()}, options_of(ps));
  auto st = std::make_shared<PreparedStencil::State>(*fresh.st_);
  st->plan.source = PlanSource::Tuned;
  return PreparedStencil(st);
}

std::uint64_t Engine::plan_key(const StencilSpec& spec, Extents ext,
                               const ExecOptions& opts_in) const {
  ExecOptions opts = opts_in;
  resolve_request(spec, ext, opts);
  return request_key(hash_spec(spec), ext, opts);
}

std::size_t Engine::plan_cache_size() const {
  LockGuard lock(mu_);
  return cache_.size();
}

long Engine::plan_cache_hits() const {
  LockGuard lock(mu_);
  return hits_;
}

void Engine::warm_pool(int threads) {
  // Building the shared pool is the warmup: workers spawn, pin and park.
  ExecOptions opts;
  opts.threads = threads;
  resolve_workers(opts);
  shared_pool(opts.threads, opts.affinity);
}

}  // namespace sf
