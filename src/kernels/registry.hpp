/// \file
/// \brief Capability-driven kernel registry.
///
/// Every executor translation unit registers its kernels at static-init time
/// through a KernelRegistrar object; nothing outside that TU has to change to
/// add a method, an ISA level, or a dimensionality. Consumers look kernels up
/// by (method | name, dims, isa) or enumerate `available_kernels(dims, isa)`
/// — the bench harnesses iterate that enumeration instead of hand-kept
/// method lists.
///
/// Each entry carries the capability metadata the Solver negotiates against:
///  * required_halo(radius) — the minimum grid halo this kernel needs for a
///    pattern of that radius (fold_depth * radius, floored by any extra the
///    vector path reads, e.g. one full vector for data-reorg's aligned
///    L/C/R loads);
///  * fold_depth — temporal folding factor m (1 = no folding);
///  * supports(radius) — whether the *optimized* path engages at this
///    radius. Every kernel still runs correctly outside that range (they
///    fall back internally), but auto-selection uses this to avoid picking
///    a method whose vector path would silently degrade;
///  * tileable(radius) / wedge_slope(radius) — whether a temporal
///    split-tiling stage implementation exists for this kernel (paper §3.4)
///    and the wedge slope one super-step advances, fold-doubled for the
///    folded methods. The ExecutionPlan layer (core/execution_plan.hpp)
///    negotiates tiled-vs-untiled execution against these.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpu.hpp"
#include "kernels/api.hpp"

/// Temporal-folding stencil library: the conf_sc_LiYZY21 reproduction
/// (register-transpose vectorization, temporal computation folding, and
/// temporal split tiling behind the sf::Solver facade).
namespace sf {

/// One registered kernel: an executor function plus the capability metadata
/// (halo, fold depth, radius range, tileability, preferred memory layout)
/// the Solver and the ExecutionPlan negotiate against.
struct KernelInfo {
  const char* name;  ///< String key, e.g. "ours-2step" (method_name(method)).
  Method method;     ///< Vectorization/folding strategy this entry implements.
  int dims;          ///< Dimensionality: 1, 2 or 3.
  Isa isa;           ///< Concrete level: Scalar, Avx2 or Avx512 (never Auto).
  int width;         ///< SIMD lanes in doubles (1, 4, 8).
  int fold_depth;    ///< Temporal folding factor m; 1 = single-step.
  int halo_floor;    ///< Extra halo the vector path reads beyond fold_depth*r.
  int max_radius;    ///< Largest pattern radius the optimized path handles
                     ///< (0 = any, -1 = never engages); beyond it the kernel
                     ///< falls back internally.
  int tiled_max_radius;  ///< Largest radius the temporal split-tiling stage
                         ///< implementation handles (0 = any, -1 = no tiled
                         ///< stage exists: tiling requests fall back to the
                         ///< untiled kernel). The folded methods halve the
                         ///< vector window, so their tiled range mirrors
                         ///< max_radius; DLT has no 1-D tiled stage (the
                         ///< lifted seam couples distant columns).
  Layout preferred_layout = Layout::Natural;
  ///< Memory layout the optimized path keeps field data in between time
  ///< steps (Layout::Transposed for the register-transpose kernels). A
  ///< kernel whose preference is non-Natural transforms Natural input on
  ///< entry and back on exit — or skips both when the caller hands it views
  ///< already tagged with this layout (transposed-resident execution, see
  ///< core/engine.hpp). Only meaningful while supports(radius) holds; the
  ///< fallback paths are Natural-only.

  Run1D run1 = nullptr;  ///< 1-D executor (non-null iff dims == 1).
  Run2D run2 = nullptr;  ///< 2-D executor (non-null iff dims == 2).
  Run3D run3 = nullptr;  ///< 3-D executor (non-null iff dims == 3).

  /// Calls the executor of dimension D. `src` over `k` is the 1-D APOP
  /// source term; both are ignored above 1-D.
  template <int D>
  void run(const Pattern<D>& p, const FieldView<D>& a, const FieldView<D>& b,
           const Pattern1D* src, const FieldView<D>* k, int tsteps) const {
    if constexpr (D == 1) run1(p, a, b, src, k, tsteps);
    else if constexpr (D == 2) run2(p, a, b, tsteps);
    else run3(p, a, b, tsteps);
  }

  /// Minimum halo width grids must be allocated with for radius-r patterns.
  int required_halo(int radius) const {
    const int h = fold_depth * radius;
    return halo_floor > h ? halo_floor : h;
  }

  /// True if the optimized (vectorized/folded) path engages at this radius.
  bool supports(int radius) const {
    if (max_radius < 0) return false;
    return max_radius == 0 || radius <= max_radius;
  }

  /// True if a temporal split-tiling stage implementation (paper §3.4)
  /// exists for this kernel and engages at this radius. A false return
  /// means a tiling request must run the untiled executor instead.
  bool tileable(int radius) const {
    if (tiled_max_radius < 0) return false;
    return tiled_max_radius == 0 || radius <= tiled_max_radius;
  }

  /// Wedge slope of one tiled super-step: how far a triangle face shifts
  /// per stage step (paper Fig. 7). The folded methods skip odd time
  /// levels, so their slope doubles (fold_depth * radius) — one folded
  /// super-step covers m plain time steps.
  int wedge_slope(int radius) const { return fold_depth * radius; }

  /// The layout this kernel keeps resident fields in for a radius-r
  /// pattern: preferred_layout while the optimized path engages
  /// (supports(radius)), Layout::Natural otherwise — the internal fallback
  /// paths never transform, so resident execution must not engage either.
  Layout resident_layout(int radius) const {
    return supports(radius) ? preferred_layout : Layout::Natural;
  }

  /// Register-block quantum along the *tiled* dimension: the extent the
  /// tile tree's leaf level (core/execution_plan.hpp TileTree) rounds a
  /// mid-level tile down to, so an L3 tile never cuts the unit the vector
  /// path processes at once. 1-D tiles cut the contiguous SIMD dimension,
  /// where the register-transpose kernels work on width x width element
  /// blocks; 2-D/3-D tile across rows/planes, where the folded kernels
  /// advance fold_depth levels per sweep of a row/plane group. Purely a
  /// rounding granule — every extent is still *correct*, this is the one
  /// the kernel executes without partial-block entry/exit work.
  int reg_block() const {
    const int m = fold_depth > 1 ? fold_depth : 1;
    return dims == 1 ? width * width : m;
  }
};

/// Process-wide table of registered kernels. Executor TUs add entries at
/// static-init time; lookups hand out stable `KernelInfo*`.
class KernelRegistry {
 public:
  /// The singleton registry instance.
  static KernelRegistry& instance();

  /// Registers one kernel entry (normally via KernelRegistrar).
  void add(KernelInfo info);

  /// Lookup by method enum. `isa` may be Isa::Auto (resolved to the widest
  /// CPU-supported level). Returns nullptr if no such kernel is registered.
  const KernelInfo* find(Method m, int dims, Isa isa = Isa::Auto) const;
  /// Lookup by string key (e.g. "ours-2step"); same resolution rules.
  const KernelInfo* find(std::string_view name, int dims,
                         Isa isa = Isa::Auto) const;

  /// All kernels registered for `dims`. With a concrete `isa`, exactly the
  /// entries at that level; with Isa::Auto, every entry the running CPU can
  /// execute. Sorted by (method, isa) for deterministic enumeration.
  std::vector<const KernelInfo*> available(int dims,
                                           Isa isa = Isa::Auto) const;

  /// Every registered entry, unfiltered (registry introspection/tests).
  std::vector<const KernelInfo*> all() const;

 private:
  KernelRegistry() = default;
  // Deque, not vector: find()/available() hand out KernelInfo* that must
  // survive later add() calls (static registration order across TUs is
  // unspecified).
  std::deque<KernelInfo> entries_;
};

/// Free-function form of KernelRegistry::available().
std::vector<const KernelInfo*> available_kernels(int dims,
                                                 Isa isa = Isa::Auto);
/// Free-function form of KernelRegistry::find() by method enum.
const KernelInfo* find_kernel(Method m, int dims, Isa isa = Isa::Auto);
/// Free-function form of KernelRegistry::find() by string key.
const KernelInfo* find_kernel(std::string_view name, int dims,
                              Isa isa = Isa::Auto);

/// Like find_kernel(), but throws std::invalid_argument naming the missing
/// (method, dims, isa) combination instead of returning nullptr — use when
/// the kernel is expected to exist and a null deref would otherwise be the
/// failure mode.
const KernelInfo& require_kernel(Method m, int dims, Isa isa = Isa::Auto);
/// String-key overload of require_kernel().
const KernelInfo& require_kernel(std::string_view name, int dims,
                                 Isa isa = Isa::Auto);

/// Parses a method string key ("naive", "ours-2step", "auto", ...);
/// throws std::invalid_argument for unknown names.
Method method_from_name(std::string_view name);

/// Registers a batch of kernels at static-init time. Each kernel TU owns
/// one of these; adding a kernel touches only its own TU.
struct KernelRegistrar {
  /// Adds every entry of `infos` to the singleton registry.
  explicit KernelRegistrar(std::initializer_list<KernelInfo> infos) {
    for (const KernelInfo& i : infos) KernelRegistry::instance().add(i);
  }
};

/// Builds a 1-D KernelInfo, keeping registration lines short. `halo_floor`
/// and `max_radius` default to the common case (no extra halo, any radius);
/// `tiled_max_radius` defaults to "no tiled stage" so a kernel must opt in
/// to split tiling explicitly, and `preferred` defaults to Natural so a
/// kernel must declare its resident layout explicitly too.
inline KernelInfo kernel1d_info(Method m, Isa isa, int width, int fold,
                                Run1D fn, int halo_floor = 0,
                                int max_radius = 0,
                                int tiled_max_radius = -1,
                                Layout preferred = Layout::Natural) {
  return KernelInfo{method_name(m), m,          1,
                    isa,            width,      fold,
                    halo_floor,     max_radius, tiled_max_radius,
                    preferred,      fn,         nullptr,
                    nullptr};
}
/// 2-D counterpart of kernel1d_info().
inline KernelInfo kernel2d_info(Method m, Isa isa, int width, int fold,
                                Run2D fn, int halo_floor = 0,
                                int max_radius = 0,
                                int tiled_max_radius = -1,
                                Layout preferred = Layout::Natural) {
  return KernelInfo{method_name(m), m,          2,
                    isa,            width,      fold,
                    halo_floor,     max_radius, tiled_max_radius,
                    preferred,      nullptr,    fn,
                    nullptr};
}
/// 3-D counterpart of kernel1d_info().
inline KernelInfo kernel3d_info(Method m, Isa isa, int width, int fold,
                                Run3D fn, int halo_floor = 0,
                                int max_radius = 0,
                                int tiled_max_radius = -1,
                                Layout preferred = Layout::Natural) {
  return KernelInfo{method_name(m), m,          3,
                    isa,            width,      fold,
                    halo_floor,     max_radius, tiled_max_radius,
                    preferred,      nullptr,    nullptr,
                    fn};
}

}  // namespace sf
