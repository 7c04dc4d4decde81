#include "layout/transpose_layout.hpp"

#include <stdexcept>

namespace sf {

template <int D>
void apply_transpose_layout(const FieldView<D>& g, int w, int lo, int hi) {
  switch (w) {
    case 1: break;
    case 4: grid_transpose_layout<4>(g, lo, hi); break;
    case 8: grid_transpose_layout<8>(g, lo, hi); break;
    default: throw std::invalid_argument("unsupported SIMD width");
  }
}

template void apply_transpose_layout(const FieldView1D&, int, int, int);
template void apply_transpose_layout(const FieldView2D&, int, int, int);
template void apply_transpose_layout(const FieldView3D&, int, int, int);

}  // namespace sf
