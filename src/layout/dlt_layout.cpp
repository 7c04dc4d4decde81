#include "layout/dlt_layout.hpp"

#include <cstring>
#include <vector>

namespace sf {

void row_to_dlt(double* row, int n, int w, double* scratch) {
  if (w <= 1) return;
  const int L = n / w;
  const int n0 = L * w;
  for (int i = 0; i < n0; ++i) scratch[(i % L) * w + (i / L)] = row[i];
  std::memcpy(row, scratch, static_cast<std::size_t>(n0) * sizeof(double));
}

void row_from_dlt(double* row, int n, int w, double* scratch) {
  if (w <= 1) return;
  const int L = n / w;
  const int n0 = L * w;
  for (int i = 0; i < n0; ++i) scratch[i] = row[(i % L) * w + (i / L)];
  std::memcpy(row, scratch, static_cast<std::size_t>(n0) * sizeof(double));
}

namespace {
std::vector<double>& tls_scratch(std::size_t n) {
  thread_local std::vector<double> s;
  if (s.size() < n) s.resize(n);
  return s;
}
}  // namespace

template <int D>
void transform_dlt(const FieldView<D>& g, int w, bool lift) {
  double* s = tls_scratch(static_cast<std::size_t>(g.nx())).data();
  const int h = g.halo();
  for_each_row(g, -h, g.outer_extent() + h, h,
               [&](int, int, bool, double* row) {
                 if (lift)
                   row_to_dlt(row, g.nx(), w, s);
                 else
                   row_from_dlt(row, g.nx(), w, s);
               });
}

template void transform_dlt(const FieldView1D&, int, bool);
template void transform_dlt(const FieldView2D&, int, bool);
template void transform_dlt(const FieldView3D&, int, bool);

}  // namespace sf
