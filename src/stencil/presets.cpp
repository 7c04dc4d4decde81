#include "stencil/presets.hpp"

#include <stdexcept>

namespace sf {

namespace {

Pattern1D star1(double wl, double wc, double wr) {
  return Pattern1D::from_taps({{{-1}, wl}, {{0}, wc}, {{1}, wr}});
}

Pattern1D box1d5(double w2, double w1, double w0) {
  return Pattern1D::from_taps(
      {{{-2}, w2}, {{-1}, w1}, {{0}, w0}, {{1}, w1}, {{2}, w2}});
}

Pattern2D star2(double wc, double we) {
  return Pattern2D::from_taps({{{0, 0}, wc},
                               {{-1, 0}, we},
                               {{1, 0}, we},
                               {{0, -1}, we},
                               {{0, 1}, we}});
}

/// Box with corner weight w1, edge weight w2, centre weight w3 (Fig. 4).
Pattern2D box2(double w1, double w2, double w3) {
  std::vector<Pattern2D::Tap> taps;
  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx) {
      const int nz = (dy != 0) + (dx != 0);
      taps.push_back({{dy, dx}, nz == 2 ? w1 : nz == 1 ? w2 : w3});
    }
  return Pattern2D::from_taps(taps);
}

/// Fully general 3x3 box; `w` is row-major (dy=-1 row first).
Pattern2D general_box2(const std::array<double, 9>& w) {
  std::vector<Pattern2D::Tap> taps;
  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx)
      taps.push_back({{dy, dx}, w[static_cast<std::size_t>(dy + 1) * 3 + (dx + 1)]});
  return Pattern2D::from_taps(taps);
}

Pattern3D star3(double wc, double wf) {
  return Pattern3D::from_taps({{{0, 0, 0}, wc},
                               {{-1, 0, 0}, wf},
                               {{1, 0, 0}, wf},
                               {{0, -1, 0}, wf},
                               {{0, 1, 0}, wf},
                               {{0, 0, -1}, wf},
                               {{0, 0, 1}, wf}});
}

/// 27-point box: corner / edge / face / centre weights.
Pattern3D box3(double wcorner, double wedge, double wface, double wc) {
  std::vector<Pattern3D::Tap> taps;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        const int nz = (dz != 0) + (dy != 0) + (dx != 0);
        const double w = nz == 3   ? wcorner
                         : nz == 2 ? wedge
                         : nz == 1 ? wface
                                   : wc;
        taps.push_back({{dz, dy, dx}, w});
      }
  return Pattern3D::from_taps(taps);
}

std::vector<StencilSpec> make_presets() {
  std::vector<StencilSpec> v;

  {
    StencilSpec s;
    s.id = Preset::Heat1D;
    s.name = "1D-Heat";
    s.dims = 1;
    s.p1 = star1(0.25, 0.5, 0.25);
    s.full_size = {10240000, 1, 1};
    s.full_tsteps = 1000;
    s.block = {2000, 1000, 1};
    s.small_size = {1 << 20, 1, 1};
    s.small_tsteps = 100;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::P1D5;
    s.name = "1D5P";
    s.dims = 1;
    s.p1 = box1d5(0.0625, 0.25, 0.375);
    s.full_size = {10240000, 1, 1};
    s.full_tsteps = 1000;
    s.block = {2000, 500, 1};
    s.small_size = {1 << 20, 1, 1};
    s.small_tsteps = 100;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::Apop;
    s.name = "APOP";
    s.dims = 1;
    // Discounted binomial up/middle/down weights plus an early-exercise
    // coupling to the (time-invariant) payoff array K.
    s.p1 = star1(0.46, 0.05, 0.47);
    s.has_source = true;
    s.src1 = Pattern1D::from_taps({{{0}, 0.015}});
    s.full_size = {10240000, 1, 1};
    s.full_tsteps = 1000;
    s.block = {2000, 500, 1};
    s.small_size = {1 << 20, 1, 1};
    s.small_tsteps = 100;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::Heat2D;
    s.name = "2D-Heat";
    s.dims = 2;
    s.p2 = star2(0.5, 0.125);
    s.full_size = {5000, 5000, 1};
    s.full_tsteps = 1000;
    s.block = {200, 200, 50};
    s.small_size = {1000, 1000, 1};
    s.small_tsteps = 50;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::Box2D9;
    s.name = "2D9P";
    s.dims = 2;
    // The paper's 2D9P (Fig. 5) weights all nine points equally, which is
    // what makes its counterparts scalar multiples of c1 (omega2 = 2,
    // omega3 = (0,3)).
    s.p2 = box2(1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0);
    s.full_size = {5000, 5000, 1};
    s.full_tsteps = 1000;
    s.block = {120, 128, 60};
    s.small_size = {1000, 1000, 1};
    s.small_tsteps = 50;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::Life;
    s.name = "GameOfLife";
    s.dims = 2;
    // Arithmetic surrogate: all 8 neighbours, no self-term (DESIGN.md).
    s.p2 = box2(0.125, 0.125, 0.0);
    s.full_size = {5000, 5000, 1};
    s.full_tsteps = 1000;
    s.block = {200, 200, 50};
    s.small_size = {1000, 1000, 1};
    s.small_tsteps = 50;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::GB;
    s.name = "GB";
    s.dims = 2;
    // Nine distinct weights; deliberately asymmetric (the paper's stress
    // test for the folding generalization).
    s.p2 = general_box2({0.031, 0.052, 0.093, 0.104, 0.365, 0.026, 0.047, 0.088, 0.119});
    s.full_size = {5000, 5000, 1};
    s.full_tsteps = 1000;
    s.block = {200, 200, 50};
    s.small_size = {1000, 1000, 1};
    s.small_tsteps = 50;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::Heat3D;
    s.name = "3D-Heat";
    s.dims = 3;
    s.p3 = star3(0.4, 0.1);
    s.full_size = {400, 400, 400};
    s.full_tsteps = 1000;
    s.block = {20, 20, 10};
    s.small_size = {128, 128, 128};
    s.small_tsteps = 20;
    v.push_back(s);
  }
  {
    StencilSpec s;
    s.id = Preset::Box3D27;
    s.name = "3D27P";
    s.dims = 3;
    s.p3 = box3(0.02, 0.03, 0.05, 0.04);
    s.full_size = {400, 400, 400};
    s.full_tsteps = 1000;
    s.block = {20, 20, 10};
    s.small_size = {128, 128, 128};
    s.small_tsteps = 20;
    v.push_back(s);
  }
  return v;
}

}  // namespace

int StencilSpec::points() const {
  return visit([](const auto& p) { return static_cast<int>(p.size()); });
}

const std::vector<StencilSpec>& all_presets() {
  static const std::vector<StencilSpec> v = make_presets();
  return v;
}

const StencilSpec& preset(Preset id) {
  for (const auto& s : all_presets())
    if (s.id == id) return s;
  throw std::logic_error("unknown preset");
}

}  // namespace sf
