#include "workload/cloud.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/error.h"

namespace mpcf {

std::vector<Bubble> generate_cloud(const CloudParams& params, double extent) {
  require(params.count > 0, "generate_cloud: count must be positive");
  require(params.box_lo < params.box_hi, "generate_cloud: empty placement box");

  std::mt19937_64 rng(params.seed);
  std::uniform_real_distribution<double> upos(params.box_lo * extent, params.box_hi * extent);
  std::lognormal_distribution<double> urad(params.lognormal_mu, params.lognormal_sigma);

  std::vector<Bubble> cloud;
  cloud.reserve(params.count);
  int attempts = 0;
  while (static_cast<int>(cloud.size()) < params.count) {
    if (++attempts > params.max_attempts)
      throw PreconditionError("generate_cloud: placed " +
                              std::to_string(cloud.size()) + "/" +
                              std::to_string(params.count) + " bubbles after " +
                              std::to_string(params.max_attempts) +
                              " attempts (seed " + std::to_string(params.seed) +
                              ", region too dense)");
    Bubble b{upos(rng), upos(rng), upos(rng), 0.0};
    // Clipped lognormal radius (paper: 50-200 micron band).
    double r = urad(rng);
    if (r < params.r_min || r > params.r_max) continue;
    b.r = r;

    bool ok = true;
    for (const Bubble& o : cloud) {
      const double dx = b.x - o.x, dy = b.y - o.y, dz = b.z - o.z;
      const double d2 = dx * dx + dy * dy + dz * dz;
      const double dmin = params.separation * (b.r + o.r);
      if (d2 < dmin * dmin) {
        ok = false;
        break;
      }
    }
    if (ok) cloud.push_back(b);
  }
  return cloud;
}

double vapor_fraction(double x, double y, double z, const std::vector<Bubble>& bubbles,
                      double delta) {
  // Diffuse-interface indicator: 1 inside a bubble, 0 outside, smooth
  // transition of width ~delta. Bubbles do not overlap, so taking the max
  // over bubbles is exact.
  double alpha = 0.0;
  for (const Bubble& b : bubbles) {
    const double dx = x - b.x, dy = y - b.y, dz = z - b.z;
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
    const double a = 0.5 * (1.0 - std::tanh((dist - b.r) / delta));
    alpha = std::max(alpha, a);
  }
  return alpha;
}

namespace {

Cell make_mixture_cell(double alpha, const TwoPhaseIC& ic, double p_liquid_override) {
  const double rho = alpha * ic.rho_vapor + (1.0 - alpha) * ic.rho_liquid;
  const double p = alpha * ic.p_vapor + (1.0 - alpha) * p_liquid_override;
  const auto mix = eos::mix(ic.vapor, ic.liquid, alpha);
  Cell c;
  c.rho = static_cast<Real>(rho);
  c.ru = c.rv = c.rw = 0;
  c.G = static_cast<Real>(mix.G);
  c.P = static_cast<Real>(mix.Pi);
  c.E = static_cast<Real>(mix.G * p + mix.Pi);  // quiescent: no kinetic energy
  return c;
}

/// A bubble's diffuse term 0.5 * (1 - tanh((dist - r) / delta)) is exactly
/// +0 once (dist - r) / delta >= 22, where glibc's tanh returns 1.0, so it
/// cannot change the max in vapor_fraction. Culling at 23 widths leaves a
/// full width of margin for the rounding of the squared distances.
constexpr double kReachWidths = 23.0;

/// Block-local two-phase fill shared by the initial conditions: each cell
/// gets make(x, alpha), with alpha bit-identical to vapor_fraction at the
/// cell centre. Blocks are dealt out dynamically (blocks that cut an
/// interface cost far more than pure liquid); each keeps only the bubbles
/// whose reach (r + 23 delta) touches its cell centres, and a cell skips any
/// of those still out of reach.
template <typename MakeCell>
void fill_two_phase(Grid& grid, const std::vector<Bubble>& bubbles, double delta,
                    const MakeCell& make) {
  const int bs = grid.block_size();
  const double reach = kReachWidths * delta;
#pragma omp parallel
  {
    std::vector<Bubble> near;
    std::vector<double> near_reach2;
#pragma omp for schedule(dynamic, 1)
    for (int b = 0; b < grid.block_count(); ++b) {
      int origin[3];
      grid.indexer().coords(b, origin[0], origin[1], origin[2]);
      double lo[3], hi[3];  // bounding box of the block's cell centres
      for (int a = 0; a < 3; ++a) {
        origin[a] *= bs;
        lo[a] = grid.cell_center(origin[a]);
        hi[a] = grid.cell_center(origin[a] + bs - 1);
      }
      near.clear();
      near_reach2.clear();
      for (const Bubble& bub : bubbles) {
        const double c[3] = {bub.x, bub.y, bub.z};
        double d2 = 0.0;
        for (int a = 0; a < 3; ++a) {
          const double e = std::max({lo[a] - c[a], c[a] - hi[a], 0.0});
          d2 += e * e;
        }
        const double reach2 = (bub.r + reach) * (bub.r + reach);
        if (d2 < reach2) {
          near.push_back(bub);
          near_reach2.push_back(reach2);
        }
      }

      Cell* out = grid.block(b).data();
      for (int iz = 0; iz < bs; ++iz) {
        const double z = grid.cell_center(origin[2] + iz);
        for (int iy = 0; iy < bs; ++iy) {
          const double y = grid.cell_center(origin[1] + iy);
          for (int ix = 0; ix < bs; ++ix) {
            const double x = grid.cell_center(origin[0] + ix);
            double alpha = 0.0;
            for (std::size_t k = 0; k < near.size(); ++k) {
              const Bubble& bub = near[k];
              const double dx = x - bub.x, dy = y - bub.y, dz = z - bub.z;
              const double d2 = dx * dx + dy * dy + dz * dz;
              if (d2 >= near_reach2[k]) continue;
              const double a = 0.5 * (1.0 - std::tanh((std::sqrt(d2) - bub.r) / delta));
              alpha = std::max(alpha, a);
            }
            *out++ = make(x, alpha);
          }
        }
      }
    }
  }
}

}  // namespace

void set_cloud_ic(Grid& grid, const std::vector<Bubble>& bubbles, const TwoPhaseIC& ic) {
  fill_two_phase(grid, bubbles, ic.smoothing_cells * grid.h(), [&ic](double, double alpha) {
    return make_mixture_cell(alpha, ic, ic.p_liquid);
  });
}

void set_shock_bubble_ic(Grid& grid, const ShockBubbleIC& ic) {
  const double extent = grid.h() * grid.cells_x();
  const std::vector<Bubble> one{Bubble{ic.bubble.x * extent, ic.bubble.y * extent,
                                       ic.bubble.z * extent, ic.bubble.r * extent}};
  const double delta = ic.phases.smoothing_cells * grid.h();
  const double xs = ic.shock_x * extent;

  // Post-shock liquid state from the stiffened-gas Rankine-Hugoniot
  // relations for a right-running shock into fluid at rest.
  const StiffenedGas& l = ic.phases.liquid;
  const double p1 = ic.phases.p_liquid;
  const double p2 = p1 * ic.p_ratio;
  const double r1 = ic.phases.rho_liquid;
  const double g = l.gamma;
  const double pc = l.pc;
  // Density ratio across the shock (stiffened gas: shift pressures by pc).
  const double ph1 = p1 + pc, ph2 = p2 + pc;
  const double r2 = r1 * ((g + 1.0) * ph2 + (g - 1.0) * ph1) /
                    ((g - 1.0) * ph2 + (g + 1.0) * ph1);
  // Shock speed and post-shock particle velocity.
  const double us = std::sqrt(ph1 / r1 * ((g + 1.0) / 2.0 * ph2 / ph1 + (g - 1.0) / 2.0));
  const double u2 = us * (1.0 - r1 / r2);

  const double G = l.Gamma(), Pi = l.Pi();
  fill_two_phase(grid, one, delta, [&](double x, double alpha) {
    Cell c = make_mixture_cell(alpha, ic.phases, p1);
    if (x < xs && alpha < 0.5) {
      // Pure post-shock liquid column.
      c.rho = static_cast<Real>(r2);
      c.ru = static_cast<Real>(r2 * u2);
      c.G = static_cast<Real>(G);
      c.P = static_cast<Real>(Pi);
      c.E = static_cast<Real>(G * p2 + Pi + 0.5 * r2 * u2 * u2);
    }
    return c;
  });
}

}  // namespace mpcf
