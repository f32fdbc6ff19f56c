// Reference stepper: the conformance oracle of the step engine. A
// single-threaded staged RK3 over the public per-block hooks — per stage,
// one lab-assembly + RHS sweep over every block, then one UPDATE sweep —
// followed by the positivity guard (a per-cell clamp, so its own OpenMP
// team cannot change the result), with dt from a fresh SOS sweep. The
// step graph (core/step_scheduler) must reproduce its dt sequence and final
// state bit for bit at every SIMD width, thread count and cluster plan.
#pragma once

#include "core/simulation.h"

namespace mpcf::test {

/// One staged step of `sim` through its hooks; returns the dt taken. Only
/// the grid state advances: the simulation clock and profile are untouched.
inline double reference_step(Simulation& sim) {
  // A fresh SOS sweep: any folded vmax the simulation has cached is ignored.
  const int nb = sim.grid().block_count();
  double vmax = 0;
  for (int b = 0; b < nb; ++b) sim.accumulate_block_speed(b, vmax);
  const double dt = sim.params().cfl * sim.grid().h() / vmax;
  for (int s = 0; s < LsRk3::kStages; ++s) {
    for (int b = 0; b < nb; ++b) {
      sim.assemble_lab(b, 0);
      sim.rhs_from_lab(LsRk3::a[s], b, 0);
    }
    for (int b = 0; b < nb; ++b) sim.update_one(LsRk3::b[s] * dt, b);
  }
  if (sim.params().rho_floor > 0 || sim.params().p_floor > 0)
    (void)sim.apply_positivity_guard();
  return dt;
}

}  // namespace mpcf::test
