#include "scenario/scenario.h"

#include <algorithm>
#include <map>

#include "kernels/rhs.h"

// Anchors defined next to each built-in scenario's registrar: referencing
// them forces those translation units into any static-library link, so the
// registry is populated before main() in every binary that uses it.
extern int mpcf_scenario_anchor_cloud_collapse;
extern int mpcf_scenario_anchor_rayleigh_collapse;
extern int mpcf_scenario_anchor_shock_bubble;
extern int mpcf_scenario_anchor_wall_erosion;
extern int mpcf_scenario_anchor_shock_tube;

namespace mpcf::scenario {

namespace {

void anchor_builtins() {
  // The value is irrelevant; naming the symbols keeps the linker from
  // discarding the scenario objects (each holds a registrar). The sink must
  // be volatile: a plain unused sum is dead code, the optimizer deletes the
  // loads, and with them the undefined references that pull the archive
  // members in.
  volatile int sink =
      mpcf_scenario_anchor_cloud_collapse + mpcf_scenario_anchor_rayleigh_collapse +
      mpcf_scenario_anchor_shock_bubble + mpcf_scenario_anchor_wall_erosion +
      mpcf_scenario_anchor_shock_tube;
  (void)sink;
}

struct Registered {
  ScenarioInfo info;
  Factory factory;
};

std::map<std::string, Registered>& registry() {
  static std::map<std::string, Registered> r;
  return r;
}

}  // namespace

void register_scenario(const ScenarioInfo& info, Factory factory) {
  require(!info.name.empty(), "register_scenario: empty scenario name");
  require(static_cast<bool>(factory), "register_scenario: null factory");
  const auto [it, inserted] = registry().emplace(info.name, Registered{info, std::move(factory)});
  (void)it;
  require(inserted, "register_scenario: duplicate scenario '" + info.name + "'");
}

bool is_registered(const std::string& name) {
  anchor_builtins();
  return registry().count(name) > 0;
}

std::vector<ScenarioInfo> registered() {
  anchor_builtins();
  std::vector<ScenarioInfo> out;
  out.reserve(registry().size());
  for (const auto& [name, reg] : registry()) out.push_back(reg.info);
  return out;  // map order == sorted by name
}

ScenarioInstance make_scenario(const Config& cfg) {
  anchor_builtins();
  const std::string name = cfg.get_string("scenario", "name", "");
  if (name.empty())
    throw ConfigError(cfg.name() + ": missing required key [scenario] name");
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string avail;
    for (const auto& [n, reg] : registry()) {
      if (!avail.empty()) avail += ", ";
      avail += n;
    }
    throw ConfigError(cfg.name() + ": unknown scenario '" + name + "' (available: " + avail +
                      ")");
  }
  ScenarioInstance inst = it->second.factory(cfg);
  inst.name = name;
  require(inst.sim != nullptr, "scenario '" + name + "' produced no simulation");
  return inst;
}

Registrar::Registrar(const char* name, const char* description, Factory factory) {
  register_scenario(ScenarioInfo{name, description}, std::move(factory));
}

GridShape read_grid(const Config& cfg, GridShape defaults) {
  const auto b = cfg.get_int3("simulation", "blocks", {defaults.bx, defaults.by, defaults.bz});
  GridShape g{b[0], b[1], b[2], cfg.get_int("simulation", "block_size", defaults.bs)};
  if (g.bx <= 0 || g.by <= 0 || g.bz <= 0 || g.bs <= 0)
    throw ConfigError(cfg.name() + ": [simulation] blocks/block_size must be positive");
  if (!kernels::valid_block_size(g.bs))
    throw ConfigError(cfg.name() + ": [simulation] block_size " + std::to_string(g.bs) +
                      " is not a multiple of 4");
  return g;
}

namespace {

BCType parse_bc(const Config& cfg, const std::string& key, const std::string& raw) {
  if (raw == "absorbing") return BCType::kAbsorbing;
  if (raw == "wall") return BCType::kWall;
  if (raw == "periodic") return BCType::kPeriodic;
  throw ConfigError(cfg.name() + ": [simulation] " + key +
                    ": unknown boundary condition '" + raw +
                    "' (absorbing | wall | periodic)");
}

}  // namespace

Simulation::Params read_sim_params(const Config& cfg, Simulation::Params defaults) {
  Simulation::Params p = defaults;
  p.extent = cfg.get_double("simulation", "extent", defaults.extent);
  p.cfl = cfg.get_double("simulation", "cfl", defaults.cfl);
  p.weno_order = cfg.get_int("simulation", "weno_order", defaults.weno_order);
  p.rho_floor = cfg.get_double("simulation", "rho_floor", defaults.rho_floor);
  p.p_floor = cfg.get_double("simulation", "p_floor", defaults.p_floor);
  if (p.extent <= 0) throw ConfigError(cfg.name() + ": [simulation] extent must be positive");
  if (p.cfl <= 0 || p.cfl > 1)
    throw ConfigError(cfg.name() + ": [simulation] cfl must be in (0, 1]");
  if (p.weno_order != 3 && p.weno_order != 5)
    throw ConfigError(cfg.name() + ": [simulation] weno_order must be 3 or 5");

  if (cfg.has("simulation", "bc"))
    p.bc = BoundaryConditions::all(
        parse_bc(cfg, "bc", cfg.get_string("simulation", "bc", "")));
  static constexpr const char* kFaceKeys[3][2] = {
      {"bc_x_lo", "bc_x_hi"}, {"bc_y_lo", "bc_y_hi"}, {"bc_z_lo", "bc_z_hi"}};
  for (int axis = 0; axis < 3; ++axis)
    for (int side = 0; side < 2; ++side) {
      const char* key = kFaceKeys[axis][side];
      if (cfg.has("simulation", key))
        p.bc.face[axis][side] = parse_bc(cfg, key, cfg.get_string("simulation", key, ""));
    }
  return p;
}

TwoPhaseIC read_materials(const Config& cfg) {
  TwoPhaseIC ic;
  ic.vapor.gamma = cfg.get_double("materials", "gamma_vapor", ic.vapor.gamma);
  ic.vapor.pc = cfg.get_double("materials", "pc_vapor", ic.vapor.pc);
  ic.liquid.gamma = cfg.get_double("materials", "gamma_liquid", ic.liquid.gamma);
  ic.liquid.pc = cfg.get_double("materials", "pc_liquid", ic.liquid.pc);
  ic.rho_vapor = cfg.get_double("materials", "rho_vapor", ic.rho_vapor);
  ic.rho_liquid = cfg.get_double("materials", "rho_liquid", ic.rho_liquid);
  ic.p_vapor = cfg.get_double("materials", "p_vapor", ic.p_vapor);
  ic.p_liquid = cfg.get_double("materials", "p_liquid", ic.p_liquid);
  ic.smoothing_cells = cfg.get_double("materials", "smoothing_cells", ic.smoothing_cells);
  if (ic.vapor.gamma <= 1 || ic.liquid.gamma <= 1)
    throw ConfigError(cfg.name() + ": [materials] gamma must exceed 1");
  if (ic.rho_vapor <= 0 || ic.rho_liquid <= 0)
    throw ConfigError(cfg.name() + ": [materials] densities must be positive");
  return ic;
}

CloudParams read_cloud(const Config& cfg, CloudParams defaults) {
  CloudParams c = defaults;
  c.count = cfg.get_int("cloud", "count", defaults.count);
  c.r_min = cfg.get_double("cloud", "r_min", defaults.r_min);
  c.r_max = cfg.get_double("cloud", "r_max", defaults.r_max);
  c.lognormal_mu = cfg.get_double("cloud", "lognormal_mu", defaults.lognormal_mu);
  c.lognormal_sigma = cfg.get_double("cloud", "lognormal_sigma", defaults.lognormal_sigma);
  c.box_lo = cfg.get_double("cloud", "box_lo", defaults.box_lo);
  c.box_hi = cfg.get_double("cloud", "box_hi", defaults.box_hi);
  c.separation = cfg.get_double("cloud", "separation", defaults.separation);
  c.seed = static_cast<std::uint64_t>(
      cfg.get_long("cloud", "seed", static_cast<long>(defaults.seed)));
  c.max_attempts = cfg.get_int("cloud", "max_attempts", defaults.max_attempts);
  return c;
}

}  // namespace mpcf::scenario
