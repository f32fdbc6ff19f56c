// Config parser unit tests (DESIGN.md §15): defaults, strict typed getters,
// duplicate/unknown-key rejection and the file:line provenance carried by
// every error message.
#include <gtest/gtest.h>

#include <string>

#include "common/config_file.h"
#include "scenario/scenario.h"

namespace mpcf {
namespace {

Config parse(const std::string& text) { return Config::parse_string(text, "test.cfg"); }

/// EXPECT that `fn` throws a ConfigError whose message contains `fragment`.
template <typename Fn>
void expect_config_error(Fn fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected ConfigError containing '" << fragment << "'";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message: " << e.what();
  }
}

TEST(Config, ParsesSectionsKeysAndComments) {
  const Config cfg = parse(
      "# leading comment\n"
      "[simulation]\n"
      "extent = 2e-3   # trailing comment\n"
      "blocks = 8 8 8\n"
      "; semicolon comment with = inside\n"
      "\n"
      "[cloud]\n"
      "count = 12\n"
      "name = \"quoted value\"\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("simulation", "extent", 0), 2e-3);
  EXPECT_EQ(cfg.get_int("cloud", "count", 0), 12);
  EXPECT_EQ(cfg.get_string("cloud", "name", ""), "quoted value");
  const auto b = cfg.get_int3("simulation", "blocks", {0, 0, 0});
  EXPECT_EQ(b[0], 8);
  EXPECT_EQ(b[1], 8);
  EXPECT_EQ(b[2], 8);
}

TEST(Config, AbsentKeysYieldDefaults) {
  const Config cfg = parse("[a]\nx = 1\n");
  EXPECT_EQ(cfg.get_int("a", "missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("nosection", "y", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("a", "flag", true));
  EXPECT_EQ(cfg.get_string("a", "s", "def"), "def");
}

TEST(Config, BoolSpellings) {
  const Config cfg = parse("[f]\na = true\nb = off\nc = Yes\nd = 0\n");
  EXPECT_TRUE(cfg.get_bool("f", "a", false));
  EXPECT_FALSE(cfg.get_bool("f", "b", true));
  EXPECT_TRUE(cfg.get_bool("f", "c", false));
  EXPECT_FALSE(cfg.get_bool("f", "d", true));
}

TEST(Config, BadTypesThrowWithProvenance) {
  const Config cfg = parse("[a]\nx = 12cells\ny = fast\n");
  // Full-token parsing: a trailing suffix is an error even with a default.
  expect_config_error([&] { (void)cfg.get_int("a", "x", 0); }, "test.cfg:2");
  expect_config_error([&] { (void)cfg.get_double("a", "y", 0); }, "test.cfg:3");
  expect_config_error([&] { (void)cfg.get_bool("a", "y", false); }, "[a] y");
}

TEST(Config, DuplicateKeyIsAnError) {
  expect_config_error([&] { (void)parse("[a]\nx = 1\nx = 2\n"); }, "duplicate");
}

TEST(Config, KeyBeforeSectionIsAnError) {
  expect_config_error([&] { (void)parse("x = 1\n"); }, "test.cfg:1");
}

TEST(Config, MalformedLineNamesItsLine) {
  expect_config_error([&] { (void)parse("[a]\nnot a key value line\n"); }, "test.cfg:2");
}

TEST(Config, RequiredKeysThrowWhenMissing) {
  const Config cfg = parse("[a]\nx = 1\n");
  EXPECT_EQ(cfg.require_int("a", "x"), 1);
  expect_config_error([&] { (void)cfg.require_string("a", "nope"); }, "[a] nope");
}

TEST(Config, RejectUnknownReportsUnconsumedKeysWithLocation) {
  const Config cfg = parse("[a]\nx = 1\ntypo_key = 2\n");
  (void)cfg.get_int("a", "x", 0);
  expect_config_error([&] { cfg.reject_unknown(); }, "test.cfg:3");
  expect_config_error([&] { cfg.reject_unknown(); }, "typo_key");
}

TEST(Config, RejectUnknownPassesWhenAllConsumed) {
  const Config cfg = parse("[a]\nx = 1\n[job]\nretries = 3\n");
  (void)cfg.get_int("a", "x", 0);
  cfg.mark_section_used("job");
  EXPECT_NO_THROW(cfg.reject_unknown());
  EXPECT_TRUE(cfg.unknown_keys().empty());
}

TEST(Config, SetOverridesAndReportsAsOverride) {
  Config cfg = parse("[a]\nx = 1\n");
  cfg.set("a", "x", "5");
  cfg.set("b", "fresh", "oops");
  EXPECT_EQ(cfg.get_int("a", "x", 0), 5);
  expect_config_error([&] { (void)cfg.get_int("b", "fresh", 0); }, "<override>");
}

TEST(Config, Int3AcceptsCommasAndRejectsShortTuples) {
  const Config cfg = parse("[g]\nok = 4,5,6\nbad = 1 2\n");
  const auto v = cfg.get_int3("g", "ok", {0, 0, 0});
  EXPECT_EQ(v[0], 4);
  EXPECT_EQ(v[1], 5);
  EXPECT_EQ(v[2], 6);
  expect_config_error([&] { (void)cfg.get_int3("g", "bad", {0, 0, 0}); }, "[g] bad");
}

TEST(Config, HasDoesNotConsume) {
  const Config cfg = parse("[a]\nx = 1\n");
  EXPECT_TRUE(cfg.has("a", "x"));
  EXPECT_TRUE(cfg.has_section("a"));
  EXPECT_FALSE(cfg.has("a", "y"));
  EXPECT_EQ(cfg.unknown_keys().size(), 1u) << "has() must not mark keys consumed";
}

TEST(ScenarioConfig, InvalidBlockSizeNamesFileAndKey) {
  // Below the ghost depth (2) or off the multiple-of-4 grid (3, 6): refused
  // by the reader, before any Simulation is built.
  for (const char* bs : {"2", "3", "6"}) {
    const Config cfg =
        parse(std::string("[simulation]\nblocks = 2 2 2\nblock_size = ") + bs + "\n");
    expect_config_error(
        [&] { (void)scenario::read_grid(cfg, scenario::GridShape{1, 1, 1, 8}); }, "test.cfg");
    expect_config_error(
        [&] { (void)scenario::read_grid(cfg, scenario::GridShape{1, 1, 1, 8}); },
        "[simulation] block_size");
  }
  const Config ok = parse("[simulation]\nblock_size = 4\n");
  EXPECT_EQ(scenario::read_grid(ok, scenario::GridShape{1, 1, 1, 8}).bs, 4);
}

TEST(ScenarioConfig, FusedStepKeyIsNoLongerRead) {
  const Config cfg = parse("[simulation]\ncfl = 0.3\nfused_step = false\n");
  (void)scenario::read_sim_params(cfg, Simulation::Params{});
  expect_config_error([&] { cfg.reject_unknown(); }, "test.cfg:3");
  expect_config_error([&] { cfg.reject_unknown(); }, "fused_step");
}

}  // namespace
}  // namespace mpcf
