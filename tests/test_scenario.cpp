/// \file test_scenario.cpp
/// \brief Tests for the scenario catalog and the single-driver run path:
/// catalog completeness, override resolution through the parameter
/// registry, the driver's error paths, and bit-identical parity between
/// `voodb run` scenarios and the hand-wired sweep code under identical
/// seeds.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cell_tools.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "scenarios.hpp"
#include "sweeps.hpp"
#include "trace_tools.hpp"
#include "util/check.hpp"
#include "voodb/catalog.hpp"

namespace voodb::bench {
namespace {

exp::ScenarioOptions SmallOptions(uint64_t transactions) {
  exp::ScenarioOptions options;
  options.replications = 2;
  options.transactions = transactions;
  options.seed = 42;
  options.threads = 1;
  return options;
}

TEST(ScenarioCatalog, RegistersEveryPaperFigureTableAndAblation) {
  RegisterBenchScenarios();
  const std::vector<std::string> expected = {
      "fig06",          "fig07",
      "fig08",          "fig09",
      "fig10",          "fig11",
      "table6",         "table7",
      "table8",         "ablation_buffer_policy",
      "ablation_clustering", "ablation_failures",
      "ablation_locking",    "ablation_multiprog",
      "ablation_placement",  "ablation_sysclass",
      "ablation_vm_model",   "shard_scale",
      "cc_abyss",            "ycsb_zipf",
      "micro_cc",            "trace_mrc",
      "fig08_mrc",           "micro_trace"};
  EXPECT_EQ(exp::ScenarioRegistry::Instance().Names(), expected);
}

TEST(ScenarioCatalog, UnknownScenarioFailsWithNearestNameSuggestion) {
  RegisterBenchScenarios();
  // The registry lookup carries the "did you mean" diagnostic (the same
  // UX as unknown flags)...
  try {
    exp::ScenarioRegistry::Instance().At("fig8");
    FAIL() << "expected util::Error for unknown scenario";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown scenario 'fig8'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'fig08'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("voodb list"), std::string::npos) << message;
  }
  // ... and the driver path behind `voodb run <scenario>` turns it into
  // a non-zero exit instead of leaking the exception.
  const char* argv[] = {"voodb"};
  EXPECT_EQ(RunScenarioMain("fig8", 1, argv), 1);
  EXPECT_EQ(RunScenarioMain("ablation_lockin", 1, argv), 1);
}

TEST(ScenarioCatalog, ReplicatedRunsRejectTraceRecording) {
  // Every replication would truncate the same trace_path (or Chrome-trace
  // file); `voodb trace record` and `voodb profile` are the single-run
  // surfaces.  The advice must not suggest --replications=1, which the
  // harness rejects (confidence intervals need two replications).
  RegisterBenchScenarios();
  const exp::Scenario& scenario =
      exp::ScenarioRegistry::Instance().At("fig06");
  const std::pair<std::vector<exp::ParamOverride>, const char*> cases[] = {
      {{{"trace_record", "true"}, {"trace_path", "t.vtrc"}},
       "voodb trace record"},
      {{{"profile_path", "p.json"}}, "voodb profile"},
  };
  for (const auto& [overrides, advice] : cases) {
    try {
      RunScenario(scenario, SmallOptions(10), overrides);
      FAIL() << "expected util::Error for " << overrides.front().first;
    } catch (const util::Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(advice), std::string::npos) << message;
      EXPECT_EQ(message.find("--replications=1"), std::string::npos)
          << message;
      EXPECT_EQ(message.find("drop --replications"), std::string::npos)
          << message;
    }
  }
}

TEST(ScenarioCatalog, SetParserRejectsAssignmentWithoutName) {
  EXPECT_EQ(ParseOverrides({"shards=4", "policy=lru=2"}),
            (std::vector<exp::ParamOverride>{{"shards", "4"},
                                             {"policy", "lru=2"}}));
  for (const char* bad : {"shards", "=4"}) {
    try {
      ParseOverrides({bad});
      FAIL() << "expected util::Error for '" << bad << "'";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("--set expects name=value"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioCatalog, ProfileRejectsMoreThanOneShard) {
  // `voodb profile` runs one VoodbSystem; a sharded configuration must
  // fail instead of profiling one unsharded server as if it were the run.
  RegisterBenchScenarios();
  const char* argv[] = {"profile", "fig08", "--set", "shards=4", "--set",
                        "num_objects=500", "--transactions=10",
                        "--trace=off", "--metrics=off"};
  EXPECT_EQ(RunProfileCommand(static_cast<int>(std::size(argv)), argv), 1);
}

// --- Cells: the tools run exactly the cell a table reports ------------------

TEST(ScenarioCells, ExplainAndProfileReproduceTheTableCell) {
  RegisterBenchScenarios();
  const exp::Scenario& abyss = exp::ScenarioRegistry::Instance().At("cc_abyss");
  exp::ScenarioOptions options = SmallOptions(32);
  options.replications = 1;
  const std::vector<exp::ParamOverride> cap = {{"num_users", "64"}};
  const exp::ScenarioResult table = RunScenario(abyss, options, cap);
  const double p99 = table.at("p99_ms/64/wait_die/mean");
  EXPECT_GT(p99, 0.0);

  // `voodb explain|profile cc_abyss --cell=64/wait_die --transactions=32`
  // with the same --seed and --set: replication 0 of the very same cell.
  const CellRun run =
      ResolveCellRun(abyss, "64/wait_die", options.transactions,
                     options.seed, cap);
  EXPECT_EQ(run.cell.config.system.multiprogramming_level, 64u);
  EXPECT_EQ(run.cell.transactions, 64u);  // raised to one per user
  EXPECT_EQ(ExplainCell(run, 3, "off").ResponseQuantileMs(0.99), p99);
  EXPECT_EQ(ProfileCell(run, "off", "off").ResponseQuantileMs(0.99),
            p99);
}

TEST(ScenarioCells, ToolsRejectASweptSetLikeRun) {
  RegisterBenchScenarios();
  const exp::Scenario& abyss = exp::ScenarioRegistry::Instance().At("cc_abyss");
  std::string run_message;
  try {
    RunScenario(abyss, SmallOptions(10),
                {{"multiprogramming_level", "5"}});
    FAIL() << "expected util::Error for a swept --set";
  } catch (const util::Error& e) {
    run_message = e.what();
  }
  EXPECT_NE(run_message.find("swept by scenario 'cc_abyss'"),
            std::string::npos)
      << run_message;
  const char* profile[] = {"profile", "cc_abyss", "--cell=64/wait_die",
                           "--set", "multiprogramming_level=5",
                           "--trace=off", "--metrics=off"};
  const char* explain[] = {"explain", "cc_abyss", "--cell=64/wait_die",
                           "--set", "multiprogramming_level=5",
                           "--trace=off"};
  const char* record[] = {"trace", "record", "--out=unused.vtrc",
                          "--scenario=cc_abyss", "--cell=64/wait_die",
                          "--set", "multiprogramming_level=5"};
  const std::pair<int (*)(int, const char* const*),
                  std::vector<const char*>>
      commands[] = {
          {RunProfileCommand, {std::begin(profile), std::end(profile)}},
          {RunExplainCommand, {std::begin(explain), std::end(explain)}},
          {RunTraceCommand, {std::begin(record), std::end(record)}},
      };
  for (const auto& [command, argv] : commands) {
    testing::internal::CaptureStderr();
    const int code = command(static_cast<int>(argv.size()), argv.data());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1) << argv[0];
    EXPECT_EQ(err, "error: " + run_message + "\n") << argv[0];
  }
}

TEST(ScenarioCells, UnknownOrMissingCellNamesTheLabels) {
  RegisterBenchScenarios();
  const auto& registry = exp::ScenarioRegistry::Instance();
  const exp::Scenario& abyss = registry.At("cc_abyss");
  const std::pair<const char*, const char*> cases[] = {
      {"64/wait_dei", "did you mean '64/wait_die'"},
      {"", "--cell=<label>"},
  };
  for (const auto& [label, hint] : cases) {
    try {
      ResolveCellRun(abyss, label, 10, 42, {});
      FAIL() << "expected util::Error for --cell='" << label << "'";
    } catch (const util::Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(hint), std::string::npos) << message;
      EXPECT_NE(message.find("1024/deadlock_detect"), std::string::npos)
          << message;
    }
  }
  // The front end turns it into a non-zero exit.
  const char* argv[] = {"explain", "cc_abyss", "--cell=64/wait_dei",
                        "--trace=off"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(RunExplainCommand(static_cast<int>(std::size(argv)), argv), 1);
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "did you mean '64/wait_die'"),
            std::string::npos);
  // A scenario without cells runs its base config and takes no --cell.
  const exp::Scenario& fig08 = registry.At("fig08");
  EXPECT_EQ(ResolveCellRun(fig08, "", 10, 42, {}).cell.transactions, 10u);
  EXPECT_THROW(ResolveCellRun(fig08, "8", 10, 42, {}), util::Error);
}

TEST(ScenarioCatalog, EveryScenarioIsDescribedAndValid) {
  RegisterBenchScenarios();
  for (const exp::Scenario& s :
       exp::ScenarioRegistry::Instance().scenarios()) {
    EXPECT_FALSE(s.title.empty()) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.run)) << s.name;
    // Every base must survive the registry-backed validation the run
    // path applies.
    EXPECT_NO_THROW(s.base.system.Validate()) << s.name;
    EXPECT_NO_THROW(s.base.workload.Validate()) << s.name;
  }
}

TEST(ScenarioCatalog, UnknownNameSuggestsNearest) {
  RegisterBenchScenarios();
  try {
    exp::ScenarioRegistry::Instance().At("fig8");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("fig08"), std::string::npos)
        << e.what();
  }
}

TEST(RunScenario, ResolvesOverridesThroughTheRegistry) {
  exp::Scenario s;
  s.name = "override_probe";
  s.title = "probe";
  s.description = "probe";
  core::ExperimentConfig seen;
  s.run = [&seen](const exp::ScenarioContext& ctx) {
    seen = ctx.config;
    return exp::ScenarioResult{};
  };
  exp::ScenarioOptions options = SmallOptions(10);
  options.seed = 7;
  RunScenario(s, options,
              {{"system_class", "db_server"},
               {"use_lock_manager", "true"},
               {"page_replacement", "gclock"},
               {"cc_protocol", "deadlock_detect"},
               {"num_objects", "1234"},
               {"p_update", "0.25"},
               {"p_set", "0.0"},
               {"p_scan", "0.25"}});
  EXPECT_EQ(seen.system.system_class, core::SystemClass::kDbServer);
  EXPECT_TRUE(seen.system.use_lock_manager);
  EXPECT_EQ(seen.system.page_replacement,
            storage::ReplacementPolicy::kGclock);
  EXPECT_EQ(seen.system.cc_protocol, cc::ProtocolKind::kDeadlockDetect);
  EXPECT_EQ(seen.workload.num_objects, 1234u);
  EXPECT_DOUBLE_EQ(seen.workload.p_update, 0.25);
  EXPECT_EQ(seen.replications, options.replications);
  EXPECT_EQ(seen.base_seed, 7u);
}

TEST(RunScenario, RejectsUnknownAndOutOfRangeOverrides) {
  exp::Scenario s;
  s.name = "override_probe";
  s.title = "probe";
  s.description = "probe";
  s.run = [](const exp::ScenarioContext&) { return exp::ScenarioResult{}; };
  EXPECT_THROW(RunScenario(s, SmallOptions(10), {{"buffer_page", "10"}}),
               util::Error);
  EXPECT_THROW(RunScenario(s, SmallOptions(10), {{"page_size", "100"}}),
               util::Error);
  // The run path validates the resolved config, so an override that
  // breaks a cross-field constraint (probabilities summing to 1) fails
  // before any simulation runs.
  EXPECT_THROW(RunScenario(s, SmallOptions(10), {{"p_set", "0.5"}}),
               util::Error);
}

TEST(RunScenario, RejectsOverridesTheScenarioWouldDiscard) {
  RegisterBenchScenarios();
  const auto& registry = exp::ScenarioRegistry::Instance();
  // fig08 sweeps the cache itself: overriding buffer_pages would be
  // silently overwritten per memory point, so it is rejected up-front.
  EXPECT_THROW(RunScenario(registry.At("fig08"), SmallOptions(5),
                           {{"buffer_pages", "1000"}}),
               util::Error);
  // The SYSCLASS ablation compares the four architectures.
  EXPECT_THROW(RunScenario(registry.At("ablation_sysclass"), SmallOptions(5),
                           {{"system_class", "db_server"}}),
               util::Error);
  // The VM-model ablation runs only the emulator: system-domain
  // overrides would be ignored, workload ones still apply.
  EXPECT_THROW(RunScenario(registry.At("ablation_vm_model"), SmallOptions(5),
                           {{"page_size", "8192"}}),
               util::Error);
}

// --- Parity: `voodb run` vs the legacy bench code path ----------------------
//
// The legacy binaries froze their workload and system configuration in
// code and called the sweep directly.  The catalog path must reproduce
// their metrics bit-identically under identical seeds.

TEST(ScenarioParity, Fig08MatchesLegacyBenchPath) {
  RegisterBenchScenarios();
  const exp::Scenario& s = exp::ScenarioRegistry::Instance().At("fig08");
  const uint64_t transactions = 20;
  const exp::ScenarioResult via_catalog =
      RunScenario(s, SmallOptions(transactions));

  // The hand-wired Figure 8 configuration the catalog entry replaced:
  // the NC=50 / NO=20000 OCB base, the O2 preset rescaled per memory
  // point, paper's six points.
  ocb::OcbParameters workload;  // Table 5 defaults
  workload.num_classes = 50;
  workload.num_objects = 20000;
  const std::vector<FigurePoint> legacy = RunMemorySweep(
      SmallOptions(transactions), TargetSystem::kO2, workload,
      core::SystemCatalog::O2WithCache(16.0), MemoryPoints(),
      "fig08 legacy parity", std::vector<double>(6, 0.0),
      std::vector<double>(6, 0.0));

  ASSERT_EQ(legacy.size(), 6u);
  for (const FigurePoint& point : legacy) {
    const std::string key = "figure/" + point.x;
    ASSERT_EQ(via_catalog.count(key + "/benchmark/mean"), 1u) << point.x;
    EXPECT_EQ(via_catalog.at(key + "/benchmark/mean"), point.bench.mean)
        << point.x;
    EXPECT_EQ(via_catalog.at(key + "/benchmark/hw"), point.bench.half_width)
        << point.x;
    EXPECT_EQ(via_catalog.at(key + "/simulation/mean"), point.sim.mean)
        << point.x;
    EXPECT_EQ(via_catalog.at(key + "/simulation/hw"), point.sim.half_width)
        << point.x;
    EXPECT_GT(point.bench.mean, 0.0) << point.x;
    EXPECT_GT(point.sim.mean, 0.0) << point.x;
  }
}

TEST(ScenarioParity, Table6MatchesLegacyBenchPath) {
  RegisterBenchScenarios();
  const exp::Scenario& s = exp::ScenarioRegistry::Instance().At("table6");
  const uint64_t transactions = 10;
  const exp::ScenarioResult via_catalog =
      RunScenario(s, SmallOptions(transactions));

  // The hand-wired Table 6 configuration the catalog entry replaced: the
  // DSTC hot-set workload on the mid-sized base, Texas with 64 MB.
  ocb::OcbParameters workload;
  workload.num_classes = 50;
  workload.num_objects = 20000;
  workload.hierarchy_depth = 3;
  workload.root_region = 30;
  const DstcComparison legacy = RunDstcExperiment(
      SmallOptions(transactions), 64.0, workload,
      core::SystemCatalog::TexasWithMemory(64.0));

  const std::pair<const char*, const DstcAggregate*> sides[] = {
      {"benchmark", &legacy.bench}, {"simulation", &legacy.sim}};
  for (const auto& [series, agg] : sides) {
    const std::string key = std::string("/") + series + "/mean";
    EXPECT_EQ(via_catalog.at("dstc/pre_clustering_ios" + key),
              agg->pre.mean);
    EXPECT_EQ(via_catalog.at("dstc/clustering_overhead_ios" + key),
              agg->overhead.mean);
    EXPECT_EQ(via_catalog.at("dstc/post_clustering_ios" + key),
              agg->post.mean);
    EXPECT_EQ(via_catalog.at("dstc/gain" + key), agg->gain.mean);
    EXPECT_EQ(via_catalog.at("dstc/clusters" + key), agg->clusters.mean);
    EXPECT_EQ(via_catalog.at("dstc/mean_cluster_size" + key),
              agg->cluster_size.mean);
    EXPECT_GT(agg->pre.mean, 0.0);
  }
}

}  // namespace
}  // namespace voodb::bench
