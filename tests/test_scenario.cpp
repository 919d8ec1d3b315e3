/// \file test_scenario.cpp
/// \brief Tests for the scenario catalog and the single-driver run path:
/// catalog completeness, override resolution through the parameter
/// registry, the driver's error paths, the tools reaching every table
/// cell, and recorded goldens of the paper's figures and DSTC tables.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cell_tools.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "scenarios.hpp"
#include "util/table.hpp"
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
      "fig08_mrc"};
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
  const char* argv[] = {"profile", "fig08", "--cell=16", "--set",
                        "shards=4", "--set", "num_objects=500",
                        "--transactions=10", "--trace=off", "--metrics=off"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(RunProfileCommand(static_cast<int>(std::size(argv)), argv), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("shards"), std::string::npos) << err;
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

  // A figure cell (emulator leg beside the simulation) and a DSTC table's
  // phased cell, whose tools report the post-clustering phase.
  const auto& registry = exp::ScenarioRegistry::Instance();
  struct ToolCell {
    const char* scenario;
    const char* label;
    std::string p99_key;  ///< the table's p99 of that cell
  };
  const ToolCell cells[] = {
      {"fig08", "16",
       registry.At("fig08").title + " — response time (ms, sim)/16/p99/mean"},
      {"table6", "dstc",
       "dstc — response time (ms, sim)/post_clustering/p99/mean"},
  };
  options.transactions = 20;
  for (const ToolCell& c : cells) {
    const exp::Scenario& scenario = registry.At(c.scenario);
    const double cell_p99 = RunScenario(scenario, options).at(c.p99_key);
    EXPECT_GT(cell_p99, 0.0) << c.scenario;
    const CellRun cell_run = ResolveCellRun(
        scenario, c.label, options.transactions, options.seed, {});
    EXPECT_EQ(ExplainCell(cell_run, 3, "off").ResponseQuantileMs(0.99),
              cell_p99)
        << c.scenario;
    EXPECT_EQ(ProfileCell(cell_run, "off", "off").ResponseQuantileMs(0.99),
              cell_p99)
        << c.scenario;
  }
}

TEST(ScenarioCells, ExplainRunsAShardedCell) {
  // `voodb explain cc_abyss --cell=64/wait_die --set shards=2 --set
  // multi_partition_pct=0.5`: each shard's users run the cell's
  // transactions, half of them with a remote sub-transaction.
  RegisterBenchScenarios();
  const exp::Scenario& abyss = exp::ScenarioRegistry::Instance().At("cc_abyss");
  const CellRun run = ResolveCellRun(abyss, "64/wait_die", 32, 42,
                                     {{"num_users", "64"},
                                      {"shards", "2"},
                                      {"multi_partition_pct", "0.5"}});
  ASSERT_EQ(run.cell.config.system.shards, 2u);
  testing::internal::CaptureStdout();
  const core::PhaseMetrics m = ExplainCell(run, 3, "off");
  const std::string out = testing::internal::GetCapturedStdout();
  // Every requested transaction committed (a phase with unfinished work
  // throws), and so did the remote sub-transactions.
  const uint64_t requested = 2 * run.cell.transactions;
  EXPECT_GT(m.transactions, requested);
  EXPECT_LT(m.transactions, 2 * requested);
  EXPECT_NE(out.find("== 3 slowest transactions (span trees) =="),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("critical path:"), std::string::npos) << out;
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
  const exp::Scenario& shard_scale = registry.At("shard_scale");
  EXPECT_EQ(ResolveCellRun(shard_scale, "", 10, 42, {}).cell.transactions,
            10u);
  EXPECT_THROW(ResolveCellRun(shard_scale, "8", 10, 42, {}), util::Error);
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
  exp::ScenarioOptions seen_options;
  s.run = [&seen, &seen_options](const exp::ScenarioContext& ctx) {
    seen = ctx.config;
    seen_options = ctx.options;
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
  EXPECT_EQ(seen_options.replications, options.replications);
  EXPECT_EQ(seen_options.seed, 7u);
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

TEST(RunScenario, ColdTransactionsWarmEveryCell) {
  // COLDN runs unmeasured before every cell's reported phase, so
  // `--set cold_transactions` changes what the table reports.
  RegisterBenchScenarios();
  const exp::Scenario& multiprog =
      exp::ScenarioRegistry::Instance().At("ablation_multiprog");
  const exp::ScenarioResult plain = RunScenario(multiprog, SmallOptions(20));
  const exp::ScenarioResult cold = RunScenario(
      multiprog, SmallOptions(20), {{"cold_transactions", "100"}});
  ASSERT_EQ(plain.size(), cold.size());
  EXPECT_NE(plain, cold);
}

TEST(RunScenario, HotTransactionsIsRejectedByName) {
  // HOTN is the run's --transactions, so `hot_transactions` is an
  // unknown parameter and the error names it.
  RegisterBenchScenarios();
  try {
    RunScenario(exp::ScenarioRegistry::Instance().At("ablation_multiprog"),
                SmallOptions(20), {{"hot_transactions", "5"}});
    FAIL() << "expected util::Error for --set hot_transactions";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("hot_transactions"), std::string::npos)
        << message;
    // The retired name points at its replacement, not at the
    // nearest-spelled parameter (which means the opposite).
    EXPECT_NE(message.find("--transactions"), std::string::npos) << message;
    EXPECT_EQ(message.find("cold_transactions"), std::string::npos)
        << message;
  }
}

TEST(RunScenario, SimWindowIsRejectedByName) {
  // The window is the cross-shard delay; no parameter sets it any more.
  RegisterBenchScenarios();
  try {
    RunScenario(exp::ScenarioRegistry::Instance().At("shard_scale"),
                SmallOptions(20), {{"sim_window", "1"}});
    FAIL() << "expected util::Error for --set sim_window";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'sim_window' was retired"), std::string::npos)
        << message;
    EXPECT_NE(message.find("cross-shard delay"), std::string::npos)
        << message;
  }
}

// --- Recorded goldens: the ported figures and tables ------------------------
//
// Recorded from the hand-wired sweeps these scenarios ran on before they
// declared cells (2 replications, seed 42, one thread).  The emulator
// legs and the DSTC tables' simulation keep the run's seed chain, so
// their series reproduce bit-exactly; a figure's simulation series and
// the latency sections changed by design (common seed chain, percentiles
// estimated per replication).

TEST(ScenarioGolden, Fig08BenchmarkSeriesMatchesRecording) {
  RegisterBenchScenarios();
  const exp::Scenario& s = exp::ScenarioRegistry::Instance().At("fig08");
  const exp::ScenarioResult result = RunScenario(s, SmallOptions(20));
  for (const char* x : {"8", "12", "16", "24", "32", "64"}) {
    const std::string key = s.title + "/" + x + "/benchmark/";
    EXPECT_EQ(result.at(key + "mean"), 913.5) << x;
    EXPECT_EQ(result.at(key + "hw"), 628.9571344405321) << x;
    EXPECT_GT(result.at(s.title + "/" + x + "/simulation/mean"), 0.0) << x;
  }
}

TEST(ScenarioGolden, Table6DstcSeriesMatchRecording) {
  RegisterBenchScenarios();
  const exp::Scenario& s = exp::ScenarioRegistry::Instance().At("table6");
  const exp::ScenarioResult result = RunScenario(s, SmallOptions(10));
  struct Golden {
    const char* key;
    double mean;
    double hw;
  };
  const Golden goldens[] = {
      {"pre_clustering_ios/benchmark", 403, 38.118614208517094},
      {"pre_clustering_ios/simulation", 336, 520.9543941830669},
      {"clustering_overhead_ios/benchmark", 9449.5, 209.65237814684406},
      {"clustering_overhead_ios/simulation", 8, 101.64963788937895},
      {"post_clustering_ios/benchmark", 380, 127.06204736172367},
      {"post_clustering_ios/simulation", 389.5, 82.59033078512037},
      {"gain/benchmark", 1.0610533610533612, 0.25447631107095026},
      {"gain/simulation", 0.8611275944826858, 1.1549000803762437},
      {"clusters/benchmark", 18, 127.06204736172367},
      {"clusters/simulation", 3.5, 44.47171657660328},
      {"mean_cluster_size/benchmark", 8.633928571428571, 9.416205295556304},
      {"mean_cluster_size/simulation", 5.071428571428571, 64.43860973344556},
  };
  for (const Golden& g : goldens) {
    const std::string key = std::string("dstc/") + g.key;
    EXPECT_EQ(result.at(key + "/mean"), g.mean) << g.key;
    EXPECT_EQ(result.at(key + "/hw"), g.hw) << g.key;
  }
}

TEST(ScenarioGolden, AblationClusteringMatchesRecording) {
  RegisterBenchScenarios();
  const exp::ScenarioResult result = RunScenario(
      exp::ScenarioRegistry::Instance().At("ablation_clustering"),
      SmallOptions(10));
  struct Golden {
    const char* key;
    double mean;
    double hw;
  };
  const Golden goldens[] = {
      {"NONE/clusters", 0, 0},
      {"NONE/gain", 0.8611275944826858, 1.1549000803762437},
      {"NONE/overhead", 0, 0},
      {"NONE/post_ios", 389.5, 82.59033078512037},
      {"NONE/pre_ios", 336, 520.9543941830669},
      {"DSTC/clusters", 3.5, 44.47171657660328},
      {"DSTC/gain", 0.8611275944826858, 1.1549000803762437},
      {"DSTC/overhead", 8, 101.64963788937895},
      {"DSTC/post_ios", 389.5, 82.59033078512037},
      {"DSTC/pre_ios", 336, 520.9543941830669},
      {"GAY_GRUENWALD/clusters", 2, 25.412409472344738},
      {"GAY_GRUENWALD/gain", 0.8611275944826858, 1.1549000803762437},
      {"GAY_GRUENWALD/overhead", 8.5, 108.00274025746509},
      {"GAY_GRUENWALD/post_ios", 389.5, 82.59033078512037},
      {"GAY_GRUENWALD/pre_ios", 336, 520.9543941830669},
  };
  for (const Golden& g : goldens) {
    const std::string key = std::string("clustp/") + g.key;
    EXPECT_EQ(result.at(key + "/mean"), g.mean) << g.key;
    EXPECT_EQ(result.at(key + "/hw"), g.hw) << g.key;
  }
}

TEST(ScenarioGolden, AblationVmModelMatchesRecording) {
  // Recorded from the ablation's per-point replication loop before its
  // 15 (variant x memory) points ran as one RunGrid; the seed chain is
  // the same, so every estimate reproduces bit-exactly at any width.
  RegisterBenchScenarios();
  const exp::Scenario& s =
      exp::ScenarioRegistry::Instance().At("ablation_vm_model");
  struct Golden {
    const char* key;
    double mean;
    double hw;
  };
  const Golden goldens[] = {
      {"full model (reserve, hot, dirty)/ios_at_8mb", 7146.5,
       4034.2200037347266},
      {"full model (reserve, hot, dirty)/ios_at_16mb", 3355,
       2223.5858288301642},
      {"full model (reserve, hot, dirty)/ios_at_64mb", 2621,
       368.47993734899859},
      {"cold reservations/ios_at_8mb", 4017.5, 247.77099235536113},
      {"cold reservations/ios_at_16mb", 2621, 368.47993734899859},
      {"cold reservations/ios_at_64mb", 2621, 368.47993734899859},
      {"no reservations/ios_at_8mb", 4017, 241.41788998727498},
      {"no reservations/ios_at_16mb", 2621, 368.47993734899859},
      {"no reservations/ios_at_64mb", 2621, 368.47993734899859},
      {"clean loads (no swizzle dirty)/ios_at_8mb", 3834.5,
       1772.5155606960452},
      {"clean loads (no swizzle dirty)/ios_at_16mb", 2760,
       724.25366996182493},
      {"clean loads (no swizzle dirty)/ios_at_64mb", 2621,
       368.47993734899859},
      {"plain demand paging/ios_at_8mb", 2827.5, 120.70894499363749},
      {"plain demand paging/ios_at_16mb", 2621, 368.47993734899859},
      {"plain demand paging/ios_at_64mb", 2621, 368.47993734899859},
  };
  exp::ScenarioOptions options = SmallOptions(100);
  const exp::ScenarioResult serial = RunScenario(s, options);
  EXPECT_EQ(serial.size(), 2 * std::size(goldens));
  for (const Golden& g : goldens) {
    const std::string key = std::string("vm_model/") + g.key;
    EXPECT_EQ(serial.at(key + "/mean"), g.mean) << g.key;
    EXPECT_EQ(serial.at(key + "/hw"), g.hw) << g.key;
  }
  options.threads = 4;
  EXPECT_EQ(RunScenario(s, options), serial);
}

// --- Honest half-widths ------------------------------------------------------

TEST(ScenarioCells, LatencyPercentilesCarryConfidenceIntervals) {
  // Percentiles are estimated once per replication, so they vary across
  // replications and get a Student-t CI; a percentile read off one
  // histogram merged across replications has none.
  RegisterBenchScenarios();
  const auto& registry = exp::ScenarioRegistry::Instance();
  exp::ScenarioOptions options = SmallOptions(20);
  options.replications = 3;
  const exp::Scenario& fig08 = registry.At("fig08");
  const exp::ScenarioResult figure = RunScenario(fig08, options);
  for (const double mb : MemoryPoints()) {
    const std::string x = util::FormatDouble(mb, 0);
    EXPECT_GT(figure.at(fig08.title + " — response time (ms, sim)/" + x +
                        "/p99/hw"),
              0.0)
        << x;
  }
  const exp::ScenarioResult table8 =
      RunScenario(registry.At("table8"), options);
  for (const char* phase : {"pre_clustering", "post_clustering"}) {
    EXPECT_GT(table8.at(std::string("dstc — response time (ms, sim)/") +
                        phase + "/p99/hw"),
              0.0)
        << phase;
  }
}

TEST(ScenarioCells, FigureAndTableAreThreadCountInvariant) {
  RegisterBenchScenarios();
  const auto& registry = exp::ScenarioRegistry::Instance();
  for (const char* name : {"fig08", "table6"}) {
    exp::ScenarioOptions options = SmallOptions(10);
    const exp::ScenarioResult serial = RunScenario(registry.At(name), options);
    options.threads = 4;
    const exp::ScenarioResult parallel =
        RunScenario(registry.At(name), options);
    EXPECT_FALSE(serial.empty()) << name;
    EXPECT_EQ(serial, parallel) << name;
  }
}

}  // namespace
}  // namespace voodb::bench
