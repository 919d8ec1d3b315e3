#include "trace_tools.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "cell_tools.hpp"
#include "desp/random.hpp"
#include "emu/o2_emulator.hpp"
#include "emu/texas_emulator.hpp"
#include "harness.hpp"
#include "ocb/workload.hpp"
#include "trace/counters.hpp"
#include "trace/mrc.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/replayer.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "voodb/param_registry.hpp"
#include "voodb/system.hpp"

namespace voodb::bench {

namespace {

using core::ParamRegistry;

trace::Header EmulatorHeader(uint32_t page_size, uint64_t buffer_pages,
                             storage::ReplacementPolicy policy,
                             const ocb::ObjectBase& base, uint64_t num_pages,
                             uint64_t seed) {
  trace::Header h;
  h.page_size = page_size;
  h.buffer_pages = buffer_pages;
  h.replacement_policy = static_cast<uint8_t>(policy);
  h.lru_k = 2;
  h.num_classes = base.params().num_classes;
  h.num_objects = base.NumObjects();
  h.num_pages = num_pages;
  h.seed = seed;
  return h;
}

/// Records `transactions` fixed-seed transactions of the O2 emulator
/// (built from `config` over `base`) onto `os` and finishes the trace
/// with the emulator's cache counters.  The recorded page stream is
/// independent of the cache size, so one recording serves every
/// replayed configuration.
void RecordO2Trace(const emu::O2Config& config, const ocb::ObjectBase& base,
                   uint64_t transactions, uint64_t seed, std::ostream& os) {
  emu::O2Emulator o2(config, &base, seed);
  trace::Writer writer(
      &os, EmulatorHeader(config.page_size, config.cache_pages,
                          config.replacement, base, o2.NumPages(), seed));
  trace::Recorder recorder(&writer);
  o2.SetRecorder(&recorder);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed));
  o2.RunTransactions(gen, transactions);
  recorder.Flush();
  writer.Finish(o2.TraceCountersNow());
}

/// Records replication `seed` of `cell`'s simulation over `base` to
/// `path` (trace_record / trace_path are set here): its phases as
/// `voodb run` drives them (`exp::RunCellPhases`).  Returns the finished
/// trace's counters.
trace::TraceCounters RecordSimulationTrace(exp::Cell cell,
                                           const ocb::ObjectBase& base,
                                           uint64_t seed,
                                           const std::string& path) {
  cell.config.system.trace_record = true;
  cell.config.system.trace_path = path;
  core::VoodbSystem sys(cell.config.system, &base,
                        exp::MakeClusteringPolicy(cell), seed);
  exp::RunCellPhases(cell, sys, seed);
  const trace::TraceCounters counters =
      sys.buffering_manager().TraceCountersNow();
  sys.FinishTrace();
  return counters;
}

void PrintCounters(const char* label, const trace::TraceCounters& c) {
  util::TextTable table({"Counter", "Value"});
  table.AddRow({"accesses", std::to_string(c.accesses)});
  table.AddRow({"hits", std::to_string(c.hits)});
  table.AddRow({"misses", std::to_string(c.misses)});
  table.AddRow({"evictions", std::to_string(c.evictions)});
  table.AddRow({"writebacks", std::to_string(c.writebacks)});
  std::cout << label << "\n";
  table.Print(std::cout);
}

int TraceRecord(int argc, const char* const* argv) {
  util::CliArgs args(argc, argv);
  const std::string out =
      args.GetString("out", "", "output trace file (required)");
  const std::string scenario_name = args.GetString(
      "scenario", "",
      "take base parameters from this catalog scenario (default: model "
      "defaults)");
  const std::string cell = args.GetString(
      "cell", "",
      "the scenario's table cell to record (labels: `voodb describe "
      "<scenario>`); required when the scenario declares cells");
  const std::string system_kind = args.GetString(
      "system", "sim",
      "what executes the workload: sim (VOODB simulation) | o2 | texas");
  const auto transactions = static_cast<uint64_t>(args.GetInt(
      "transactions", 1000,
      "transactions per replication, as in `voodb run`"));
  const auto seed = static_cast<uint64_t>(args.GetInt(
      "seed", 42,
      "base RNG seed, as in `voodb run`; the run is its replication 0"));
  const double memory_mb = args.GetDouble(
      "memory-mb", 0.0,
      "emulator memory budget in MB (default: 16 for o2, 64 for texas)");
  const std::vector<std::string> sets = args.GetList(
      "set", "override a model parameter (name=value, repeatable)");
  if (args.help_requested()) {
    std::cout << "Record one fixed-seed run as an access trace.\n\n"
              << args.Help();
    return 0;
  }
  args.RejectUnknown();
  VOODB_CHECK_MSG(!out.empty(), "trace record needs --out=PATH");

  exp::Scenario model_defaults;
  model_defaults.name = "model defaults";
  const CellRun run = ResolveCellRun(
      scenario_name.empty()
          ? model_defaults
          : exp::ScenarioRegistry::Instance().At(scenario_name),
      cell, transactions, seed, ParseOverrides(sets));
  const ocb::ObjectBase base =
      ocb::ObjectBase::Generate(run.cell.config.workload);

  if (system_kind == "sim") {
    // Serial recording (one user) keeps the transaction markers nested,
    // so the trace replays as a workload, not just a page stream.
    exp::Cell cell = run.cell;
    uint32_t& users = cell.config.system.num_users;
    if (users > 1) {
      std::cout << "note: recording with num_users=1 so transaction "
                   "markers nest (was "
                << users << ")\n";
      users = 1;
    }
    const trace::TraceCounters counters =
        RecordSimulationTrace(cell, base, run.seed, out);
    std::cout << "recorded " << run.cell.transactions
              << " simulated transactions to "
              << out << "\n";
    PrintCounters("buffer counters of the recorded run:", counters);
    return 0;
  }
  if (system_kind == "o2") {
    emu::O2Config cfg;
    if (memory_mb > 0.0) {
      cfg.cache_pages =
          static_cast<uint64_t>(memory_mb * 1024 * 1024 / cfg.page_size);
    }
    std::ofstream os(out, std::ios::binary | std::ios::trunc);
    VOODB_CHECK_MSG(os.is_open(), "cannot open '" << out << "'");
    RecordO2Trace(cfg, base, run.cell.transactions, run.seed, os);
    std::cout << "recorded " << run.cell.transactions
              << " O2-emulator transactions "
              << "to " << out << "\n";
    return 0;
  }
  if (system_kind == "texas") {
    emu::TexasConfig cfg;
    if (memory_mb > 0.0) {
      cfg.memory_pages =
          emu::TexasConfig::FramesForMemory(memory_mb, cfg.page_size);
    }
    emu::TexasEmulator texas(cfg, &base, run.seed);
    trace::Header header = EmulatorHeader(
        cfg.page_size, cfg.memory_pages, storage::ReplacementPolicy::kLru,
        base, texas.NumPages(), run.seed);
    header.flags |= trace::kFlagVirtualMemory;
    trace::Writer writer(out, header);
    trace::Recorder recorder(&writer);
    texas.SetRecorder(&recorder);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(run.seed));
    texas.RunTransactions(gen, run.cell.transactions);
    recorder.Flush();
    writer.Finish(trace::CountersFrom(texas.vm().stats()));
    std::cout << "recorded " << run.cell.transactions
              << " Texas-emulator transactions to " << out
              << " (VM model: page stream + locality analytics; replay "
                 "verification applies to database-buffer traces)\n";
    return 0;
  }
  VOODB_CHECK_MSG(false, "unknown --system '" << system_kind
                                              << "'; valid: sim | o2 | "
                                                 "texas");
  return 2;
}

int TraceReplay(int argc, const char* const* argv) {
  util::CliArgs args(argc, argv);
  const std::string in =
      args.GetString("in", "", "input trace file (required)");
  const auto buffer_pages = static_cast<uint64_t>(args.GetInt(
      "buffer-pages", 0, "buffer capacity override (0 = recorded value)"));
  const std::string policy_name = args.GetString(
      "policy", "", "replacement policy override (see `voodb params`)");
  const auto lru_k = static_cast<uint32_t>(
      args.GetInt("lru-k", 0, "LRU-K depth override (0 = recorded value)"));
  const bool verify = args.GetBool(
      "verify", false,
      "fail unless the recorded counters are reproduced bit-exactly");
  if (args.help_requested()) {
    std::cout << "Replay a recorded page stream through a fresh buffer "
                 "manager.\n\n"
              << args.Help();
    return 0;
  }
  args.RejectUnknown();
  VOODB_CHECK_MSG(!in.empty(), "trace replay needs --in=PATH");

  trace::Reader reader(in);
  trace::ReplayConfig config;
  config.buffer_pages = buffer_pages;
  config.lru_k = lru_k;
  if (!policy_name.empty()) {
    config.policy = static_cast<int>(ParamRegistry::Instance().ParseValue(
        "page_replacement", policy_name));
  }
  const trace::ReplayStats stats = trace::ReplayPages(reader, config);

  util::TextTable table({"Counter", "Replayed", "Recorded"});
  const trace::TraceCounters& rec = reader.header().counters;
  table.AddRow({"accesses", std::to_string(stats.accesses),
                std::to_string(rec.accesses)});
  table.AddRow({"hits", std::to_string(stats.hits),
                std::to_string(rec.hits)});
  table.AddRow({"misses", std::to_string(stats.misses),
                std::to_string(rec.misses)});
  table.AddRow({"evictions", std::to_string(stats.evictions),
                std::to_string(rec.evictions)});
  table.AddRow({"writebacks", std::to_string(stats.writebacks),
                std::to_string(rec.writebacks)});
  table.Print(std::cout);
  std::cout << "replayed I/Os: " << stats.reads << " reads, " << stats.writes
            << " writes; hit rate " << stats.HitRate() << "\n";
  if (verify) {
    VOODB_CHECK_MSG(trace::ReplayVerifiable(reader.header().flags),
                    "--verify applies to plain database-buffer traces; "
                    "this one was recorded under the VM model, with "
                    "flush_on_commit, or with the crash hazard armed, so "
                    "its counters include buffer events outside the page "
                    "stream");
    if (!stats.Matches(rec)) {
      std::cerr << "error: replay diverged from the recorded counters\n";
      return 1;
    }
    std::cout << "verify: replay reproduced the recorded counters "
                 "bit-exactly\n";
  }
  return 0;
}

int TraceAnalyze(int argc, const char* const* argv) {
  util::CliArgs args(argc, argv);
  const std::string in =
      args.GetString("in", "", "input trace file (required)");
  const std::string sizes_arg = args.GetString(
      "sizes", "",
      "comma-separated cache sizes in pages for the hit-ratio curve "
      "(default: a sweep up to the working set)");
  const bool csv = args.GetBool("csv", false, "CSV output");
  if (args.help_requested()) {
    std::cout << "One-pass Mattson miss-ratio-curve analytics over a "
                 "recorded trace.\n\n"
              << args.Help();
    return 0;
  }
  args.RejectUnknown();
  VOODB_CHECK_MSG(!in.empty(), "trace analyze needs --in=PATH");

  trace::Reader reader(in);
  trace::MrcAnalyzer analyzer(reader.header().num_classes);
  analyzer.Consume(reader);
  const trace::MrcResult mrc = analyzer.Finish();

  std::cout << "trace: " << mrc.transactions << " transactions, "
            << mrc.object_accesses << " object accesses, "
            << mrc.page_accesses << " page accesses\n"
            << "working set: " << mrc.working_set_pages << " pages ("
            << (mrc.working_set_pages * reader.header().page_size) /
                   (1024 * 1024)
            << " MB); mean reuse distance "
            << util::FormatDouble(mrc.MeanReuseDistance(), 1) << " pages\n";

  std::vector<uint64_t> sizes;
  if (!sizes_arg.empty()) {
    std::stringstream ss(sizes_arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long value = std::strtoull(item.c_str(), &end, 10);
      // A leading digit is required explicitly: strtoull would accept
      // "-5" by wrapping it to a huge unsigned value.
      VOODB_CHECK_MSG(!item.empty() && std::isdigit(
                          static_cast<unsigned char>(item[0])) &&
                          end != nullptr && *end == '\0' && errno == 0,
                      "--sizes expects comma-separated page counts, got '"
                          << item << "'");
      sizes.push_back(static_cast<uint64_t>(value));
    }
  } else {
    for (const double fraction : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
      const auto pages = static_cast<uint64_t>(
          fraction * static_cast<double>(mrc.working_set_pages));
      if (pages >= 1) sizes.push_back(pages);
    }
  }
  util::TextTable curve({"Cache (pages)", "Hits", "Misses", "Hit ratio"});
  for (const uint64_t pages : sizes) {
    curve.AddRow({std::to_string(pages), std::to_string(mrc.HitsAt(pages)),
                  std::to_string(mrc.MissesAt(pages)),
                  util::FormatDouble(mrc.HitRatioAt(pages), 4)});
  }
  std::cout << "exact LRU hit-ratio curve (one Mattson pass):\n";
  if (csv) {
    curve.PrintCsv(std::cout);
  } else {
    curve.Print(std::cout);
  }

  if (!mrc.class_accesses.empty() && mrc.object_accesses > 0) {
    // Access skew: the few hottest classes against the schema size.
    std::vector<std::pair<uint64_t, size_t>> ranked;
    for (size_t c = 0; c < mrc.class_accesses.size(); ++c) {
      ranked.emplace_back(mrc.class_accesses[c], c);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    util::TextTable skew({"Class", "Accesses", "Share"});
    const size_t top = std::min<size_t>(8, ranked.size());
    for (size_t i = 0; i < top; ++i) {
      skew.AddRow({std::to_string(ranked[i].second),
                   std::to_string(ranked[i].first),
                   util::FormatDouble(
                       static_cast<double>(ranked[i].first) /
                           static_cast<double>(mrc.object_accesses),
                       4)});
    }
    std::cout << "hottest classes (of " << mrc.class_accesses.size()
              << "):\n";
    if (csv) {
      skew.PrintCsv(std::cout);
    } else {
      skew.Print(std::cout);
    }
  }
  return 0;
}

using exp::ScenarioContext;
using exp::ScenarioResult;

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Records one O2-emulator run over `base` into `out`.
void RecordFixedRun(const ScenarioContext& ctx, const ocb::ObjectBase& base,
                    double cache_mb, std::stringstream& out) {
  emu::O2Config cfg;
  cfg.cache_pages =
      static_cast<uint64_t>(cache_mb * 1024 * 1024 / cfg.page_size);
  RecordO2Trace(cfg, base, ctx.options.transactions, ctx.options.seed, out);
}

void NoteExact(ScenarioResult& result, const std::string& section,
               const std::string& x, const std::string& series,
               double value) {
  const Estimate e{value, 0.0};
  RecordEstimate(section, x, series, e);
  result[section + "/" + x + "/" + series + "/mean"] = value;
}

}  // namespace

int RunTraceCommand(int argc, const char* const* argv) {
  const auto usage = [](std::ostream& os) {
    os << "usage:\n"
          "  voodb trace record  --out=PATH [--scenario=NAME [--cell=LABEL]]\n"
          "                      [--system=sim|o2|texas]\n"
          "                      [--transactions=N] [--seed=N] "
          "[--memory-mb=X] [--set k=v ...]\n"
          "  voodb trace replay  --in=PATH [--buffer-pages=N] "
          "[--policy=P] [--lru-k=K] [--verify]\n"
          "  voodb trace analyze --in=PATH [--sizes=a,b,c] [--csv]\n";
  };
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string sub = argv[1];
  const int rest_argc = argc - 1;
  const char* const* rest_argv = argv + 1;
  try {
    if (sub == "record") return TraceRecord(rest_argc, rest_argv);
    if (sub == "replay") return TraceReplay(rest_argc, rest_argv);
    if (sub == "analyze") return TraceAnalyze(rest_argc, rest_argv);
    if (sub == "--help" || sub == "-h" || sub == "help") {
      usage(std::cout);
      return 0;
    }
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown trace subcommand '" << sub << "'\n";
  usage(std::cerr);
  return 2;
}

const std::vector<double>& MemoryPoints() {
  static const std::vector<double> points = {8, 12, 16, 24, 32, 64};
  return points;
}

ScenarioResult RunTraceMrcScenario(const ScenarioContext& ctx) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ctx.config.workload);
  const std::string path = ctx.config.system.trace_path.empty()
                               ? "trace_mrc.vtrc"
                               : ctx.config.system.trace_path;
  const trace::TraceCounters recorded = RecordSimulationTrace(
      exp::FindCell(ctx, ""), base, ctx.options.seed, path);

  // Replay must reproduce the recorded run bit-exactly before the
  // analytics mean anything (skipped for configurations whose buffer
  // events fall outside the page stream, e.g. --set
  // flush_on_commit=true).
  trace::Reader replay_reader(path);
  const bool verifiable =
      trace::ReplayVerifiable(replay_reader.header().flags);
  if (verifiable) {
    const trace::ReplayStats replayed = trace::ReplayPages(replay_reader);
    VOODB_CHECK_MSG(replayed.Matches(recorded),
                    "trace replay diverged from the recorded counters");
  }

  trace::Reader reader(path);
  trace::MrcAnalyzer analyzer(reader.header().num_classes);
  analyzer.Consume(reader);
  const trace::MrcResult mrc = analyzer.Finish();

  ScenarioResult result;
  NoteExact(result, "trace", "recorded", "accesses",
            static_cast<double>(recorded.accesses));
  NoteExact(result, "trace", "recorded", "hits",
            static_cast<double>(recorded.hits));
  NoteExact(result, "trace", "recorded", "replay_matches",
            verifiable ? 1.0 : 0.0);
  NoteExact(result, "locality", "working_set", "pages",
            static_cast<double>(mrc.working_set_pages));
  NoteExact(result, "locality", "reuse", "mean_distance",
            mrc.MeanReuseDistance());

  util::TextTable curve({"Cache (pages)", "Hit ratio"});
  for (const double fraction : {0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const auto pages = static_cast<uint64_t>(
        fraction * static_cast<double>(mrc.working_set_pages));
    if (pages < 1) continue;
    const double ratio = mrc.HitRatioAt(pages);
    NoteExact(result, "mrc", std::to_string(pages), "hit_ratio", ratio);
    curve.AddRow({std::to_string(pages), util::FormatDouble(ratio, 4)});
  }
  std::cout << "== Trace MRC: one recorded run, exact LRU curve ==\n"
            << "recorded " << mrc.transactions << " transactions ("
            << mrc.page_accesses << " page accesses, working set "
            << mrc.working_set_pages << " pages) to " << path
            << (verifiable
                    ? "; replay reproduced the recorded counters "
                      "bit-exactly\n"
                    : "; counter verification skipped (buffer events "
                      "outside the page stream)\n");
  if (ctx.options.csv) {
    curve.PrintCsv(std::cout);
  } else {
    curve.Print(std::cout);
  }
  return result;
}

ScenarioResult RunFig08MrcScenario(const ScenarioContext& ctx) {
  // One recorded run serves every cache size: the logical page stream
  // does not depend on hits or misses.
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ctx.config.workload);
  std::stringstream trace_stream(std::ios::in | std::ios::out |
                                 std::ios::binary);
  RecordFixedRun(ctx, base, 16.0, trace_stream);

  const auto t_mrc = std::chrono::steady_clock::now();
  trace::Reader mrc_reader(&trace_stream);
  trace::MrcAnalyzer analyzer(mrc_reader.header().num_classes);
  analyzer.Consume(mrc_reader);
  const trace::MrcResult mrc = analyzer.Finish();
  const double mrc_ms = MsSince(t_mrc);

  const std::vector<double>& memory_points = MemoryPoints();
  const uint32_t page_size = mrc_reader.header().page_size;

  ScenarioResult result;
  util::TextTable table({"Cache (MB)", "Pages", "MRC hits", "Replay hits",
                         "Sim hits", "Hit ratio"});
  double replay_ms = 0.0;
  double sim_ms = 0.0;
  for (const double mb : memory_points) {
    const auto pages =
        static_cast<uint64_t>(mb * 1024 * 1024 / page_size);
    const uint64_t mrc_hits = mrc.HitsAt(pages);

    // Full LRU buffer simulation over the same stream (the N-runs path
    // the single Mattson pass replaces).
    const auto t_replay = std::chrono::steady_clock::now();
    mrc_reader.Rewind();
    trace::ReplayConfig replay_config;
    replay_config.buffer_pages = pages;
    replay_config.policy =
        static_cast<int>(storage::ReplacementPolicy::kLru);
    const trace::ReplayStats replayed =
        trace::ReplayPages(mrc_reader, replay_config);
    replay_ms += MsSince(t_replay);

    // And a fresh end-to-end emulator run at this cache size.
    const auto t_sim = std::chrono::steady_clock::now();
    emu::O2Config cfg;
    cfg.cache_pages = pages;
    emu::O2Emulator o2(cfg, &base, ctx.options.seed);
    ocb::WorkloadGenerator gen(&base,
                               desp::RandomStream(ctx.options.seed));
    o2.RunTransactions(gen, ctx.options.transactions);
    sim_ms += MsSince(t_sim);
    const uint64_t sim_hits = o2.cache().stats().hits;

    VOODB_CHECK_MSG(
        mrc_hits == replayed.hits && mrc_hits == sim_hits,
        "fig08_mrc divergence at " << mb << " MB: Mattson " << mrc_hits
                                   << ", replay " << replayed.hits
                                   << ", simulation " << sim_hits);
    const std::string x = util::FormatDouble(mb, 0);
    NoteExact(result, "figure", x, "mrc_hits",
              static_cast<double>(mrc_hits));
    NoteExact(result, "figure", x, "sim_hits",
              static_cast<double>(sim_hits));
    NoteExact(result, "figure", x, "hit_ratio", mrc.HitRatioAt(pages));
    table.AddRow({x, std::to_string(pages), std::to_string(mrc_hits),
                  std::to_string(replayed.hits), std::to_string(sim_hits),
                  util::FormatDouble(mrc.HitRatioAt(pages), 4)});
  }

  const double speedup_vs_sims = mrc_ms > 0.0 ? sim_ms / mrc_ms : 0.0;
  const double speedup_vs_replays = mrc_ms > 0.0 ? replay_ms / mrc_ms : 0.0;
  NoteExact(result, "timing", "mrc", "ms", mrc_ms);
  NoteExact(result, "timing", "replays", "ms", replay_ms);
  NoteExact(result, "timing", "simulations", "ms", sim_ms);
  NoteExact(result, "timing", "speedup", "mrc_vs_simulations",
            speedup_vs_sims);
  NoteExact(result, "timing", "speedup", "mrc_vs_replays",
            speedup_vs_replays);

  PrintTable(ctx.options, "Figure 8 from one trace pass (Mattson MRC)", table,
             nullptr);
  std::cout << "exact-match check passed at every cache size.\n"
            << "one Mattson pass: " << util::FormatDouble(mrc_ms, 1)
            << " ms vs " << util::FormatDouble(replay_ms, 1)
            << " ms for 6 replays ("
            << util::FormatDouble(speedup_vs_replays, 1) << "x) and "
            << util::FormatDouble(sim_ms, 1) << " ms for 6 simulations ("
            << util::FormatDouble(speedup_vs_sims, 1) << "x)\n";
  return result;
}

}  // namespace voodb::bench
