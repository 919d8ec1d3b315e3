#include "micro_trace.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "desp/random.hpp"
#include "emu/o2_emulator.hpp"
#include "harness.hpp"
#include "ocb/workload.hpp"
#include "trace/mrc.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/replayer.hpp"
#include "trace/writer.hpp"
#include "trace_tools.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace voodb::bench {

namespace {

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

ScenarioResult RunMicroTraceScenario(const ScenarioContext& ctx) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ctx.config.workload);
  const uint64_t transactions = ctx.options.transactions;
  const uint64_t trials = std::max<uint64_t>(2, ctx.options.replications);
  ScenarioResult result;

  // --- record overhead: traced vs untraced emulator runs ------------------
  // Both legs time exactly the drive loop (plus, in the traced leg, the
  // recorder flush/finish that recording implies); emulator, generator
  // and writer construction stay outside both timed regions so the
  // overhead number reports tracing cost, not setup cost.
  emu::O2Config cfg;  // default 16 MB cache
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  uint64_t accesses = 0;
  for (uint64_t t = 0; t < trials; ++t) {
    {
      emu::O2Emulator o2(cfg, &base, ctx.options.seed + t);
      ocb::WorkloadGenerator gen(
          &base, desp::RandomStream(ctx.options.seed + t));
      const auto start = std::chrono::steady_clock::now();
      o2.RunTransactions(gen, transactions);
      untraced_ms += MsSince(start);
      accesses = o2.cache().stats().accesses;
    }
    {
      emu::O2Emulator o2(cfg, &base, ctx.options.seed + t);
      ocb::WorkloadGenerator gen(
          &base, desp::RandomStream(ctx.options.seed + t));
      std::stringstream sink(std::ios::in | std::ios::out |
                             std::ios::binary);
      trace::Writer writer(
          &sink,
          O2TraceHeader(cfg, base, o2.NumPages(), ctx.options.seed + t));
      trace::Recorder recorder(&writer);
      o2.SetRecorder(&recorder);
      const auto start = std::chrono::steady_clock::now();
      o2.RunTransactions(gen, transactions);
      recorder.Flush();
      writer.Finish(o2.TraceCountersNow());
      traced_ms += MsSince(start);
    }
  }
  const double overhead =
      untraced_ms > 0.0 ? (traced_ms - untraced_ms) / untraced_ms : 0.0;
  NoteExact(result, "record", "overhead", "untraced_ms",
            untraced_ms / static_cast<double>(trials));
  NoteExact(result, "record", "overhead", "traced_ms",
            traced_ms / static_cast<double>(trials));
  NoteExact(result, "record", "overhead", "relative", overhead);

  // --- replay throughput ---------------------------------------------------
  std::stringstream trace_stream(std::ios::in | std::ios::out |
                                 std::ios::binary);
  RecordO2Trace(cfg, base, transactions, ctx.options.seed, trace_stream);
  trace::Reader reader(&trace_stream);
  double replay_total_ms = 0.0;
  for (uint64_t t = 0; t < trials; ++t) {
    reader.Rewind();
    const auto start = std::chrono::steady_clock::now();
    trace::ReplayPages(reader);
    replay_total_ms += MsSince(start);
  }
  const double replay_ms = replay_total_ms / static_cast<double>(trials);
  const double pages_per_s =
      replay_ms > 0.0
          ? static_cast<double>(reader.header().page_records) * 1000.0 /
                replay_ms
          : 0.0;
  NoteExact(result, "replay", "throughput", "pages_per_s", pages_per_s);
  NoteExact(result, "replay", "throughput", "ms", replay_ms);

  // --- MRC speedup: one pass vs per-size replays vs per-size runs ---------
  const auto t_mrc = std::chrono::steady_clock::now();
  reader.Rewind();
  trace::MrcAnalyzer analyzer(reader.header().num_classes);
  analyzer.Consume(reader);
  const trace::MrcResult mrc = analyzer.Finish();
  const double mrc_ms = MsSince(t_mrc);

  double sweep_replay_ms = 0.0;
  double sweep_sim_ms = 0.0;
  const std::vector<double>& memory_points = MemoryPoints();
  for (const double mb : memory_points) {
    const auto pages = static_cast<uint64_t>(
        mb * 1024 * 1024 / reader.header().page_size);
    trace::ReplayConfig replay_config;
    replay_config.buffer_pages = pages;
    replay_config.policy =
        static_cast<int>(storage::ReplacementPolicy::kLru);
    reader.Rewind();
    auto start = std::chrono::steady_clock::now();
    const trace::ReplayStats replayed =
        trace::ReplayPages(reader, replay_config);
    sweep_replay_ms += MsSince(start);
    VOODB_CHECK_MSG(replayed.hits == mrc.HitsAt(pages),
                    "micro_trace: Mattson hits diverged from replay at "
                        << mb << " MB");
    start = std::chrono::steady_clock::now();
    emu::O2Config point_cfg;
    point_cfg.cache_pages = pages;
    emu::O2Emulator o2(point_cfg, &base, ctx.options.seed);
    ocb::WorkloadGenerator gen(&base,
                               desp::RandomStream(ctx.options.seed));
    o2.RunTransactions(gen, transactions);
    sweep_sim_ms += MsSince(start);
  }
  NoteExact(result, "mrc", "sweep", "mrc_ms", mrc_ms);
  NoteExact(result, "mrc", "sweep", "replays_ms", sweep_replay_ms);
  NoteExact(result, "mrc", "sweep", "simulations_ms", sweep_sim_ms);
  NoteExact(result, "mrc", "sweep", "speedup_vs_simulations",
            mrc_ms > 0.0 ? sweep_sim_ms / mrc_ms : 0.0);
  NoteExact(result, "mrc", "sweep", "speedup_vs_replays",
            mrc_ms > 0.0 ? sweep_replay_ms / mrc_ms : 0.0);

  util::TextTable table({"Metric", "Value"});
  table.AddRow({"record overhead",
                util::FormatDouble(overhead * 100.0, 1) + " % over " +
                    util::FormatDouble(untraced_ms / trials, 1) +
                    " ms untraced (" + std::to_string(accesses) +
                    " page accesses)"});
  table.AddRow({"replay throughput",
                util::FormatDouble(pages_per_s / 1e6, 2) + " M pages/s"});
  table.AddRow({"MRC pass", util::FormatDouble(mrc_ms, 1) + " ms for " +
                                std::to_string(mrc.page_accesses) +
                                " accesses"});
  table.AddRow({"MRC vs 6 replays",
                util::FormatDouble(
                    mrc_ms > 0.0 ? sweep_replay_ms / mrc_ms : 0.0, 1) +
                    "x"});
  table.AddRow({"MRC vs 6 simulations",
                util::FormatDouble(
                    mrc_ms > 0.0 ? sweep_sim_ms / mrc_ms : 0.0, 1) +
                    "x"});
  PrintTable(ctx.options, "Micro: trace record / replay / MRC analytics", table,
             nullptr);
  return result;
}

}  // namespace voodb::bench
