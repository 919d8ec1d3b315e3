/// \file profiler.hpp
/// \brief Simulation-time profiler: where does simulated time go?
///
/// Hooks the `desp::Scheduler` dispatch path (one branch per event when
/// disabled — see `Scheduler::SetProfileHook`) and attributes every clock
/// advance to the profiling tag of the event that caused it, i.e. to the
/// actor that scheduled it (tags propagate to events scheduled from inside
/// an action, so a continuation chain stays attributed to its originator).
/// The result is a per-actor breakdown of simulated time and event counts,
/// plus an optional span timeline exportable as Chrome-trace JSON
/// (load it at chrome://tracing or https://ui.perfetto.dev).
///
/// One profiler can observe several schedulers at once — the partitions of
/// a `desp::ParallelScheduler` attach individually, each recording into its
/// own arrays, and the reports merge per-tag-name in deterministic name
/// order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "desp/scheduler.hpp"
#include "util/table.hpp"

namespace voodb::obs {

/// Per-actor attribution of scheduler dispatches.
class SimProfiler {
 public:
  /// \param capture_spans  also record one timeline span per clock advance
  ///                       (needed for Chrome-trace export; bounded memory)
  /// \param max_spans      per-attachment span-buffer cap; further spans are
  ///                       counted as dropped, aggregates stay exact
  explicit SimProfiler(bool capture_spans = false,
                       size_t max_spans = 1 << 20);

  /// Installs this profiler as `scheduler`'s profile hook.  May be called
  /// once per partition; each attachment records independently (safe under
  /// the parallel kernel's one-thread-per-partition windows).  `name`
  /// labels the partition in the Chrome trace; empty is fine for
  /// single-scheduler use.  The profiler must outlive the attachments; the
  /// schedulers must outlive the profiler's report calls (tag names live
  /// in the scheduler).
  void Attach(desp::Scheduler* scheduler, std::string name = std::string());

  /// Removes the hook from every attached scheduler (safe if never
  /// attached).  Recorded data is kept.
  void Detach();

  struct TagStat {
    std::string name;
    uint64_t events = 0;      ///< dispatches attributed to this tag
    double sim_time = 0.0;    ///< simulated time advanced by those events
  };

  /// Per-tag breakdown merged across every attached scheduler by tag
  /// name, sorted by ascending name — a deterministic order whatever the
  /// partition count; tags that never fired are omitted.
  std::vector<TagStat> Stats() const;

  uint64_t total_events() const;
  double total_sim_time() const;
  uint64_t dropped_spans() const;

  /// Renders Stats() as an aligned text table with share-of-total columns.
  util::TextTable Table() const;

  /// Chrome-trace ("Trace Event Format") JSON of the captured spans: one
  /// "X" duration event per clock advance on a per-tag track, plus
  /// thread-name metadata.  Each attached scheduler becomes its own pid
  /// (partition name in the process_name metadata when given).  Timestamps
  /// are simulated milliseconds emitted as microseconds so the viewer's
  /// units read naturally.
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`.
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    double start = 0.0;
    double duration = 0.0;
    uint16_t tag = 0;
  };

  /// One attached scheduler's private accumulation state.  Stable address
  /// (unique_ptr) because the scheduler holds it as hook context.
  struct Attachment {
    desp::Scheduler* scheduler = nullptr;
    std::string name;
    const SimProfiler* owner = nullptr;
    std::vector<uint64_t> events;   ///< indexed by tag
    std::vector<double> sim_time;   ///< indexed by tag
    uint64_t total_events = 0;
    double total_sim_time = 0.0;
    uint64_t dropped_spans = 0;
    std::vector<Span> spans;
  };

  static void Hook(void* ctx, uint16_t tag, desp::SimTime now,
                   desp::SimTime advance);

  std::vector<std::unique_ptr<Attachment>> attachments_;
  bool capture_spans_;
  size_t max_spans_;
};

}  // namespace voodb::obs
