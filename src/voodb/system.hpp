/// \file system.hpp
/// \brief VoodbSystem — one instantiated VOODB evaluation model.
///
/// Wires the active resources of the knowledge model (Fig. 4) over one
/// OCB object base:
///
///   Users -> Transaction Manager -> Object Manager -> Buffering Manager
///         -> I/O Subsystem, with the Clustering Manager observing every
///   object operation and the network crossing client/server boundaries
///   for the Client-Server system classes.
///
/// The system persists across workload phases, which is how the DSTC
/// experiments run: usage phase, external clustering trigger, usage phase
/// again on the reorganized base (paper §4.4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/policy.hpp"
#include "desp/random.hpp"
#include "desp/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/spans.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "ocb/ycsb.hpp"
#include "trace/recorder.hpp"
#include "trace/workload.hpp"
#include "trace/writer.hpp"
#include "voodb/buffering_manager.hpp"
#include "voodb/clustering_manager.hpp"
#include "voodb/config.hpp"
#include "voodb/failure_injector.hpp"
#include "voodb/io_subsystem.hpp"
#include "voodb/metrics.hpp"
#include "voodb/network.hpp"
#include "voodb/object_manager.hpp"
#include "voodb/transaction_manager.hpp"

namespace voodb::core {

/// A fully wired instance of the generic evaluation model.
class VoodbSystem {
 public:
  /// \param config     Table 3 parameters (validated here; `shards` must
  ///                   be 1 — `ShardedVoodb` runs more than one)
  /// \param base       the OCB object base (not owned; must outlive us)
  /// \param policy     CLUSTP module (nullptr = None)
  /// \param seed       replication seed (drives RANDOM replacement, think
  ///                   times, and any other stochastic system behaviour)
  /// \param scheduler  event scheduler to ride on (not owned; must outlive
  ///                   us).  Null — the default — makes the system own a
  ///                   private serial scheduler.  A `ShardedVoodb` passes
  ///                   one partition of its `desp::ParallelScheduler` so N
  ///                   independent stacks advance under the conservative
  ///                   window protocol.
  /// \param trace_global_id_base  OR-ed onto transaction ids to form
  ///                   cross-shard-unique trace identities (shard << 48);
  ///                   0 for the ordinary single-server model.
  VoodbSystem(VoodbConfig config, const ocb::ObjectBase* base,
              std::unique_ptr<cluster::ClusteringPolicy> policy,
              uint64_t seed, desp::Scheduler* scheduler = nullptr,
              uint64_t trace_global_id_base = 0);

  /// Finalizes an in-progress access trace (see FinishTrace).
  ~VoodbSystem();

  /// Runs `n` transactions drawn from `workload` across NUSERS users and
  /// returns this phase's metrics.  Reusable: state (buffer contents,
  /// clustering statistics, placement) carries over between calls.
  /// With `workload_source = trace` the system replays its recorded
  /// trace instead and `workload` is ignored.
  PhaseMetrics RunTransactions(ocb::WorkloadSource& workload, uint64_t n);

  /// Same, but every transaction is of the forced kind (the DSTC
  /// experiments run pure depth-3 hierarchy traversals).
  PhaseMetrics RunTransactionsOfKind(ocb::WorkloadSource& workload,
                                     ocb::TransactionKind kind, uint64_t n);

  /// Flushes and finalizes the access trace (no-op unless trace_record);
  /// called automatically on destruction.  The trace header receives the
  /// buffering layer's counters so replays can verify bit-exact
  /// reproduction.
  void FinishTrace();

  /// External clustering trigger (knowledge model: "Clustering Demand"
  /// from the Users).  Blocks until the reorganization I/O completes.
  ClusteringMetrics TriggerClustering();

  /// Empties the page buffer (cold restart between phases).
  void DropBuffer() { buffering_->Drop(); }

  /// Writes the Chrome-trace timeline to `profile_path` (no-op unless a
  /// profile path is configured); called automatically on destruction.
  void FinishProfile();

  // --- component access (benches, tests) -----------------------------------
  const VoodbConfig& config() const { return config_; }
  desp::Scheduler& scheduler() { return *scheduler_; }
  ObjectManagerActor& object_manager() { return *object_manager_; }
  BufferingManagerActor& buffering_manager() { return *buffering_; }
  ClusteringManagerActor& clustering_manager() { return *clustering_; }
  TransactionManagerActor& transaction_manager() { return *tm_; }
  IoSubsystemActor& io_subsystem() { return *io_; }
  NetworkActor& network() { return *network_; }
  /// The hazard process (nullptr unless failure_mtbf_ms > 0).
  FailureInjectorActor* failure_injector() { return failures_.get(); }

  // --- observability --------------------------------------------------------
  /// Every actor's counters/gauges/histograms, registered at construction
  /// (zero overhead on the actors' update paths — see obs::MetricRegistry).
  const obs::MetricRegistry& metric_registry() const { return metrics_; }
  /// The simulation-time profiler (nullptr unless `observe` or a
  /// `profile_path` is configured).
  obs::SimProfiler* profiler() { return profiler_.get(); }
  /// The causal span tracer (nullptr unless `trace_spans`); exemplars and
  /// component histograms for `voodb explain` and the sweep tables.
  obs::SpanTracer* span_tracer() { return tracer_.get(); }
  const obs::SpanTracer* span_tracer() const { return tracer_.get(); }

  // --- phases run by an outside kernel (ShardedVoodb) ----------------------
  /// Runs when a user's transaction has committed, before the user goes
  /// on.  Returns false to let the user continue at once, or true after
  /// taking the user over, promising one later `ResumeUser(user)`.
  using AfterCommit = std::function<bool(uint32_t user)>;

  /// Starts a phase of `n` transactions drawn from `workload` whose events
  /// the caller's kernel runs: min(NUSERS, n) users start on this
  /// system's scheduler, their think times drawn from `think_rng`, and
  /// `after_commit` (may be empty) runs at every commit.  The scheduler is
  /// never stopped; the phase is over once it drains.
  void StartPhase(ocb::WorkloadSource& workload, uint64_t n,
                  desp::RandomStream think_rng, AfterCommit after_commit) {
    StartUsers(workload, nullptr, n, think_rng, std::move(after_commit),
               /*stop_on_drain=*/false);
  }
  /// Lets `user` go on after `after_commit` took it over.
  void ResumeUser(uint32_t user);
  /// Ends the phase started last: every transaction must have finished.
  PhaseMetrics EndPhase();

 private:
  /// Counter snapshot for computing phase deltas.  `Take` starts a phase:
  /// the Transaction Manager's phase maximum restarts, and `Delta`
  /// reports it.
  struct Snapshot {
    uint64_t ios = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t hits = 0;
    uint64_t requests = 0;
    uint64_t committed = 0;
    uint64_t operations = 0;
    uint64_t restarts = 0;
    uint64_t net_bytes = 0;
    uint64_t response_count = 0;
    double response_sum = 0.0;
    double time = 0.0;
    desp::LogHistogram response_histogram;
    desp::LogHistogram lock_wait_histogram;
    desp::LogHistogram disk_service_histogram;
    obs::ComponentHistograms component_histograms;
  };

  /// The Users active resource (knowledge model, Fig. 4) of the running
  /// phase: each user draws a transaction, thinks, submits it, and after
  /// its commit (and `after_commit`) repeats until `to_issue` runs out.
  struct Users {
    ocb::WorkloadSource* workload = nullptr;
    const ocb::TransactionKind* forced_kind = nullptr;
    uint64_t to_issue = 0;
    uint64_t outstanding = 0;  ///< issued, not yet resumed
    desp::RandomStream think_rng;
    AfterCommit after_commit;
    /// Stop the scheduler once the last transaction finishes, even if
    /// hazard events are still armed on it.
    bool stop_on_drain = false;
  };

  PhaseMetrics Drive(ocb::WorkloadSource& workload,
                     const ocb::TransactionKind* forced_kind, uint64_t n);
  /// Takes the phase's starting counters and starts its users.
  void StartUsers(ocb::WorkloadSource& workload,
                  const ocb::TransactionKind* forced_kind, uint64_t n,
                  desp::RandomStream think_rng, AfterCommit after_commit,
                  bool stop_on_drain);
  void UserLoop(uint32_t user);
  void OnCommit(uint32_t user);
  Snapshot Take();
  PhaseMetrics Delta(const Snapshot& before) const;
  /// The counters now, without starting a phase.
  Snapshot Read() const;
  /// Builds the metric registry from every actor's cells.
  void RegisterMetrics();

  VoodbConfig config_;
  const ocb::ObjectBase* base_;
  std::unique_ptr<desp::Scheduler> owned_scheduler_;  ///< null if external
  desp::Scheduler* scheduler_;
  desp::RandomStream rng_;
  std::unique_ptr<ObjectManagerActor> object_manager_;
  std::unique_ptr<IoSubsystemActor> io_;
  std::unique_ptr<NetworkActor> network_;
  std::unique_ptr<BufferingManagerActor> buffering_;
  std::unique_ptr<ClusteringManagerActor> clustering_;
  std::unique_ptr<TransactionManagerActor> tm_;
  std::unique_ptr<FailureInjectorActor> failures_;
  Users users_;
  /// The running phase's starting counters (empty between phases).
  std::optional<Snapshot> phase_start_;
  /// One transaction buffer per user, kept across phases: a user's next
  /// transaction is generated into it while the previous one's buffer
  /// circulates through the Transaction Manager's in-flight pool.
  std::vector<ocb::Transaction> user_txns_;

  // --- observability (obs subsystem) ----------------------------------------
  obs::MetricRegistry metrics_;
  std::unique_ptr<obs::SimProfiler> profiler_;
  std::unique_ptr<obs::SpanTracer> tracer_;
  bool profile_written_ = false;

  // --- access tracing (trace subsystem) -------------------------------------
  std::unique_ptr<trace::Writer> trace_writer_;      ///< trace_record
  std::unique_ptr<trace::Recorder> trace_recorder_;  ///< trace_record
  std::unique_ptr<trace::TraceWorkload> trace_workload_;  ///< source=trace
  std::unique_ptr<ocb::YcsbZipfWorkload> ycsb_workload_;  ///< source=ycsb_zipf
};

}  // namespace voodb::core
