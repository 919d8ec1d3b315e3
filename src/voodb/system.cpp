#include "voodb/system.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace voodb::core {

VoodbSystem::VoodbSystem(VoodbConfig config, const ocb::ObjectBase* base,
                         std::unique_ptr<cluster::ClusteringPolicy> policy,
                         uint64_t seed, desp::Scheduler* scheduler,
                         uint64_t trace_global_id_base)
    : config_(config),
      base_(base),
      owned_scheduler_(scheduler == nullptr
                           ? std::make_unique<desp::Scheduler>()
                           : nullptr),
      scheduler_(scheduler == nullptr ? owned_scheduler_.get() : scheduler),
      rng_(seed) {
  config_.Validate();
  VOODB_CHECK_MSG(config_.shards == 1,
                  "parameter 'shards' is " << config_.shards
                      << " but VoodbSystem simulates one unsharded server; "
                         "run shards > 1 through core::ShardedVoodb (as "
                         "`voodb explain` does)");
  VOODB_CHECK_MSG(base_ != nullptr, "system needs an object base");
  // Derived once: seeds the Buffering Manager's stream AND, when
  // recording, the trace header — bit-exact replay of the RANDOM policy
  // depends on the two staying the same stream.
  const desp::RandomStream buffer_rng = rng_.Derive(0xB0FF);
  object_manager_ = std::make_unique<ObjectManagerActor>(
      scheduler_, base_, config_.page_size, config_.initial_placement,
      config_.storage_overhead);
  io_ = std::make_unique<IoSubsystemActor>(scheduler_, config_.disk);
  network_ = std::make_unique<NetworkActor>(scheduler_,
                                            config_.network_throughput_mbps);
  buffering_ = std::make_unique<BufferingManagerActor>(
      scheduler_, config_, object_manager_.get(), io_.get(), buffer_rng);
  clustering_ = std::make_unique<ClusteringManagerActor>(
      scheduler_, std::move(policy), object_manager_.get(), buffering_.get(),
      io_.get());
  tm_ = std::make_unique<TransactionManagerActor>(
      scheduler_, config_, object_manager_.get(), buffering_.get(),
      clustering_.get(), network_.get());
  if (config_.trace_spans) {
    obs::SpanTracer::Options topts;
    topts.sample_seed = seed;
    topts.sample_rate = config_.trace_sample_rate;
    topts.exemplars = config_.trace_exemplars;
    topts.global_id_base = trace_global_id_base;
    tracer_ = std::make_unique<obs::SpanTracer>(scheduler_, topts);
    // At most MULTILVL transactions are admitted (and thus traced) at
    // once; pre-size the trace slots so steady-state tracing never
    // allocates.
    tracer_->Reserve(config_.multiprogramming_level + 4);
    tm_->SetTracer(tracer_.get());
    io_->SetTracer(tracer_.get());
    network_->SetTracer(tracer_.get());
  }
  // Pre-size the kernel for the steady-state event population so
  // contention-scale runs never reallocate on the schedule/fire hot
  // path: each user keeps a few events pending (think timer, submit
  // continuation, I/O completion, hazard timeout) and each pooled
  // inflight transaction can hold a same-timestamp cc decision
  // continuation.
  scheduler_->Reserve(static_cast<size_t>(config_.num_users) * 4 +
                      tm_->inflight_pool_capacity() * 2 + 64);
  if (config_.disk_fault_prob > 0.0) {
    io_->SetFaultModel(config_.disk_fault_prob, config_.disk_fault_retry_ms,
                       config_.disk_fault_max_retries, rng_.Derive(0xFA17));
  }
  if (config_.failure_mtbf_ms > 0.0) {
    FailureParameters fp;
    fp.mtbf_ms = config_.failure_mtbf_ms;
    fp.recovery_base_ms = config_.recovery_base_ms;
    fp.recovery_per_dirty_page_ms = config_.recovery_per_dirty_page_ms;
    failures_ = std::make_unique<FailureInjectorActor>(
        scheduler_, fp, buffering_.get(), io_.get(), rng_.Derive(0xC7A5));
    failures_->Arm();
  }
  if (config_.workload_source == WorkloadSourceKind::kTrace) {
    trace_workload_ =
        std::make_unique<trace::TraceWorkload>(config_.trace_path);
  }
  if (config_.workload_source == WorkloadSourceKind::kYcsbZipf) {
    // Seeded from the replication stream like the buffer RNG, so every
    // replication draws an independent but reproducible key sequence.
    ycsb_workload_ = std::make_unique<ocb::YcsbZipfWorkload>(
        base_, rng_.Derive(0x59C5B));
  }
  if (config_.trace_record) {
    trace::Header header;
    header.page_size = config_.page_size;
    header.buffer_pages = config_.buffer_pages;
    header.replacement_policy =
        static_cast<uint8_t>(config_.page_replacement);
    header.prefetch_policy = static_cast<uint8_t>(config_.prefetch);
    header.lru_k = config_.lru_k;
    header.prefetch_depth = config_.prefetch_depth;
    header.num_classes = base_->params().num_classes;
    header.num_objects = base_->NumObjects();
    header.num_pages = object_manager_->NumPages();
    // The exact stream the buffer manager's RANDOM policy was seeded
    // with, so replays are bit-exact.
    header.seed = buffer_rng.seed();
    if (config_.use_virtual_memory) header.flags |= trace::kFlagVirtualMemory;
    if (config_.flush_on_commit) header.flags |= trace::kFlagCommitFlush;
    if (config_.failure_mtbf_ms > 0.0) {
      header.flags |= trace::kFlagCrashHazard;
    }
    trace_writer_ =
        std::make_unique<trace::Writer>(config_.trace_path, header);
    trace_recorder_ = std::make_unique<trace::Recorder>(trace_writer_.get());
    buffering_->SetRecorder(trace_recorder_.get());
    object_manager_->SetRecorder(trace_recorder_.get());
    tm_->SetRecorder(trace_recorder_.get());
  }
  RegisterMetrics();
  if (config_.observe || !config_.profile_path.empty()) {
    // Span capture (for the Chrome trace) only when a path asks for it:
    // the aggregate per-actor totals alone need no per-event storage.
    profiler_ = std::make_unique<obs::SimProfiler>(
        /*capture_spans=*/!config_.profile_path.empty());
    profiler_->Attach(scheduler_);
  }
}

VoodbSystem::~VoodbSystem() {
  FinishTrace();
  FinishProfile();
}

void VoodbSystem::FinishProfile() {
  if (profiler_ == nullptr || config_.profile_path.empty()) return;
  if (profile_written_) return;
  profile_written_ = true;
  profiler_->WriteChromeTrace(config_.profile_path);
}

void VoodbSystem::RegisterMetrics() {
  tm_->RegisterMetrics(metrics_);  // also registers the cc protocol
  buffering_->RegisterMetrics(metrics_);
  object_manager_->RegisterMetrics(metrics_);
  clustering_->RegisterMetrics(metrics_);
  io_->RegisterMetrics(metrics_);
  network_->RegisterMetrics(metrics_);
  metrics_.RegisterGauge("sim.now_ms", [this] { return scheduler_->Now(); });
  metrics_.RegisterGauge("sim.executed_events", [this] {
    return static_cast<double>(scheduler_->ExecutedEvents());
  });
  // Kernel event-list counters: the scheduler already increments these
  // cells on its hot path, so registering pointers costs nothing.  Note
  // the heap/lane split is a per-scheduler performance detail — sharded
  // runs route differently than serial ones — so identity checks compare
  // simulation state (digests, actor metrics), never sim.queue.*.
  const desp::QueueStats& qs = scheduler_->queue_stats();
  metrics_.RegisterCounter("sim.queue.heap_pushes", &qs.heap_pushes);
  metrics_.RegisterCounter("sim.queue.heap_pops", &qs.heap_pops);
  metrics_.RegisterCounter("sim.queue.lane_pushes", &qs.lane_pushes);
  metrics_.RegisterCounter("sim.queue.lane_pops", &qs.lane_pops);
  metrics_.RegisterCounter("sim.queue.skims", &qs.skims);
  metrics_.RegisterCounter("sim.queue.compactions", &qs.compactions);
}

void VoodbSystem::FinishTrace() {
  if (trace_writer_ == nullptr || trace_writer_->finished()) return;
  // Detach first: the system stays usable after the trace is finalized,
  // and a dangling recorder would throw (and overrun its chunk buffer)
  // on the next flush.
  buffering_->SetRecorder(nullptr);
  object_manager_->SetRecorder(nullptr);
  tm_->SetRecorder(nullptr);
  trace_recorder_->Flush();
  if (buffering_->DroppedWhileRecording()) {
    trace_writer_->AddFlags(trace::kFlagBufferDrop);
  }
  trace_writer_->Finish(buffering_->TraceCountersNow());
}

PhaseMetrics VoodbSystem::RunTransactions(ocb::WorkloadSource& workload,
                                          uint64_t n) {
  return Drive(workload, nullptr, n);
}

PhaseMetrics VoodbSystem::RunTransactionsOfKind(ocb::WorkloadSource& workload,
                                                ocb::TransactionKind kind,
                                                uint64_t n) {
  return Drive(workload, &kind, n);
}

PhaseMetrics VoodbSystem::Drive(ocb::WorkloadSource& external_workload,
                                const ocb::TransactionKind* forced_kind,
                                uint64_t n) {
  // workload_source = trace / ycsb_zipf substitutes the configured
  // stream for whatever generator the caller handed in; every scenario
  // gains trace replay and the YCSB axis without touching its run hook.
  ocb::WorkloadSource& workload =
      trace_workload_ != nullptr
          ? static_cast<ocb::WorkloadSource&>(*trace_workload_)
      : ycsb_workload_ != nullptr
          ? static_cast<ocb::WorkloadSource&>(*ycsb_workload_)
          : external_workload;
  StartUsers(workload, forced_kind, n, rng_.Derive(0x7817 + tm_->committed()),
             nullptr, /*stop_on_drain=*/true);
  if (n > 0) scheduler_->Run();
  return EndPhase();
}

void VoodbSystem::StartUsers(ocb::WorkloadSource& workload,
                             const ocb::TransactionKind* forced_kind,
                             uint64_t n, desp::RandomStream think_rng,
                             AfterCommit after_commit, bool stop_on_drain) {
  phase_start_.emplace(Take());
  users_ = Users{&workload, forced_kind, n, /*outstanding=*/0, think_rng,
                 std::move(after_commit), stop_on_drain};
  const uint32_t active_users =
      static_cast<uint32_t>(std::min<uint64_t>(config_.num_users, n));
  if (user_txns_.size() < active_users) user_txns_.resize(active_users);
  for (uint32_t u = 0; u < active_users; ++u) UserLoop(u);
}

void VoodbSystem::UserLoop(uint32_t user) {
  if (users_.to_issue == 0) {
    // Phase exhausted; the user retires.
    if (users_.outstanding == 0 && users_.stop_on_drain) scheduler_->Stop();
    return;
  }
  --users_.to_issue;
  ++users_.outstanding;
  // Each user generates into its own recycled Transaction, which Submit
  // swaps for the in-flight slot's cleared buffer.
  ocb::Transaction& txn = user_txns_[user];
  users_.workload->NextInto(txn, users_.forced_kind);
  // Transaction markers frame the object stream the Object Manager
  // records, carrying the issuing user's id (format v2) so concurrent
  // runs replay as per-user transaction streams.
  if (trace_recorder_ != nullptr) {
    trace_recorder_->OnTxnBegin(static_cast<uint64_t>(txn.kind), user);
  }
  auto submit = [this, user] {
    tm_->Submit(user_txns_[user], [this, user] { OnCommit(user); });
  };
  const double think_time_ms = base_->params().think_time_ms;
  if (think_time_ms > 0.0) {
    scheduler_->Schedule(users_.think_rng.Exponential(think_time_ms),
                         std::move(submit));
  } else {
    submit();
  }
}

void VoodbSystem::OnCommit(uint32_t user) {
  if (trace_recorder_ != nullptr) trace_recorder_->OnTxnEnd();
  if (users_.after_commit && users_.after_commit(user)) return;
  ResumeUser(user);
}

void VoodbSystem::ResumeUser(uint32_t user) {
  --users_.outstanding;
  // Automatic triggering happens at transaction boundaries.
  if (config_.auto_clustering && clustering_->ShouldTrigger()) {
    clustering_->PerformClustering([this, user] { UserLoop(user); });
    return;
  }
  UserLoop(user);
}

PhaseMetrics VoodbSystem::EndPhase() {
  VOODB_CHECK_MSG(phase_start_.has_value(), "no phase was started");
  VOODB_CHECK_MSG(users_.to_issue == 0 && users_.outstanding == 0,
                  "phase ended with unfinished work");
  const PhaseMetrics m = Delta(*phase_start_);
  phase_start_.reset();
  return m;
}

ClusteringMetrics VoodbSystem::TriggerClustering() {
  bool finished = false;
  clustering_->PerformClustering([&finished] { finished = true; });
  // Step (don't drain): armed hazard events may outlive the
  // reorganization.
  while (!finished && scheduler_->Step()) {
  }
  VOODB_CHECK_MSG(finished, "clustering did not complete");
  return clustering_->last_metrics();
}

VoodbSystem::Snapshot VoodbSystem::Take() {
  tm_->StartPhase();
  return Read();
}

VoodbSystem::Snapshot VoodbSystem::Read() const {
  Snapshot s;
  s.ios = io_->total_ios();
  s.reads = io_->reads();
  s.writes = io_->writes();
  s.hits = buffering_->hits();
  s.requests = buffering_->requests();
  s.committed = tm_->committed();
  s.operations = tm_->object_operations();
  s.restarts = tm_->restarts();
  s.net_bytes = network_->bytes_transferred();
  s.response_count = tm_->response_times().count();
  s.response_sum = tm_->response_times().sum();
  s.time = scheduler_->Now();
  s.response_histogram = tm_->response_histogram();
  if (tm_->cc_protocol() != nullptr) {
    s.lock_wait_histogram = tm_->cc_protocol()->stats().wait_histogram;
  }
  s.disk_service_histogram = io_->service_histogram();
  if (tracer_ != nullptr) s.component_histograms = tracer_->components();
  return s;
}

PhaseMetrics VoodbSystem::Delta(const Snapshot& before) const {
  const Snapshot after = Read();
  PhaseMetrics m;
  m.transactions = after.committed - before.committed;
  m.object_accesses = after.operations - before.operations;
  m.transaction_restarts = after.restarts - before.restarts;
  m.total_ios = after.ios - before.ios;
  m.reads = after.reads - before.reads;
  m.writes = after.writes - before.writes;
  m.buffer_hits = after.hits - before.hits;
  m.buffer_requests = after.requests - before.requests;
  m.network_bytes = after.net_bytes - before.net_bytes;
  m.sim_time_ms = after.time - before.time;
  const uint64_t responses = after.response_count - before.response_count;
  m.mean_response_ms =
      responses == 0
          ? 0.0
          : (after.response_sum - before.response_sum) /
                static_cast<double>(responses);
  m.response_histogram =
      after.response_histogram.DeltaSince(before.response_histogram);
  m.lock_wait_histogram =
      after.lock_wait_histogram.DeltaSince(before.lock_wait_histogram);
  m.disk_service_histogram =
      after.disk_service_histogram.DeltaSince(before.disk_service_histogram);
  m.component_histograms =
      after.component_histograms.DeltaSince(before.component_histograms);
  // The phase's own maximum: the delta histogram's tracked max carries
  // over the whole run (desp::LogHistogram::DeltaSince).
  m.max_response_ms = tm_->phase_max_response_ms();
  return m;
}

}  // namespace voodb::core
