#include "voodb/io_subsystem.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "util/check.hpp"

namespace voodb::core {

IoSubsystemActor::IoSubsystemActor(desp::Scheduler* scheduler,
                                   storage::DiskParameters disk_params)
    : Actor(scheduler, "io-subsystem"),
      disk_(scheduler, "disk", /*capacity=*/1),
      disk_model_(disk_params) {}

void IoSubsystemActor::Execute(const std::vector<storage::PageIo>& ios,
                               desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(static_cast<bool>(done), "Execute needs a continuation");
  if (ios.empty()) {
    done();
    return;
  }
  const uint32_t batch = batches_.Alloc();
  Batch& b = batches_[batch];
  for (const storage::PageIo& io : ios) ios_.PushBack(b.ios, io);
  b.done = std::move(done);
  ExecuteNext(batch);
}

void IoSubsystemActor::ExecuteNext(uint32_t batch) {
  Batch& b = batches_[batch];
  if (b.ios.empty()) {
    desp::Scheduler::Action done = std::move(b.done);
    batches_.Free(batch);
    done();
    return;
  }
  const double requested_at = Now();
  disk_.Acquire(
      [this, batch, requested_at]() { StartIo(batch, requested_at); });
}

void IoSubsystemActor::StartIo(uint32_t batch, double requested_at) {
  const storage::PageIo io = ios_.Front(batches_[batch].ios);
  // Service time is computed at grant time so the head position
  // reflects the actual execution order under contention.
  const double service = disk_model_.IoTime(io) + FaultPenalty();
  service_histogram_.Add(service);
  if (tracer_ != nullptr) {
    // The grant runs in the requester's trace context (the resource
    // restores it), so the leaf lands on the right transaction.
    tracer_->AmbientLeaf(obs::SpanKind::kIo, io.page, requested_at,
                         Now() + service);
  }
  CallIn(service, &IoSubsystemActor::FinishIo, batch);
}

void IoSubsystemActor::FinishIo(uint32_t batch) {
  disk_.Release();
  ios_.PopFront(batches_[batch].ios);
  ExecuteNext(batch);
}

void IoSubsystemActor::Seize(double duration_ms,
                             desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(duration_ms >= 0.0, "seize duration must be >= 0");
  disk_.AcquireFor(duration_ms, std::move(done));
}

void IoSubsystemActor::SetFaultModel(double fault_prob,
                                     double retry_penalty_ms,
                                     uint32_t max_retries,
                                     desp::RandomStream rng) {
  VOODB_CHECK_MSG(fault_prob >= 0.0 && fault_prob < 1.0,
                  "fault probability must lie in [0, 1)");
  VOODB_CHECK_MSG(retry_penalty_ms >= 0.0, "retry penalty must be >= 0");
  faults_enabled_ = fault_prob > 0.0;
  fault_prob_ = fault_prob;
  retry_penalty_ms_ = retry_penalty_ms;
  max_retries_ = max_retries;
  fault_rng_ = rng;
}

double IoSubsystemActor::FaultPenalty() {
  if (!faults_enabled_) return 0.0;
  double penalty = 0.0;
  for (uint32_t attempt = 0; attempt < max_retries_; ++attempt) {
    if (!fault_rng_.Bernoulli(fault_prob_)) break;
    ++transient_faults_;
    penalty += retry_penalty_ms_;
  }
  return penalty;
}

void IoSubsystemActor::RegisterMetrics(obs::MetricRegistry& registry) const {
  registry.RegisterCounter("io.reads", disk_model_.reads_cell());
  registry.RegisterCounter("io.writes", disk_model_.writes_cell());
  registry.RegisterCounter("io.sequential_hits",
                           disk_model_.sequential_hits_cell());
  registry.RegisterCounter("io.transient_faults", &transient_faults_);
  registry.RegisterHistogram("io.service_ms", &service_histogram_);
  registry.RegisterGauge("io.disk_utilization",
                         [this] { return DiskUtilization(); });
}

}  // namespace voodb::core
