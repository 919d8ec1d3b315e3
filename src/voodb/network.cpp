#include "voodb/network.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "util/check.hpp"

namespace voodb::core {

NetworkActor::NetworkActor(desp::Scheduler* scheduler, double throughput_mbps)
    : Actor(scheduler, "network"),
      link_(scheduler, "network-link", /*capacity=*/1),
      throughput_mbps_(throughput_mbps) {}

double NetworkActor::TransferTime(uint64_t bytes) const {
  if (infinite()) return 0.0;
  // MB/s -> bytes/ms: 1 MB/s = 1e6 B / 1e3 ms = 1000 B/ms.
  return static_cast<double>(bytes) / (throughput_mbps_ * 1000.0);
}

void NetworkActor::Transfer(uint64_t bytes, desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(static_cast<bool>(done), "Transfer needs a continuation");
  bytes_transferred_ += bytes;
  if (infinite()) {
    done();
    return;
  }
  const uint32_t slot = transfers_.Alloc();
  transfers_[slot] = Pending{std::move(done), bytes, Now()};
  link_.AcquireFor(TransferTime(bytes),
                   [this, slot]() { FinishTransfer(slot); });
}

void NetworkActor::FinishTransfer(uint32_t slot) {
  Pending t = std::move(transfers_[slot]);
  transfers_.Free(slot);
  if (tracer_ != nullptr) {
    // Runs in the requester's trace context (resource grants restore it;
    // the service wait inherits).
    tracer_->AmbientLeaf(obs::SpanKind::kNet, t.bytes, t.requested_at, Now());
  }
  t.done();
}


void NetworkActor::RegisterMetrics(obs::MetricRegistry& registry) const {
  registry.RegisterCounter("net.bytes", &bytes_transferred_);
  registry.RegisterGauge("net.utilization",
                         [this] { return link_.Utilization(); });
}

}  // namespace voodb::core
