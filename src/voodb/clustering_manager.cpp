#include "voodb/clustering_manager.hpp"

#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace voodb::core {

ClusteringManagerActor::ClusteringManagerActor(
    desp::Scheduler* scheduler,
    std::unique_ptr<cluster::ClusteringPolicy> policy,
    ObjectManagerActor* object_manager, BufferingManagerActor* buffering,
    IoSubsystemActor* io)
    : Actor(scheduler, "clustering-manager"),
      policy_(std::move(policy)),
      object_manager_(object_manager),
      buffering_(buffering),
      io_(io) {
  if (policy_ == nullptr) {
    policy_ = std::make_unique<cluster::NoClustering>();
  }
}

bool ClusteringManagerActor::enabled() const {
  return std::string_view(policy_->name()) != "NONE";
}

void ClusteringManagerActor::OnTransactionStart() {
  policy_->OnTransactionStart();
}

void ClusteringManagerActor::OnObjectAccess(ocb::Oid oid, bool is_write) {
  policy_->OnObjectAccess(oid, is_write);
}

void ClusteringManagerActor::OnTransactionEnd() { policy_->OnTransactionEnd(); }

bool ClusteringManagerActor::ShouldTrigger() const {
  return policy_->ShouldTrigger();
}

void ClusteringManagerActor::PerformClustering(desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(static_cast<bool>(done), "needs a continuation");
  const double started = Now();
  cluster::ClusteringOutcome outcome = policy_->Recluster(
      object_manager_->base(), object_manager_->placement());
  last_metrics_ = ClusteringMetrics{outcome.reorganized, outcome.NumClusters(),
                                    outcome.MeanClusterSize()};
  if (!outcome.reorganized) {
    done();
    return;
  }

  const ObjectManagerActor::RelocationIo relocation =
      object_manager_->ApplyRelocation(outcome.moved_objects);
  std::vector<storage::PageIo> ios;
  ios.reserve(relocation.pages_to_read.size() +
              relocation.pages_to_write.size());
  for (storage::PageId page : relocation.pages_to_read) {
    // Source pages already buffered need no physical read; the hot pages
    // being clustered usually are (this is why the simulated overhead is
    // small even before the logical/physical OID asymmetry).
    if (buffering_->Contains(page)) continue;
    ios.push_back(storage::PageIo{storage::PageIo::Kind::kRead, page});
  }
  for (storage::PageId page : relocation.pages_to_write) {
    ios.push_back(storage::PageIo{storage::PageIo::Kind::kWrite, page});
  }
  // The buffer's view of relocated objects is stale; drop it so the next
  // phase starts from disk, exactly like a post-reorganization restart.
  buffering_->Drop();

  last_metrics_.overhead_ios = ios.size();
  total_overhead_ios_ += ios.size();
  ++reorganizations_;
  // `done` waits in a slot: bound beside `this` and `started` it would
  // outgrow the continuation's inline buffer.
  const uint32_t slot = parked_.Alloc();
  parked_[slot] = std::move(done);
  io_->Execute(ios, [this, slot, started] {
    last_metrics_.duration_ms = Now() - started;
    desp::Scheduler::Action resume = std::move(parked_[slot]);
    parked_.Free(slot);
    resume();
  });
}


void ClusteringManagerActor::RegisterMetrics(
    obs::MetricRegistry& registry) const {
  registry.RegisterCounter("cluster.overhead_ios", &total_overhead_ios_);
  registry.RegisterCounter("cluster.reorganizations", &reorganizations_);
}

}  // namespace voodb::core
