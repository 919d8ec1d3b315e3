#include "emu/texas_emulator.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace voodb::emu {

uint64_t TexasConfig::FramesForMemory(double memory_mb, uint32_t page_size) {
  VOODB_CHECK_MSG(memory_mb > 0.0, "memory must be positive");
  const double frames =
      memory_mb * 1024.0 * 1024.0 * 0.8 / static_cast<double>(page_size);
  return frames < 16.0 ? 16 : static_cast<uint64_t>(frames);
}

TexasEmulator::TexasEmulator(TexasConfig config, const ocb::ObjectBase* base,
                             uint64_t /*seed*/)
    : config_(config), base_(base) {
  VOODB_CHECK_MSG(base_ != nullptr, "emulator needs an object base");
  placement_ = std::make_unique<storage::Placement>(storage::Placement::Build(
      *base, config_.page_size, config_.placement, config_.storage_overhead));
  RebuildAdjacency();
  storage::VmParameters vm_params;
  vm_params.memory_pages = config_.memory_pages;
  vm_params.dirty_on_load = config_.dirty_on_load;
  vm_params.reservations_enter_hot = config_.reservations_enter_hot;
  vm_ = std::make_unique<storage::VirtualMemoryModel>(vm_params);
}

void TexasEmulator::SetClusteringPolicy(
    std::unique_ptr<cluster::ClusteringPolicy> policy) {
  policy_ = std::move(policy);
}

core::PhaseMetrics TexasEmulator::RunTransactions(
    ocb::WorkloadSource& workload, uint64_t n) {
  return Drive(workload, nullptr, n);
}

core::PhaseMetrics TexasEmulator::RunTransactionsOfKind(
    ocb::WorkloadSource& workload, ocb::TransactionKind kind, uint64_t n) {
  return Drive(workload, &kind, n);
}

core::PhaseMetrics TexasEmulator::Drive(ocb::WorkloadSource& workload,
                                        const ocb::TransactionKind* forced,
                                        uint64_t n) {
  const storage::VmStats before = vm_->stats();
  const uint64_t reads_before = reads_;
  const uint64_t writes_before = writes_;
  const uint64_t accesses_before = accesses_;
  core::PhaseMetrics m;
  ocb::Transaction txn;  // one buffer, refilled per transaction
  for (uint64_t i = 0; i < n; ++i) {
    workload.NextInto(txn, forced);
    if (recorder_ != nullptr) {
      recorder_->OnTxnBegin(static_cast<uint64_t>(txn.kind));
    }
    if (policy_ != nullptr) policy_->OnTransactionStart();
    for (const ocb::ObjectAccess& access : txn.accesses) {
      if (policy_ != nullptr) policy_->OnObjectAccess(access.oid,
                                                      access.is_write);
      AccessObject(access.oid, access.is_write);
    }
    if (policy_ != nullptr) policy_->OnTransactionEnd();
    if (recorder_ != nullptr) recorder_->OnTxnEnd();
    ++m.transactions;
  }
  const storage::VmStats after = vm_->stats();
  m.object_accesses = accesses_ - accesses_before;
  m.reads = reads_ - reads_before;
  m.writes = writes_ - writes_before;
  m.total_ios = m.reads + m.writes;
  m.buffer_hits = after.soft_hits - before.soft_hits;
  m.buffer_requests = after.touches - before.touches;
  return m;
}

void TexasEmulator::CountIos() {
  for (const storage::PageIo& io : ios_) {
    if (io.kind == storage::PageIo::Kind::kRead) {
      ++reads_;
    } else {
      ++writes_;
    }
  }
}

void TexasEmulator::AccessObject(ocb::Oid oid, bool write) {
  ++accesses_;
  if (recorder_ != nullptr) recorder_->OnObject(oid, write);
  // Flat span-array lookup (Oid -> pages without the checked accessor).
  const storage::PageSpan span = placement_->spans()[oid];
  for (uint32_t i = 0; i < span.count; ++i) {
    const storage::PageId page = span.first + i;
    if (recorder_ != nullptr) recorder_->OnPage(page, write);
    ios_.clear();
    const bool hit = vm_->TouchInto(page, write, ios_);
    if (!hit && config_.reserve_references) {
      // The fault swizzled every pointer in the page: frames are
      // reserved for all pages referenced from it.
      for (storage::PageId ref : adjacency_.RowOf(page)) {
        vm_->ReserveInto(ref, ios_);
      }
    }
    CountIos();
  }
}

TexasClusteringMetrics TexasEmulator::PerformClustering() {
  VOODB_CHECK_MSG(policy_ != nullptr, "no clustering policy installed");
  TexasClusteringMetrics metrics;
  cluster::ClusteringOutcome outcome =
      policy_->Recluster(*base_, *placement_);
  metrics.reorganized = outcome.reorganized;
  metrics.num_clusters = outcome.NumClusters();
  metrics.mean_cluster_size = outcome.MeanClusterSize();
  if (!outcome.reorganized) return metrics;

  // Mark moved objects (their physical OIDs change).
  std::vector<char> moved(base_->NumObjects(), 0);
  for (ocb::Oid oid : outcome.moved_objects) moved[oid] = 1;

  const uint64_t pages_before = placement_->NumPages();

  // Physical-OID consistency: the whole database is scanned and every
  // reference toward a moved object is updated (paper §4.4).  Under
  // Texas the scan itself loads pages through the swizzling fault
  // handler, which dirties them, so every scanned page is written back;
  // without dirty-on-load only the pages actually holding a patched
  // reference (or losing a moved object) are rewritten.
  for (storage::PageId page = 0; page < pages_before; ++page) {
    ++metrics.scan_reads;
    bool must_patch = config_.dirty_on_load;
    for (ocb::Oid oid : placement_->ObjectsOn(page)) {
      if (must_patch) break;
      if (moved[oid]) {
        must_patch = true;  // the page loses an object: slot map rewritten
        break;
      }
      for (ocb::Oid ref : base_->References(oid)) {
        if (ref != ocb::kNullOid && moved[ref]) {
          must_patch = true;
          break;
        }
      }
    }
    if (must_patch) ++metrics.patch_writes;
  }

  // Relocate the cluster fragments into fresh pages and write them.
  placement_ = std::make_unique<storage::Placement>(
      storage::Placement::RelocateToTail(*placement_, *base_,
                                         outcome.moved_objects,
                                         config_.storage_overhead));
  metrics.cluster_writes = placement_->NumPages() - pages_before;
  metrics.overhead_ios =
      metrics.scan_reads + metrics.patch_writes + metrics.cluster_writes;
  reads_ += metrics.scan_reads;
  writes_ += metrics.patch_writes + metrics.cluster_writes;

  // The page space changed: re-point adjacency and restart the mapping.
  RebuildAdjacency();
  vm_->DropAll();
  return metrics;
}

void TexasEmulator::RebuildAdjacency() {
  adjacency_.Rebuild(*base_, *placement_);
}


void TexasEmulator::RegisterMetrics(obs::MetricRegistry& registry) const {
  registry.RegisterCounter("emu.reads", &reads_);
  registry.RegisterCounter("emu.writes", &writes_);
  registry.RegisterCounter("emu.accesses", &accesses_);
}

}  // namespace voodb::emu
