#include "emu/o2_emulator.hpp"

#include "obs/metrics.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"

namespace voodb::emu {

O2Emulator::O2Emulator(O2Config config, const ocb::ObjectBase* base,
                       uint64_t seed)
    : config_(config),
      base_(base),
      placement_(storage::Placement::Build(*base, config.page_size,
                                           config.placement,
                                           config.storage_overhead)) {
  VOODB_CHECK_MSG(base_ != nullptr, "emulator needs an object base");
  cache_ = std::make_unique<storage::BufferManager>(
      config_.cache_pages, config_.replacement, desp::RandomStream(seed),
      /*lru_k=*/2, placement_.NumPages());
}

core::PhaseMetrics O2Emulator::RunTransactions(ocb::WorkloadSource& workload,
                                               uint64_t n) {
  return Drive(workload, nullptr, n);
}

core::PhaseMetrics O2Emulator::RunTransactionsOfKind(
    ocb::WorkloadSource& workload, ocb::TransactionKind kind, uint64_t n) {
  return Drive(workload, &kind, n);
}

void O2Emulator::SetRecorder(trace::Recorder* recorder) {
  recorder_ = recorder;
  cache_->SetRecorder(recorder);
}

trace::TraceCounters O2Emulator::TraceCountersNow() const {
  return trace::CountersFrom(cache_->stats());
}

core::PhaseMetrics O2Emulator::Drive(ocb::WorkloadSource& workload,
                                     const ocb::TransactionKind* forced,
                                     uint64_t n) {
  const storage::BufferStats before = cache_->stats();
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
    for (const ocb::ObjectAccess& access : txn.accesses) {
      AccessObject(access.oid, access.is_write);
    }
    if (recorder_ != nullptr) recorder_->OnTxnEnd();
    ++m.transactions;
  }
  const storage::BufferStats after = cache_->stats();
  m.object_accesses = accesses_ - accesses_before;
  m.reads = reads_ - reads_before;
  m.writes = writes_ - writes_before;
  m.total_ios = m.reads + m.writes;
  m.buffer_hits = after.hits - before.hits;
  m.buffer_requests = after.accesses - before.accesses;
  return m;
}

void O2Emulator::AccessObject(ocb::Oid oid, bool write) {
  ++accesses_;
  if (recorder_ != nullptr) recorder_->OnObject(oid, write);
  // Flat span-array lookup + allocation-free cache probe: the emulator
  // hot path touches only dense arrays.
  const storage::PageSpan span = placement_.spans()[oid];
  for (uint32_t i = 0; i < span.count; ++i) {
    scratch_ios_.clear();
    cache_->AccessInto(span.first + i, write, scratch_ios_);
    for (const storage::PageIo& io : scratch_ios_) {
      if (io.kind == storage::PageIo::Kind::kRead) {
        ++reads_;
      } else {
        ++writes_;
      }
    }
  }
}


void O2Emulator::RegisterMetrics(obs::MetricRegistry& registry) const {
  registry.RegisterCounter("emu.reads", &reads_);
  registry.RegisterCounter("emu.writes", &writes_);
  registry.RegisterCounter("emu.accesses", &accesses_);
}

}  // namespace voodb::emu
