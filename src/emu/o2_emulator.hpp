/// \file o2_emulator.hpp
/// \brief Direct-execution emulator of the O2 page server.
///
/// Stand-in for the real O2 v5.0 installation of the paper's validation
/// experiments (§4.2.1) — README.md "Design notes" gives the substitution
/// rationale.
/// The emulator *executes* the OCB workload against a functional page
/// server: logical OIDs resolved through the placement, a server page
/// cache with LRU replacement, and a disk that only counts I/Os (the
/// "Benchmark" series of Figures 6-8 reports mean numbers of I/Os, not
/// times).  No discrete-event machinery is involved; this is the
/// reference the VOODB simulation is validated against.
#pragma once

#include <cstdint>
#include <memory>

#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/placement.hpp"
#include "trace/recorder.hpp"
#include "voodb/metrics.hpp"

namespace voodb::obs {
class MetricRegistry;
}  // namespace voodb::obs

namespace voodb::emu {

/// Configuration of the emulated O2 server.
struct O2Config {
  uint32_t page_size = 4096;
  uint64_t cache_pages = 3840;  ///< 16 MB server cache (default install)
  storage::ReplacementPolicy replacement = storage::ReplacementPolicy::kLru;
  storage::PlacementPolicy placement =
      storage::PlacementPolicy::kOptimizedSequential;
  /// O2's storage overhead, the paper's 28/21 MB ratio (the model's
  /// NC=50/NO=20000 base occupies 25.0 MiB here, 18.4 MiB in Texas).
  double storage_overhead = 1.33;
};

/// The emulated O2 server.
class O2Emulator {
 public:
  O2Emulator(O2Config config, const ocb::ObjectBase* base, uint64_t seed);

  /// Executes `n` transactions from `workload`; returns the phase's
  /// counters (sim_time_ms is always 0 — the emulator does not model
  /// time).
  core::PhaseMetrics RunTransactions(ocb::WorkloadSource& workload,
                                     uint64_t n);
  core::PhaseMetrics RunTransactionsOfKind(ocb::WorkloadSource& workload,
                                           ocb::TransactionKind kind,
                                           uint64_t n);

  /// Installs an access-trace recorder (not owned; nullptr detaches):
  /// transaction markers and object accesses from the drive loop, page
  /// accesses from the server cache's AccessInto.
  void SetRecorder(trace::Recorder* recorder);

  /// The recording run's cache counters for the trace header.
  trace::TraceCounters TraceCountersNow() const;

  /// Database size on disk.
  uint64_t NumPages() const { return placement_.NumPages(); }
  const storage::BufferManager& cache() const { return *cache_; }

  /// Registers the emulator counters with `registry` (obs subsystem).
  void RegisterMetrics(obs::MetricRegistry& registry) const;

 private:
  core::PhaseMetrics Drive(ocb::WorkloadSource& workload,
                           const ocb::TransactionKind* forced, uint64_t n);
  void AccessObject(ocb::Oid oid, bool write);

  O2Config config_;
  const ocb::ObjectBase* base_;
  storage::Placement placement_;
  std::unique_ptr<storage::BufferManager> cache_;
  trace::Recorder* recorder_ = nullptr;
  /// Reused I/O scratch buffer (the access path never allocates).
  std::vector<storage::PageIo> scratch_ios_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t accesses_ = 0;
};

}  // namespace voodb::emu
