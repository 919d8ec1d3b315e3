/// \file config.hpp
/// \brief The VOODB evaluation-model parameters (paper Table 3).
#pragma once

#include <cstdint>
#include <string>

#include "cc/kind.hpp"
#include "storage/disk_model.hpp"
#include "storage/placement.hpp"
#include "storage/replacement.hpp"

namespace voodb::core {

/// SYSCLASS: the architecture the generic model is instantiated as.
enum class SystemClass {
  kCentralized,   ///< single host (e.g. Texas)
  kObjectServer,  ///< objects shipped to clients (e.g. ORION, ONTOS)
  kPageServer,    ///< pages shipped to clients (e.g. ObjectStore, O2)
  kDbServer,      ///< queries shipped to the server (database server)
};

const char* ToString(SystemClass s);

/// PREFETCH: the prefetching policy ({None | Other}).
enum class PrefetchPolicy {
  kNone,
  kSequential,  ///< the "Other" slot: sequential read-ahead
};

const char* ToString(PrefetchPolicy p);

/// Where the transaction stream of a run comes from.
enum class WorkloadSourceKind {
  kSynthetic,  ///< the stochastic OCB generator (the paper's protocol)
  kTrace,      ///< deterministic replay of a recorded trace (trace_path)
  kYcsbZipf,   ///< YCSB-style zipfian point accesses (ocb::YcsbZipfWorkload)
};

const char* ToString(WorkloadSourceKind s);

/// All Table 3 parameters plus the system-level extras the validation
/// experiments need (storage overhead factor, Texas' VM behaviour).
struct VoodbConfig {
  // --- System --------------------------------------------------------------
  SystemClass system_class = SystemClass::kPageServer;  ///< SYSCLASS
  /// NETTHRU in MB/s; <= 0 means infinite throughput (no network delay).
  double network_throughput_mbps = 1.0;

  // --- Buffering Manager ---------------------------------------------------
  uint32_t page_size = 4096;       ///< PGSIZE
  uint64_t buffer_pages = 500;     ///< BUFFSIZE
  storage::ReplacementPolicy page_replacement =
      storage::ReplacementPolicy::kLru;  ///< PGREP (default LRU-1)
  uint32_t lru_k = 2;                    ///< K when PGREP is LRU-K
  PrefetchPolicy prefetch = PrefetchPolicy::kNone;  ///< PREFETCH
  uint32_t prefetch_depth = 2;

  // --- Clustering Manager --------------------------------------------------
  /// INITPL: initial object placement.
  storage::PlacementPolicy initial_placement =
      storage::PlacementPolicy::kOptimizedSequential;
  /// Whether the Clustering Manager evaluates its trigger automatically
  /// at transaction boundaries (knowledge model "Automatic triggering");
  /// external triggering via VoodbSystem::TriggerClustering is always
  /// available.
  bool auto_clustering = false;
  /// CPU time charged per object access for statistics collection when a
  /// clustering policy is installed (ms).
  double clustering_stat_cpu_ms = 0.02;

  // --- I/O Subsystem -------------------------------------------------------
  storage::DiskParameters disk;  ///< DISKSEA / DISKLAT / DISKTRA

  // --- Transaction Manager -------------------------------------------------
  uint32_t multiprogramming_level = 10;  ///< MULTILVL
  double get_lock_ms = 0.5;              ///< GETLOCK (per object access)
  double release_lock_ms = 0.5;          ///< RELLOCK (per held lock)
  /// Force policy: write all dirty buffer pages to disk at transaction
  /// commit.  Off by default (the paper's model counts write-backs only
  /// at eviction); irrelevant for the VM-backed (Texas) configuration,
  /// which has no transactional force point.
  bool flush_on_commit = false;
  /// Concurrency-control extension (paper §5): run every object access
  /// through a real concurrency-control protocol (`cc_protocol`) instead
  /// of charging the fixed GETLOCK delay alone.  Aborted transactions
  /// restart after an exponential backoff.
  bool use_lock_manager = false;
  /// Concurrency-control protocol driven by the Transaction Manager when
  /// use_lock_manager is on (wait_die is the paper's §5 scheme).
  cc::ProtocolKind cc_protocol = cc::ProtocolKind::kWaitDie;
  /// Mean of the exponential restart backoff (ms) after a CC abort.
  double restart_backoff_ms = 20.0;

  // --- Random hazards (paper §5 extension) ----------------------------------
  /// Mean time between system crashes (ms); 0 disables the hazard process.
  double failure_mtbf_ms = 0.0;
  /// Fixed restart cost after a crash (ms).
  double recovery_base_ms = 500.0;
  /// Log-replay cost per dirty page lost in a crash (ms).
  double recovery_per_dirty_page_ms = 2.0;
  /// Per-I/O transient fault probability (benign failures); 0 disables.
  double disk_fault_prob = 0.0;
  /// Retry penalty per transient fault (ms).
  double disk_fault_retry_ms = 30.0;
  /// Retries before a transient fault clears.
  uint32_t disk_fault_max_retries = 3;

  // --- Users ---------------------------------------------------------------
  uint32_t num_users = 1;  ///< NUSERS

  // --- System-level extras (Table 4 calibration) ---------------------------
  /// Storage overhead factor applied when packing objects into pages
  /// (O2's page server stores the reference OCB base in 25.0 MiB where
  /// Texas needs 18.4 MiB; >= 1).
  double storage_overhead = 1.0;
  /// Use the OS virtual-memory model instead of a database buffer
  /// (Texas).  BUFFSIZE is then the number of page frames.
  bool use_virtual_memory = false;
  /// Texas reserve-on-swizzle behaviour (only with use_virtual_memory).
  bool vm_reserve_references = true;
  /// Reserved frames enter the LRU order hot (MRU head) — the Linux 2.0
  /// behaviour the paper measured; false inserts them cold (ablation).
  bool vm_reservations_enter_hot = true;
  /// Pages dirtied by pointer swizzling at load time (only with
  /// use_virtual_memory).
  bool vm_dirty_on_load = true;
  /// CPU time per in-memory object operation (ms).
  double object_cpu_ms = 0.005;

  // --- Access tracing (trace subsystem) -------------------------------------
  /// Record the run's access trace — transaction markers, object
  /// resolutions and buffer page accesses — to `trace_path`.  Recording
  /// is per system instance: replicated runs sharing one path would
  /// clobber each other, so record single runs (`voodb trace record`).
  bool trace_record = false;
  /// Transaction stream source; kTrace replays the trace at `trace_path`
  /// instead of the synthetic OCB generator (wrapping around when the
  /// run outlives the recording).
  WorkloadSourceKind workload_source = WorkloadSourceKind::kSynthetic;
  /// Trace file path: output for `trace_record`, input for
  /// `workload_source = trace`.
  std::string trace_path;

  // --- Parallel kernel / sharding (desp::ParallelScheduler) ------------------
  /// Storage-server shards: N independent ObjectManager/BufferManager/
  /// TransactionManager stacks hash-partitioned over the object base,
  /// driven by `ShardedVoodb` on one scheduler partition each.  1 = the
  /// ordinary single-server model (every existing scenario).
  uint32_t shards = 1;
  /// No effect: the scheduler partitions of one run execute on the
  /// calling thread.  Kept until the next benchmark change.
  uint32_t sim_threads = 1;
  /// Fraction of transactions that touch a second shard: after the home
  /// shard commits, a request ships through the network actor to a
  /// deterministic remote shard, which runs a sub-transaction and acks.
  double multi_partition_pct = 0.0;

  // --- Observability (obs subsystem) ----------------------------------------
  /// Attach the simulation-time profiler: per-actor attribution of
  /// simulated time and event counts (`voodb profile` sets this).  Off by
  /// default — the disabled scheduler hook costs one branch per event.
  bool observe = false;
  /// Chrome-trace (chrome://tracing) JSON output path; non-empty implies
  /// `observe` and enables span capture.  Per system instance like
  /// trace_path, so profile single fixed-seed runs (`voodb profile`).
  std::string profile_path;
  /// Causal per-transaction tracing (obs/spans.hpp): span trees,
  /// critical-path component histograms, tail exemplars.  Pure metadata —
  /// simulation results are bit-identical with tracing on or off.
  bool trace_spans = true;
  /// Fraction of transactions traced, decided by a deterministic hash of
  /// the transaction id (no RNG stream is consumed, so any rate leaves
  /// the simulation untouched).
  double trace_sample_rate = 1.0;
  /// Slowest-K committed transactions whose full span trees are retained
  /// and exported by `voodb explain`.
  uint32_t trace_exemplars = 8;

  void Validate() const;
};

}  // namespace voodb::core
