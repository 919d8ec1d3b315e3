/// \file sharded.hpp
/// \brief ShardedVoodb — N independent VOODB stacks on one parallel kernel.
///
/// The multi-shard harness the conservative parallel kernel
/// (`desp::ParallelScheduler`) was built to drive: `shards` complete
/// ObjectManager/BufferManager/TransactionManager stacks, each over its
/// own hash-partition of the OCB object base, each riding one scheduler
/// partition.  Shards are fully independent except for *multi-partition
/// transactions*: a configurable fraction of each user's transactions
/// runs a sub-transaction on a second shard, shipped through the home
/// shard's network actor and delivered across the partition boundary by
/// the kernel's mailbox protocol.
///
/// The cross-shard lookahead is physical: a remote request cannot arrive
/// before one network page transfer completes (or, under an infinite
/// network, before the disk could service a page), so the window the
/// kernel derives from these edge delays never reorders causally related
/// events — and the run is bit-identical at any `sim_threads`.
///
/// Determinism contract: `Run()` produces byte-identical `PhaseMetrics`
/// (and trace-hook digests) for any `sim_threads` value, including the
/// serial `sim_threads = 1` path.  `shard_scale` in the scenario catalog
/// enforces this every run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "desp/parallel_scheduler.hpp"
#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "voodb/config.hpp"
#include "voodb/metrics.hpp"
#include "voodb/system.hpp"

namespace voodb::exp {
class ThreadPool;
}  // namespace voodb::exp

namespace voodb::core {

/// N hash-partitioned VOODB stacks under the conservative window protocol.
class ShardedVoodb {
 public:
  /// \param config  Table 3 parameters; `config.shards` stacks are built,
  ///                each holding every `oid % shards == shard` object of
  ///                `base` (the hash partition), with `buffer_pages`
  ///                split evenly across shards so the aggregate memory
  ///                budget matches a single-server run.
  /// \param base    the full OCB object base (not owned; must outlive us)
  /// \param seed    replication seed; each shard derives an independent
  ///                stream, so metrics depend on (config, base, seed)
  ///                only — never on thread scheduling.
  ShardedVoodb(VoodbConfig config, const ocb::ObjectBase* base,
               uint64_t seed);
  ~ShardedVoodb();

  /// Runs `n` transactions per shard (each shard's users draw from its
  /// own deterministic generator) and returns the merged phase metrics,
  /// reduced in shard order.  `config.multi_partition_pct` of the
  /// transactions additionally run a forced-kind sub-transaction on a
  /// deterministic remote shard and wait for its ack before the issuing
  /// user continues.  Executes on `pool` when given (sim_threads > 1),
  /// serially otherwise — bit-identical either way.
  PhaseMetrics Run(uint64_t n, exp::ThreadPool* pool = nullptr);

  /// Replaces shard `shard`'s transaction generator by `source` (not
  /// owned; nullptr restores the generator) for the following Run()
  /// calls, e.g. with a pre-generated stream.  The shard's remote
  /// sub-transactions are drawn from it too (NextOfKind).
  void SetWorkload(size_t shard, ocb::WorkloadSource* source);

  /// Per-shard metrics of the last Run() (shard order).
  const std::vector<PhaseMetrics>& shard_metrics() const {
    return shard_metrics_;
  }

  /// FNV-1a digest over every shard's executed-event keys of the last
  /// Run(), folded in shard order — the bit-identity witness the
  /// `shard_scale` scenario compares across `sim_threads` values.
  uint64_t TraceDigest() const { return trace_digest_; }

  /// Multi-partition sub-transactions completed (all Run() calls).
  uint64_t remote_subtxns() const { return remote_subtxns_; }

  /// Every shard's metric registry snapshotted and merged, in shard
  /// order — deterministic at any `sim_threads`.
  obs::MetricSnapshot MergedMetrics() const;

  /// Every shard's tail exemplars merged in shard order, keeping the
  /// `trace_exemplars` slowest — deterministic at any `sim_threads`.
  /// Empty unless `trace_spans`.
  std::vector<obs::Exemplar> MergedExemplars() const;

  /// SpanTracer::RecordTrees on every shard's tracer (no-op unless
  /// `trace_spans`): merged exemplars then carry their span trees.
  void RecordTrees(bool on);

  /// The profiler spanning every partition (nullptr unless `observe` or
  /// a `profile_path` is configured); its Table()/Stats() merge
  /// per-partition attribution by tag name.
  obs::SimProfiler* profiler() { return profiler_.get(); }

  desp::ParallelScheduler& kernel() { return *kernel_; }
  VoodbSystem& shard(size_t i) { return *shards_[i]; }
  size_t shards() const { return shards_.size(); }

 private:
  struct ShardDriver;

  /// The conservative lookahead of one cross-shard request: the network
  /// transfer of one page under finite NETTHRU, else one full-page disk
  /// service (search + latency + transfer) — both strictly positive.
  double CrossShardDelayMs() const;

  VoodbConfig config_;
  const ocb::ObjectBase* base_;
  desp::RandomStream rng_;
  std::unique_ptr<desp::ParallelScheduler> kernel_;
  std::vector<std::unique_ptr<VoodbSystem>> shards_;
  /// Per-shard sub-bases: shard i owns the `oid % shards == i` slice,
  /// re-indexed densely so each stack sees a contiguous object space.
  std::vector<ocb::ObjectBase> partitions_;
  /// Per-shard generators persist across Run() calls (phase state
  /// carries over, mirroring VoodbSystem).
  std::vector<std::unique_ptr<ocb::WorkloadGenerator>> generators_;
  /// SetWorkload overrides (nullptr: the shard's generator).
  std::vector<ocb::WorkloadSource*> workloads_;
  std::vector<std::unique_ptr<ShardDriver>> drivers_;
  std::unique_ptr<obs::SimProfiler> profiler_;
  std::vector<PhaseMetrics> shard_metrics_;
  uint64_t trace_digest_ = 0;
  uint64_t remote_subtxns_ = 0;
};

}  // namespace voodb::core
