/// \file sharded.hpp
/// \brief ShardedVoodb — N independent VOODB stacks on one windowed kernel.
///
/// The multi-shard model on the conservative window kernel
/// (`desp::ParallelScheduler`): `shards` complete ObjectManager/
/// BufferManager/TransactionManager stacks, each over its own
/// hash-partition of the OCB object base, each riding one scheduler
/// partition.  Shards are fully independent except for *multi-partition
/// transactions*: a configurable fraction of each user's transactions
/// runs a sub-transaction on a second shard, shipped through the home
/// shard's network actor and delivered across the partition boundary by
/// the kernel's mailbox protocol.  Each shard's users are its own
/// `VoodbSystem`'s Users resource; the multi-partition leg is the step it
/// runs after a commit, before the user goes on.
///
/// The cross-shard lookahead is physical: a remote request cannot arrive
/// before one network page transfer completes (or, under an infinite
/// network, before the disk could service a page), so the kernel's
/// window, that one delay, never reorders causally related events.
///
/// Determinism contract: `Run()` is a pure function of (config, base,
/// seed, earlier phases).  Its `PhaseMetrics` and event digest are pinned
/// bit for bit by golden values in `tests/test_sharded.cpp`.
#pragma once

#include <array>
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

/// FNV-1a over the raw bytes of every executed event's key: the time's
/// bits, the sign-extended priority and the seq, 8 bytes each, low byte
/// first.  The cheapest order-sensitive witness of "same events, same
/// order, same clocks".
struct EventDigest {
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr uint64_t kPrime = 0x100000001b3ull;

  uint64_t h = kOffsetBasis;

  /// Folds the 8 bytes of `v`.  A zero byte only multiplies `h` by the
  /// prime, so the zero bytes above `v`'s highest set byte fold as one
  /// multiply by a power of the prime: a zero priority costs one
  /// multiply, not eight.
  void Fold(uint64_t v) {
    int zero_bytes = 8;
    for (; v != 0; v >>= 8, --zero_bytes) {
      h ^= v & 0xFF;
      h *= kPrime;
    }
    h *= kPrimePowers[zero_bytes];
  }

  /// A `desp::Scheduler` trace hook; `ctx` is the EventDigest.
  static void Hook(void* ctx, const desp::EventKey& key);

 private:
  static constexpr std::array<uint64_t, 9> kPrimePowers = [] {
    std::array<uint64_t, 9> powers{};
    powers[0] = 1;
    for (size_t k = 1; k < powers.size(); ++k) {
      powers[k] = powers[k - 1] * kPrime;
    }
    return powers;
  }();
};

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
  /// user continues.  The phase starts with every shard's clock at the
  /// latest one of the previous phase, so no shard can mail into
  /// another's past.  The partitions run on the calling thread; `pool`
  /// is unused, kept for existing callers until the next benchmark
  /// change.
  PhaseMetrics Run(uint64_t n, exp::ThreadPool* pool = nullptr);

  /// Replaces shard `shard`'s transaction generator by `source` (not
  /// owned; nullptr restores the generator) for the following Run()
  /// calls, e.g. with a pre-generated stream.  The shard's remote
  /// sub-transactions are drawn from it too (NextInto with a forced
  /// kind).
  void SetWorkload(size_t shard, ocb::WorkloadSource* source);

  /// Per-shard metrics of the last Run() (shard order).
  const std::vector<PhaseMetrics>& shard_metrics() const {
    return shard_metrics_;
  }

  /// EventDigest over every shard's executed-event keys of the last
  /// Run(), each shard's digest folded in shard order.
  uint64_t TraceDigest() const { return trace_digest_; }

  /// Multi-partition sub-transactions completed (all Run() calls).
  uint64_t remote_subtxns() const { return remote_subtxns_; }

  /// Every shard's metric registry snapshotted and merged, in shard
  /// order.
  obs::MetricSnapshot MergedMetrics() const;

  /// Every shard's tail exemplars merged in shard order, keeping the
  /// `trace_exemplars` slowest.  Empty unless `trace_spans`.
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
  /// Shard `shard`'s workload: its SetWorkload override or its generator.
  ocb::WorkloadSource& Workload(size_t shard);
  /// The multi-partition leg, run on shard `home` after each commit: a
  /// `multi_partition_pct` coin decides whether the user ships a request
  /// to a remote shard (true: the user waits for the ack).
  bool ShipRemote(size_t home, uint32_t user);
  /// On the remote shard's partition: a forced-kind sub-transaction
  /// through its own Transaction Manager, acked back home on commit.
  void ServeRemote(size_t remote, size_t home, uint32_t user,
                   uint64_t parent);

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
  /// Per-shard multi-partition coin and remote pick of the running phase.
  std::vector<desp::RandomStream> multi_partition_rngs_;
  /// Per-shard buffer every remote sub-transaction is generated into
  /// (Submit swaps it away at once).
  std::vector<ocb::Transaction> remote_txns_;
  std::unique_ptr<obs::SimProfiler> profiler_;
  std::vector<PhaseMetrics> shard_metrics_;
  uint64_t trace_digest_ = 0;
  uint64_t remote_subtxns_ = 0;
};

}  // namespace voodb::core
