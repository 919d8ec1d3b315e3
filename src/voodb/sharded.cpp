#include "voodb/sharded.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace voodb::core {

void EventDigest::Hook(void* ctx, const desp::EventKey& key) {
  auto* d = static_cast<EventDigest*>(ctx);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(key.time), "SimTime is not 64-bit");
  std::memcpy(&bits, &key.time, sizeof(bits));
  d->Fold(bits);
  d->Fold(static_cast<uint64_t>(static_cast<int64_t>(key.priority)));
  d->Fold(key.seq);
}

namespace {

/// Shard-order reduction of per-shard phase metrics: counters sum,
/// simulated time is the slowest shard's (shards advance concurrently),
/// the mean response is transaction-weighted, the maximum is the
/// largest shard's, distributions merge bucket-exactly.
PhaseMetrics MergeShardMetrics(const std::vector<PhaseMetrics>& per_shard) {
  PhaseMetrics m;
  double response_weighted = 0.0;
  for (const PhaseMetrics& s : per_shard) {
    m.transactions += s.transactions;
    m.object_accesses += s.object_accesses;
    m.transaction_restarts += s.transaction_restarts;
    m.total_ios += s.total_ios;
    m.reads += s.reads;
    m.writes += s.writes;
    m.buffer_hits += s.buffer_hits;
    m.buffer_requests += s.buffer_requests;
    m.network_bytes += s.network_bytes;
    m.sim_time_ms = std::max(m.sim_time_ms, s.sim_time_ms);
    m.max_response_ms = std::max(m.max_response_ms, s.max_response_ms);
    response_weighted +=
        s.mean_response_ms * static_cast<double>(s.transactions);
    m.response_histogram.Merge(s.response_histogram);
    m.lock_wait_histogram.Merge(s.lock_wait_histogram);
    m.disk_service_histogram.Merge(s.disk_service_histogram);
    m.component_histograms.Merge(s.component_histograms);
  }
  m.mean_response_ms = m.transactions == 0
                           ? 0.0
                           : response_weighted /
                                 static_cast<double>(m.transactions);
  return m;
}

}  // namespace

/// One shard's Users active resource.  Mirrors VoodbSystem's internal
/// driver, plus the multi-partition leg: a committed transaction may ship
/// a request to a remote shard (through the home network actor and the
/// kernel's mailbox edge) and the issuing user blocks until the remote
/// sub-transaction's ack returns.  All state is touched only from events
/// executing on this shard's partition — except `served_remote`, which
/// the *owning* shard's partition increments when serving, and which is
/// read only after the kernel drains.
struct ShardedVoodb::ShardDriver {
  ShardedVoodb* owner = nullptr;
  size_t shard = 0;
  VoodbSystem* sys = nullptr;
  ocb::WorkloadSource* gen = nullptr;
  uint64_t to_issue = 0;
  uint64_t outstanding = 0;
  desp::RandomStream think_rng;
  desp::RandomStream mp_rng;  ///< multi-partition coin + remote pick
  double think_time_ms = 0.0;
  uint64_t served_remote = 0;  ///< sub-transactions run on this shard
  /// Recycled transaction buffers, as in VoodbSystem: one per user, and
  /// one that every remote sub-transaction is generated into (Submit
  /// swaps it away at once).
  std::vector<ocb::Transaction> user_txns;
  ocb::Transaction remote_txn;

  void UserLoop(uint32_t user) {
    if (to_issue == 0) return;  // natural drain ends the phase
    --to_issue;
    ++outstanding;
    ocb::Transaction& txn = user_txns[user];
    gen->NextInto(txn, nullptr);
    sys->RecordTxnBegin(txn.kind, user);
    auto submit = [this, user] {
      sys->transaction_manager().Submit(user_txns[user],
                                        [this, user] { AfterCommit(user); });
    };
    if (think_time_ms > 0.0) {
      sys->scheduler().Schedule(think_rng.Exponential(think_time_ms),
                                std::move(submit));
    } else {
      submit();
    }
  }

  void AfterCommit(uint32_t user) {
    sys->RecordTxnEnd();
    const size_t n = owner->shards_.size();
    if (n > 1 && owner->config_.multi_partition_pct > 0.0 &&
        mp_rng.Bernoulli(owner->config_.multi_partition_pct)) {
      // The multi-partition leg: ship one page's worth of request bytes
      // through the home network, then cross the partition boundary with
      // the registered lookahead.  The user stays outstanding until the
      // remote ack lands back home.
      const size_t remote =
          (shard + 1 +
           static_cast<size_t>(mp_rng.UniformInt(
               0, static_cast<int64_t>(n) - 2))) %
          n;
      const double hop = owner->CrossShardDelayMs();
      // The global trace id of the transaction that just committed (0 if
      // it was not sampled): the remote sub-transaction stitches to it.
      const uint64_t parent =
          sys->span_tracer() != nullptr
              ? sys->span_tracer()->last_finished_global_id()
              : 0;
      sys->network().Transfer(
          owner->config_.page_size, [this, user, remote, hop, parent] {
            owner->kernel_->SendTo(shard, remote, hop,
                                   [this, user, remote, hop, parent] {
                                     owner->drivers_[remote]->ServeRemote(
                                         shard, user, hop, parent);
                                   });
          });
      return;
    }
    FinishTxn(user);
  }

  /// Runs on the *remote* shard's partition: a forced-kind
  /// sub-transaction through its own Transaction Manager, acked back to
  /// the requesting shard when it commits.
  void ServeRemote(size_t home, uint32_t user, double hop, uint64_t parent) {
    ++served_remote;
    const ocb::TransactionKind kind = ocb::TransactionKind::kSimpleTraversal;
    gen->NextInto(remote_txn, &kind);
    if (parent != 0) {
      sys->transaction_manager().SetNextTraceParent(parent);
    }
    sys->transaction_manager().Submit(
        remote_txn, [this, home, user, hop] {
          owner->kernel_->SendTo(shard, home, hop, [this, home, user] {
            owner->drivers_[home]->FinishTxn(user);
          });
        });
  }

  void FinishTxn(uint32_t user) {
    --outstanding;
    if (sys->config().auto_clustering &&
        sys->clustering_manager().ShouldTrigger()) {
      sys->clustering_manager().PerformClustering(
          [this, user] { UserLoop(user); });
      return;
    }
    UserLoop(user);
  }
};

ShardedVoodb::ShardedVoodb(VoodbConfig config, const ocb::ObjectBase* base,
                           uint64_t seed)
    : config_(config), base_(base), rng_(seed) {
  config_.Validate();
  VOODB_CHECK_MSG(base_ != nullptr, "sharded system needs an object base");
  VOODB_CHECK_MSG(config_.shards >= 1, "parameter 'shards' must be >= 1");
  VOODB_CHECK_MSG(config_.failure_mtbf_ms <= 0.0 || config_.shards == 1,
                  "the crash hazard re-arms forever, which would keep the "
                  "parallel kernel from draining: 'failure_mtbf_ms' "
                  "requires shards=1");
  const size_t n = config_.shards;

  desp::ParallelScheduler::Options kernel_options;
  kernel_options.partitions = n;
  kernel_options.window = config_.sim_window;
  kernel_ = std::make_unique<desp::ParallelScheduler>(kernel_options);
  if (n > 1) kernel_->SetUniformEdgeDelay(CrossShardDelayMs());

  // The hash partition oid % shards == s, re-indexed densely: shard s
  // owns |{oid : oid % n == s}| objects, generated as an independent
  // deterministic sub-base (sizes and classes are functions of the dense
  // index, exactly as in the full base's round-robin assignment).
  partitions_.reserve(n);
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    ocb::OcbParameters p = base_->params();
    p.num_objects = base_->NumObjects() / n +
                    (s < base_->NumObjects() % n ? 1 : 0);
    VOODB_CHECK_MSG(p.num_objects >= p.num_classes,
                    "shard " << s << " would hold fewer objects ("
                             << p.num_objects << ") than classes ("
                             << p.num_classes
                             << "); lower 'shards' or grow the base");
    // The registry bounds 'seed' to exactly-representable doubles
    // (< 2^53); fold the derived 64-bit stream id down into that range.
    p.seed = rng_.Derive(0x5AAD0000 + s).seed() & ((1ull << 53) - 1);
    partitions_.push_back(ocb::ObjectBase::Generate(p));
  }
  for (size_t s = 0; s < n; ++s) {
    VoodbConfig shard_config = config_;
    shard_config.shards = 1;
    shard_config.sim_window = 0.0;
    shard_config.multi_partition_pct = 0.0;
    // The aggregate buffer budget matches a single-server run.
    shard_config.buffer_pages =
        std::max<uint64_t>(1, config_.buffer_pages / n);
    // Observability is owned here (one profiler spanning every
    // partition), not per shard.
    shard_config.observe = false;
    shard_config.profile_path.clear();
    shards_.push_back(std::make_unique<VoodbSystem>(
        shard_config, &partitions_[s], nullptr,
        rng_.Derive(0x57AC0000 + s).seed(), &kernel_->partition(s),
        /*trace_global_id_base=*/static_cast<uint64_t>(s) << 48));
  }
  if (config_.observe || !config_.profile_path.empty()) {
    profiler_ = std::make_unique<obs::SimProfiler>(
        /*capture_spans=*/!config_.profile_path.empty());
    for (size_t s = 0; s < n; ++s) {
      profiler_->Attach(&kernel_->partition(s), "shard" + std::to_string(s));
    }
  }
}

ShardedVoodb::~ShardedVoodb() {
  if (profiler_ != nullptr && !config_.profile_path.empty()) {
    profiler_->WriteChromeTrace(config_.profile_path);
  }
}

void ShardedVoodb::SetWorkload(size_t shard, ocb::WorkloadSource* source) {
  VOODB_CHECK_MSG(shard < shards_.size(), "no shard " << shard);
  workloads_.resize(shards_.size(), nullptr);
  workloads_[shard] = source;
}

double ShardedVoodb::CrossShardDelayMs() const {
  // Finite network: one page on the wire (NetworkActor::TransferTime's
  // formula: MB/s -> 1000 bytes/ms).  Infinite network: the request
  // still cannot outrun one full-page disk service at the home shard.
  const double wire =
      config_.network_throughput_mbps > 0.0
          ? static_cast<double>(config_.page_size) /
                (config_.network_throughput_mbps * 1000.0)
          : 0.0;
  const double disk = config_.disk.search_ms + config_.disk.latency_ms +
                      config_.disk.transfer_ms;
  const double delay = wire > 0.0 ? wire : disk;
  VOODB_CHECK_MSG(delay > 0.0,
                  "cross-shard lookahead degenerated to zero: configure a "
                  "finite network throughput or non-zero disk timings");
  return delay;
}

PhaseMetrics ShardedVoodb::Run(uint64_t n, exp::ThreadPool* /*pool*/) {
  const size_t num_shards = shards_.size();

  // The previous phase left each shard's clock at its own last event.
  const desp::SimTime start = kernel_->MaxNow();
  for (size_t s = 0; s < num_shards; ++s) {
    kernel_->partition(s).RunUntil(start);
  }

  std::vector<VoodbSystem::Snapshot> before;
  before.reserve(num_shards);
  for (auto& shard : shards_) before.push_back(shard->Take());

  // Fresh drivers per phase, their streams derived from committed counts
  // so consecutive phases draw fresh-but-deterministic randomness
  // (mirrors VoodbSystem::Drive).
  drivers_.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    auto driver = std::make_unique<ShardDriver>();
    driver->owner = this;
    driver->shard = s;
    driver->sys = shards_[s].get();
    driver->to_issue = n;
    driver->think_rng = rng_.Derive(
        0x7817 + s * 0x1000 + shards_[s]->transaction_manager().committed());
    driver->mp_rng = rng_.Derive(
        0x3417 + s * 0x1000 + shards_[s]->transaction_manager().committed());
    driver->think_time_ms = partitions_[s].params().think_time_ms;
    drivers_.push_back(std::move(driver));
  }
  if (generators_.empty()) {
    for (size_t s = 0; s < num_shards; ++s) {
      generators_.push_back(std::make_unique<ocb::WorkloadGenerator>(
          &partitions_[s], rng_.Derive(0x6E40000 + s)));
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    drivers_[s]->gen = workloads_.size() > s && workloads_[s] != nullptr
                           ? workloads_[s]
                           : generators_[s].get();
  }

  // Per-partition digests, folded in shard order after the drain.
  std::vector<EventDigest> digests(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    kernel_->partition(s).SetTraceHook(&EventDigest::Hook, &digests[s]);
  }

  const uint32_t active_users =
      static_cast<uint32_t>(std::min<uint64_t>(config_.num_users, n));
  for (size_t s = 0; s < num_shards; ++s) {
    drivers_[s]->user_txns.resize(active_users);
    for (uint32_t u = 0; u < active_users; ++u) drivers_[s]->UserLoop(u);
  }
  kernel_->Run();

  for (size_t s = 0; s < num_shards; ++s) {
    kernel_->partition(s).SetTraceHook(nullptr, nullptr);
    VOODB_CHECK_MSG(
        drivers_[s]->to_issue == 0 && drivers_[s]->outstanding == 0,
        "shard " << s << " ended the phase with unfinished work");
    remote_subtxns_ += drivers_[s]->served_remote;
  }

  EventDigest fold;
  shard_metrics_.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    shard_metrics_.push_back(shards_[s]->Delta(before[s]));
    fold.Fold(digests[s].h);
  }
  trace_digest_ = fold.h;
  return MergeShardMetrics(shard_metrics_);
}

obs::MetricSnapshot ShardedVoodb::MergedMetrics() const {
  obs::MetricSnapshot merged;
  for (const auto& shard : shards_) {
    merged.Merge(shard->metric_registry().Snapshot());
  }
  return merged;
}

void ShardedVoodb::RecordTrees(bool on) {
  for (const auto& shard : shards_) {
    if (shard->span_tracer() != nullptr) shard->span_tracer()->RecordTrees(on);
  }
}

std::vector<obs::Exemplar> ShardedVoodb::MergedExemplars() const {
  std::vector<obs::Exemplar> merged;
  for (const auto& shard : shards_) {
    const obs::SpanTracer* tracer = shard->span_tracer();
    if (tracer == nullptr) continue;
    merged = obs::MergeExemplars(std::move(merged), tracer->exemplars(),
                                 config_.trace_exemplars);
  }
  return merged;
}

}  // namespace voodb::core
