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

/// The conservative lookahead of one cross-shard request: the network
/// transfer of one page under finite NETTHRU, else one full-page disk
/// service (search + latency + transfer) — both strictly positive.
double CrossShardDelayMs(const VoodbConfig& config) {
  // Finite network: one page on the wire (NetworkActor::TransferTime's
  // formula: MB/s -> 1000 bytes/ms).  Infinite network: the request
  // still cannot outrun one full-page disk service at the home shard.
  const double wire =
      config.network_throughput_mbps > 0.0
          ? static_cast<double>(config.page_size) /
                (config.network_throughput_mbps * 1000.0)
          : 0.0;
  const double disk = config.disk.search_ms + config.disk.latency_ms +
                      config.disk.transfer_ms;
  const double delay = wire > 0.0 ? wire : disk;
  VOODB_CHECK_MSG(delay > 0.0,
                  "cross-shard lookahead degenerated to zero: configure a "
                  "finite network throughput or non-zero disk timings");
  return delay;
}

}  // namespace

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

  kernel_ = n > 1 ? std::make_unique<desp::ParallelScheduler>(
                       n, CrossShardDelayMs(config_))
                 : std::make_unique<desp::ParallelScheduler>(1);
  workloads_.resize(n, nullptr);
  multi_partition_rngs_.resize(n);
  remote_txns_.resize(n);

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
  workloads_[shard] = source;
}

ocb::WorkloadSource& ShardedVoodb::Workload(size_t shard) {
  return workloads_[shard] != nullptr ? *workloads_[shard]
                                      : *generators_[shard];
}

PhaseMetrics ShardedVoodb::Run(uint64_t n, exp::ThreadPool* /*pool*/) {
  const size_t num_shards = shards_.size();

  // The previous phase left each shard's clock at its own last event.
  const desp::SimTime start = kernel_->MaxNow();
  for (size_t s = 0; s < num_shards; ++s) {
    kernel_->partition(s).RunUntil(start);
  }
  if (generators_.empty()) {
    for (size_t s = 0; s < num_shards; ++s) {
      generators_.push_back(std::make_unique<ocb::WorkloadGenerator>(
          &partitions_[s], rng_.Derive(0x6E40000 + s)));
    }
  }

  // Per-partition digests, folded in shard order after the drain.
  std::vector<EventDigest> digests(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    kernel_->partition(s).SetTraceHook(&EventDigest::Hook, &digests[s]);
    // Streams derived from committed counts, so consecutive phases draw
    // fresh-but-deterministic randomness.
    const uint64_t committed = shards_[s]->transaction_manager().committed();
    multi_partition_rngs_[s] = rng_.Derive(0x3417 + s * 0x1000 + committed);
    shards_[s]->StartPhase(
        Workload(s), n, rng_.Derive(0x7817 + s * 0x1000 + committed),
        [this, s](uint32_t user) { return ShipRemote(s, user); });
  }
  kernel_->Run();

  EventDigest fold;
  shard_metrics_.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    kernel_->partition(s).SetTraceHook(nullptr, nullptr);
    shard_metrics_.push_back(shards_[s]->EndPhase());
    fold.Fold(digests[s].h);
  }
  trace_digest_ = fold.h;
  return MergeShardMetrics(shard_metrics_);
}

bool ShardedVoodb::ShipRemote(size_t home, uint32_t user) {
  const size_t n = shards_.size();
  desp::RandomStream& rng = multi_partition_rngs_[home];
  if (n == 1 || config_.multi_partition_pct <= 0.0 ||
      !rng.Bernoulli(config_.multi_partition_pct)) {
    return false;
  }
  const size_t remote =
      (home + 1 +
       static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 2))) %
      n;
  // The global trace id of the transaction that just committed (0 if it
  // was not sampled): the remote sub-transaction stitches to it.
  VoodbSystem& sys = *shards_[home];
  const uint64_t parent = sys.span_tracer() != nullptr
                              ? sys.span_tracer()->last_finished_global_id()
                              : 0;
  // One page's worth of request bytes through the home network, then
  // across the partition boundary with the kernel's lookahead.
  sys.network().Transfer(
      config_.page_size, [this, home, user, remote, parent] {
        kernel_->SendTo(home, remote, kernel_->lookahead(),
                        [this, home, user, remote, parent] {
                          ServeRemote(remote, home, user, parent);
                        });
      });
  return true;
}

void ShardedVoodb::ServeRemote(size_t remote, size_t home, uint32_t user,
                               uint64_t parent) {
  ++remote_subtxns_;
  const ocb::TransactionKind kind = ocb::TransactionKind::kSimpleTraversal;
  Workload(remote).NextInto(remote_txns_[remote], &kind);
  TransactionManagerActor& tm = shards_[remote]->transaction_manager();
  if (parent != 0) tm.SetNextTraceParent(parent);
  tm.Submit(remote_txns_[remote], [this, remote, home, user] {
    kernel_->SendTo(remote, home, kernel_->lookahead(), [this, home, user] {
      shards_[home]->ResumeUser(user);
    });
  });
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
