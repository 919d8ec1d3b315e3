// perfbench — host cost of the VOODB simulator per committed simulated
// transaction, measured through the library's public calls only.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--scratch DIR]
//             [--spans-out PATH] [--check-legs]
//
// Workloads: contention, ycsb_hot, dstc, sharded (shapes below).  The
// seed drives the transaction streams and system seeds; the object base
// is OCB's default one.  The library only ever receives generated inputs.
//
// A "unit" is one fresh set-up (object-base generation plus system
// construction, timed as set-up) followed by the measured phase, whose
// wall time, CPU time and operator-new calls are recorded.  Untraced
// runs cycle units over kInputSets input sets derived from --seed until
// --seconds have passed (at least one full cycle), timing a fixed
// reference kernel between units.  With --check-legs, each input set then
// runs once more, untimed and after peak memory is read, with the
// benchmark's hooks on and trace_spans off (on sharded also without the
// thread pool): run.py checks it against the measured units on seeds that
// have no golden outputs.  Traced runs repeat rounds of paired
// legs on input set 0 (hooks off with spans on, hooks off with spans
// off, hooks on, and per workload a serial or recording leg) and derive
// the per-layer metrics from them.
//
// Prints one JSON object on stdout; perfbench/run.py turns it into the
// benchmark's metrics and checks the simulated outputs.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <thread>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "cluster/dstc.hpp"
#include "desp/random.hpp"
#include "emu/texas_emulator.hpp"
#include "exp/executor.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "ocb/ycsb.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/replayer.hpp"
#include "voodb/catalog.hpp"
#include "voodb/config.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace perfbench {
namespace {

namespace core = voodb::core;
namespace ocb = voodb::ocb;
namespace desp = voodb::desp;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

// --- The benchmark's own spans ----------------------------------------------
//
// Recorded around every public call in traced legs only, kept in memory,
// written out at exit.  Single-threaded: only the main thread makes
// public calls.

struct Span {
  const char* name;
  int32_t parent;
  int64_t begin_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  bool enabled = false;

  int32_t Open(const char* name) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, current_, WallNs(), 0});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void Close(int32_t id) {
    if (id < 0) return;
    spans_[id].end_ns = WallNs();
    current_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

SpanLog g_spans;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_spans.Open(name)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { g_spans.Close(id_); }

 private:
  int32_t id_;
};

// --- Hooks -------------------------------------------------------------------

/// Host-time gaps between consecutive event dispatches of one scheduler
/// (installed through Scheduler::SetProfileHook).
struct DispatchGaps {
  int64_t last_ns = -1;
  std::vector<uint32_t> gaps;

  static void Hook(void* ctx, uint16_t, desp::SimTime, desp::SimTime) {
    auto* self = static_cast<DispatchGaps*>(ctx);
    const int64_t now = WallNs();
    if (self->last_ns >= 0) {
      self->gaps.push_back(static_cast<uint32_t>(
          std::min<int64_t>(now - self->last_ns, UINT32_MAX)));
    }
    self->last_ns = now;
  }
};

double Quantile(std::vector<uint32_t> values, double q) {
  if (values.empty()) return 0.0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

/// FNV-1a over every executed event key (installed through
/// Scheduler::SetTraceHook) — the same witness ShardedVoodb computes.
struct EventDigest {
  uint64_t h = 0xcbf29ce484222325ull;

  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
  static void Hook(void* ctx, const desp::EventKey& key) {
    auto* self = static_cast<EventDigest*>(ctx);
    uint64_t bits = 0;
    std::memcpy(&bits, &key.time, sizeof bits);
    self->Fold(bits);
    self->Fold(static_cast<uint64_t>(static_cast<int64_t>(key.priority)));
    self->Fold(key.seq);
  }
};

/// WorkloadSource decorator: times every call, counts the operator-new
/// calls made inside it, and records one span per call.
class TimedSource final : public ocb::WorkloadSource {
 public:
  explicit TimedSource(ocb::WorkloadSource* inner) : inner_(inner) {}

  ocb::Transaction Next() override {
    return Timed([this] { return inner_->Next(); });
  }
  ocb::Transaction NextOfKind(ocb::TransactionKind kind) override {
    return Timed([this, kind] { return inner_->NextOfKind(kind); });
  }

  uint64_t calls = 0;
  int64_t ns = 0;
  uint64_t allocs = 0;
  uint64_t accesses = 0;

 private:
  template <typename F>
  ocb::Transaction Timed(F&& next) {
    SpanScope span("ocb.next");
    const uint64_t a0 = ThreadAllocCount();
    const int64_t t0 = WallNs();
    ocb::Transaction txn = next();
    ns += WallNs() - t0;
    allocs += ThreadAllocCount() - a0;
    ++calls;
    accesses += txn.accesses.size();
    return txn;
  }

  ocb::WorkloadSource* inner_;
};

// --- Reference kernel ----------------------------------------------------------

std::atomic<uint64_t> g_reference_sink{0};  ///< keeps the work alive

/// A fixed amount of work that never touches the library: push/pop churn
/// on a 2048-entry binary heap, the branchy, pointer-free mix the
/// simulator's event kernel runs.  Of the kernels tried (random reads
/// over 128 KB or 16 MB, allocator and hash-map churn), it tracked the
/// simulator's slow spells on a shared host best.
void ReferenceWork() {
  std::vector<uint64_t> storage;
  storage.reserve(4096);
  std::priority_queue<uint64_t> heap(std::less<uint64_t>(), std::move(storage));
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  for (int i = 0; i < 600000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x);
    if (heap.size() > 2048) {
      acc += heap.top();
      heap.pop();
    }
  }
  g_reference_sink.store(acc, std::memory_order_relaxed);
}

/// Host ms until `threads` concurrent copies of ReferenceWork finish.
/// Timed next to every measured phase, on as many threads as the phase
/// uses, it tracks how fast this machine runs that phase right now.
double ReferenceKernelMs(uint32_t threads) {
  const int64_t t0 = WallNs();
  if (threads <= 1) {
    ReferenceWork();
  } else {
    std::vector<std::thread> workers;
    for (uint32_t i = 0; i < threads; ++i) workers.emplace_back(ReferenceWork);
    for (std::thread& w : workers) w.join();
  }
  return static_cast<double>(WallNs() - t0) / 1e6;
}

// --- Workloads ---------------------------------------------------------------

enum class Kind { kContention, kYcsbHot, kDstc, kSharded };

struct Options {
  std::string workload;
  Kind kind = Kind::kContention;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string scratch = ".";
  std::string spans_out;
  bool check_legs = false;
};

/// Transactions per measured phase (per usage phase on dstc, per shard
/// on sharded).  Fixed: host time per transaction depends on run length.
uint64_t Transactions(const Options& o) {
  switch (o.kind) {
    case Kind::kContention: return o.tiny ? 128 : 1024;
    case Kind::kYcsbHot: return o.tiny ? 200 : 3000;
    case Kind::kDstc: return o.tiny ? 50 : 1000;
    case Kind::kSharded: return o.tiny ? 50 : 750;
  }
  return 0;
}

/// Untraced runs cycle their units over this many input sets derived
/// from --seed: the per-set medians are then pooled, which keeps one
/// input set's quirks from setting a run's figures.
constexpr size_t kInputSets = 8;

uint64_t InputSeed(const Options& o, size_t set) {
  return o.seed * kInputSets + set;
}

ocb::OcbParameters Params(const Options& o) {
  ocb::OcbParameters p;
  switch (o.kind) {
    case Kind::kContention:  // the cc_abyss shape
      p.num_classes = 20;
      p.num_objects = 20000;
      p.p_set = p.p_simple = p.p_hierarchy = p.p_stochastic = 0.0;
      p.p_random_access = 1.0;
      p.random_access_count = 8;
      p.p_update = 0.25;
      break;
    case Kind::kYcsbHot:
      p.num_classes = 10;
      p.num_objects = 8000;
      p.ycsb_skew = 0.99;
      p.ycsb_read_pct = 0.5;
      break;
    case Kind::kDstc:  // tables 6-8: depth-3 traversals from a hot set
      p.num_classes = 50;
      p.num_objects = 20000;
      p.hierarchy_depth = 3;
      p.root_region = 30;
      break;
    case Kind::kSharded:  // the shard_scale shape
      p.num_classes = 20;
      p.num_objects = 8000;
      p.think_time_ms = 1.0;
      break;
  }
  // The object base keeps OCB's default seed, as in the paper's
  // protocol and the scenario catalog: replications share one database
  // and differ in their transaction streams and system seeds.
  return p;
}

core::VoodbConfig Config(const Options& o) {
  core::VoodbConfig c;
  switch (o.kind) {
    case Kind::kContention:
      c.system_class = core::SystemClass::kCentralized;
      c.buffer_pages = 1024;
      c.use_lock_manager = true;
      c.cc_protocol = voodb::cc::ProtocolKind::kWaitDie;
      c.num_users = 1024;
      c.multiprogramming_level = 1024;
      break;
    case Kind::kYcsbHot:
      c.system_class = core::SystemClass::kCentralized;
      c.buffer_pages = 512;
      c.use_lock_manager = true;
      c.cc_protocol = voodb::cc::ProtocolKind::kWaitDie;
      c.num_users = 32;
      c.multiprogramming_level = 32;
      break;
    case Kind::kDstc:
      c = core::SystemCatalog::TexasWithMemory(8.0);
      break;
    case Kind::kSharded:
      c.system_class = core::SystemClass::kCentralized;
      c.buffer_pages = 512;
      c.network_throughput_mbps = 1.0;
      c.num_users = 3;
      c.multi_partition_pct = 0.2;
      c.shards = 4;
      c.sim_threads = 2;
      break;
  }
  return c;
}

/// One leg of a round: which instrumentation is on.
struct Leg {
  const char* name = "measure";
  bool hooks = false;  ///< the benchmark's spans, profile/trace hooks, source decorator
  bool spans = true;   ///< the library's trace_spans (a registry default)
  bool pooled = true;  ///< sharded: run on the sim_threads pool
  bool setup_only = false;  ///< stop after set-up (set-up repetitions)
  std::string record_path;  ///< non-empty: record the page trace there
};

/// Simulated outputs, in emission order, as JSON literals.
using Outputs = std::vector<std::pair<std::string, std::string>>;

struct Unit {
  std::string leg;
  uint64_t seed = 0;  ///< the input set's seed
  double setup_s = 0.0;
  double generate_ms = 0.0;
  double host_ms = 0.0;
  double cpu_ms = 0.0;
  double reference_ms = 0.0;  ///< reference kernel beside the unit
  uint64_t allocs = 0;
  uint64_t committed = 0;
  uint64_t requested = 0;
  Outputs outputs;
  std::map<std::string, double> raw;  ///< counters for per-layer metrics
};

/// Wall time, CPU time and allocations of a measured phase.
class Meter {
 public:
  void Start() {
    allocs_ = AllocCount();
    cpu_ = CpuNs();
    wall_ = WallNs();
  }
  void Stop(Unit& u) const {
    const int64_t wall = WallNs();
    const int64_t cpu = CpuNs();
    const uint64_t allocs = AllocCount();
    u.host_ms += static_cast<double>(wall - wall_) / 1e6;
    u.cpu_ms += static_cast<double>(cpu - cpu_) / 1e6;
    u.allocs += allocs - allocs_;
  }

 private:
  int64_t wall_ = 0;
  int64_t cpu_ = 0;
  uint64_t allocs_ = 0;
};

void AddOutput(Unit& u, const std::string& key, uint64_t v) {
  u.outputs.emplace_back(key, std::to_string(v));
}
void AddOutput(Unit& u, const std::string& key, double v) {
  u.outputs.emplace_back(key, Num(v));
}

/// The outputs every workload reports, plus the raw counters the
/// per-layer metrics are computed from.
void RecordPhase(Unit& u, const core::PhaseMetrics& m,
                 const voodb::obs::MetricSnapshot& registry) {
  u.committed = m.transactions;
  AddOutput(u, "committed", m.transactions);
  AddOutput(u, "restarts", m.transaction_restarts);
  AddOutput(u, "total_ios", m.total_ios);
  AddOutput(u, "reads", m.reads);
  AddOutput(u, "writes", m.writes);
  AddOutput(u, "sim_time_ms", m.sim_time_ms);
  AddOutput(u, "response_p99_ms", m.ResponseQuantileMs(0.99));

  auto counter = [&registry](const char* name) {
    const auto it = registry.counters.find(name);
    return it == registry.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  auto& r = u.raw;
  r["restarts"] = static_cast<double>(m.transaction_restarts);
  r["ios"] = static_cast<double>(m.total_ios);
  r["writes"] = static_cast<double>(m.writes);
  r["buffer_hits"] = static_cast<double>(m.buffer_hits);
  r["buffer_requests"] = static_cast<double>(m.buffer_requests);
  r["sim_time_ms"] = m.sim_time_ms;
  r["response_p99_ms"] = m.ResponseQuantileMs(0.99);
  r["lock_wait_p99_ms"] = m.lock_wait_histogram.Quantile(0.99);
  const voodb::obs::ComponentHistograms& cp = m.component_histograms;
  r["cp_lock_wait"] = cp.lock_wait.sum();
  r["cp_io"] = cp.io.sum();
  r["cp_retry"] = cp.retry.sum();
  r["cp_total"] = cp.lock_wait.sum() + cp.io.sum() + cp.net.sum() +
                  cp.cpu.sum() + cp.retry.sum() + cp.other.sum();
  r["cc_requests"] = counter("cc.requests");
  r["cc_immediate_grants"] = counter("cc.immediate_grants");
  r["cc_waits"] = counter("cc.waits");
  r["heap_pushes"] = counter("sim.queue.heap_pushes");
  r["heap_pops"] = counter("sim.queue.heap_pops");
  r["lane_pops"] = counter("sim.queue.lane_pops");
  r["skims"] = counter("sim.queue.skims");
}

void RecordHooks(Unit& u, const std::vector<DispatchGaps>& gaps,
                 const TimedSource* source) {
  std::vector<uint32_t> all;
  for (const DispatchGaps& g : gaps) {
    all.insert(all.end(), g.gaps.begin(), g.gaps.end());
  }
  u.raw["dispatch_p50"] = Quantile(all, 0.50);
  u.raw["dispatch_p99"] = Quantile(all, 0.99);
  if (source != nullptr) {
    u.raw["next_calls"] = static_cast<double>(source->calls);
    u.raw["next_ns"] = static_cast<double>(source->ns);
    u.raw["next_allocs"] = static_cast<double>(source->allocs);
    u.raw["next_accesses"] = static_cast<double>(source->accesses);
  }
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
  return buf;
}

/// contention / ycsb_hot / dstc: one serial VoodbSystem.
Unit RunSerialUnit(const Options& o, const Leg& leg, uint64_t seed) {
  Unit u;
  u.leg = leg.name;
  u.seed = seed;
  const uint64_t n = Transactions(o);
  const bool dstc = o.kind == Kind::kDstc;
  u.requested = dstc ? 2 * n : n;
  SpanScope unit_span("unit");

  const int64_t setup0 = WallNs();
  std::unique_ptr<ocb::ObjectBase> base;
  {
    SpanScope span("ocb.generate");
    base = std::make_unique<ocb::ObjectBase>(
        ocb::ObjectBase::Generate(Params(o)));
  }
  u.generate_ms = static_cast<double>(WallNs() - setup0) / 1e6;
  core::VoodbConfig cfg = Config(o);
  cfg.trace_spans = leg.spans;
  if (!leg.record_path.empty()) {
    cfg.trace_record = true;
    cfg.trace_path = leg.record_path;
  }
  std::unique_ptr<core::VoodbSystem> sys;
  std::unique_ptr<voodb::emu::TexasEmulator> texas;
  std::unique_ptr<ocb::WorkloadSource> source;
  std::unique_ptr<ocb::WorkloadSource> emu_source;
  {
    SpanScope span("voodb.construct");
    std::unique_ptr<voodb::cluster::ClusteringPolicy> policy;
    if (dstc) policy = std::make_unique<voodb::cluster::DstcPolicy>();
    sys = std::make_unique<core::VoodbSystem>(cfg, base.get(),
                                              std::move(policy), seed);
    const desp::RandomStream stream = desp::RandomStream(seed).Derive(1);
    if (o.kind == Kind::kYcsbHot) {
      source = std::make_unique<ocb::YcsbZipfWorkload>(base.get(), stream);
    } else {
      source = std::make_unique<ocb::WorkloadGenerator>(base.get(), stream);
    }
  }
  if (dstc) {
    SpanScope span("emu.construct");
    voodb::emu::TexasConfig tc;
    tc.memory_pages = voodb::emu::TexasConfig::FramesForMemory(8.0, 4096);
    texas = std::make_unique<voodb::emu::TexasEmulator>(tc, base.get(),
                                                        seed);
    texas->SetClusteringPolicy(std::make_unique<voodb::cluster::DstcPolicy>());
    emu_source = std::make_unique<ocb::WorkloadGenerator>(
        base.get(), desp::RandomStream(seed));
  }
  u.setup_s = static_cast<double>(WallNs() - setup0) / 1e9;
  if (leg.setup_only) return u;

  std::vector<DispatchGaps> gaps(1);
  EventDigest digest;
  TimedSource timed(source.get());
  if (leg.hooks) {
    sys->scheduler().SetProfileHook(&DispatchGaps::Hook, &gaps[0]);
    sys->scheduler().SetTraceHook(&EventDigest::Hook, &digest);
  }
  ocb::WorkloadSource& src = leg.hooks ? timed : *source;
  const uint64_t events0 = sys->scheduler().ExecutedEvents();

  Meter meter;
  core::PhaseMetrics m;
  if (!dstc) {
    meter.Start();
    {
      SpanScope span("voodb.run_transactions");
      m = sys->RunTransactions(src, n);
    }
    meter.Stop(u);
  } else {
    const auto kind = ocb::TransactionKind::kHierarchyTraversal;
    core::PhaseMetrics pre;
    core::PhaseMetrics post;
    core::ClusteringMetrics cm;
    meter.Start();
    const int64_t t0 = WallNs();
    {
      SpanScope span("voodb.usage_pre");
      pre = sys->RunTransactionsOfKind(src, kind, n);
    }
    const int64_t t1 = WallNs();
    {
      SpanScope span("voodb.trigger_clustering");
      cm = sys->TriggerClustering();
    }
    const int64_t t2 = WallNs();
    {
      SpanScope span("voodb.drop_buffer");
      sys->DropBuffer();
    }
    const int64_t t3 = WallNs();
    {
      SpanScope span("voodb.usage_post");
      post = sys->RunTransactionsOfKind(src, kind, n);
    }
    const int64_t t4 = WallNs();
    meter.Stop(u);

    // The same phases on the Texas emulator (direct execution).
    voodb::emu::TexasClusteringMetrics ecm;
    core::PhaseMetrics epre;
    core::PhaseMetrics epost;
    const int64_t e0 = WallNs();
    {
      SpanScope span("emu.usage_pre");
      epre = texas->RunTransactionsOfKind(*emu_source, kind, n);
    }
    const int64_t e1 = WallNs();
    {
      SpanScope span("emu.perform_clustering");
      ecm = texas->PerformClustering();
    }
    {
      SpanScope span("emu.drop_memory");
      texas->DropMemory();
    }
    const int64_t e2 = WallNs();
    {
      SpanScope span("emu.usage_post");
      epost = texas->RunTransactionsOfKind(*emu_source, kind, n);
    }
    const int64_t e3 = WallNs();

    m = pre;
    m.transactions += post.transactions;
    m.transaction_restarts += post.transaction_restarts;
    m.total_ios += post.total_ios;
    m.reads += post.reads;
    m.writes += post.writes;
    m.buffer_hits += post.buffer_hits;
    m.buffer_requests += post.buffer_requests;
    m.sim_time_ms += post.sim_time_ms;
    m.response_histogram.Merge(post.response_histogram);
    m.lock_wait_histogram.Merge(post.lock_wait_histogram);
    m.component_histograms.Merge(post.component_histograms);
    m.total_ios += cm.overhead_ios;  // the reorganization's I/Os

    RecordPhase(u, m, sys->metric_registry().Snapshot());
    AddOutput(u, "pre_ios", pre.total_ios);
    AddOutput(u, "post_ios", post.total_ios);
    AddOutput(u, "cluster_overhead_ios", cm.overhead_ios);
    AddOutput(u, "clusters", cm.num_clusters);
    AddOutput(u, "emu_pre_ios", epre.total_ios);
    AddOutput(u, "emu_overhead_ios", ecm.overhead_ios);
    AddOutput(u, "emu_post_ios", epost.total_ios);
    u.raw["trigger_ms"] = static_cast<double>(t2 - t1) / 1e6;
    u.raw["cluster_overhead_ios"] = static_cast<double>(cm.overhead_ios);
    u.raw["cluster_gain"] = Ratio(static_cast<double>(pre.total_ios),
                                  static_cast<double>(post.total_ios));
    u.raw["sim_usage_ms"] = static_cast<double>((t1 - t0) + (t4 - t3)) / 1e6;
    u.raw["sim_usage_ios"] =
        static_cast<double>(pre.total_ios + post.total_ios);
    u.raw["emu_usage_ms"] = static_cast<double>((e1 - e0) + (e3 - e2)) / 1e6;
    u.raw["emu_usage_ios"] =
        static_cast<double>(epre.total_ios + epost.total_ios);
    u.raw["emu_txns"] =
        static_cast<double>(epre.transactions + epost.transactions);
  }
  if (!dstc) RecordPhase(u, m, sys->metric_registry().Snapshot());
  u.raw["events"] =
      static_cast<double>(sys->scheduler().ExecutedEvents() - events0);
  if (leg.hooks) {
    sys->scheduler().SetProfileHook(nullptr, nullptr);
    sys->scheduler().SetTraceHook(nullptr, nullptr);
    u.outputs.emplace_back("event_digest", Hex(digest.h));
    RecordHooks(u, gaps, &timed);
  }
  return u;
}

/// sharded: ShardedVoodb on the parallel kernel.
Unit RunShardedUnit(const Options& o, const Leg& leg, uint64_t seed) {
  Unit u;
  u.leg = leg.name;
  u.seed = seed;
  const uint64_t n = Transactions(o);
  const core::VoodbConfig base_cfg = Config(o);
  u.requested = n * base_cfg.shards;
  SpanScope unit_span("unit");

  const int64_t setup0 = WallNs();
  std::unique_ptr<ocb::ObjectBase> base;
  {
    SpanScope span("ocb.generate");
    base = std::make_unique<ocb::ObjectBase>(
        ocb::ObjectBase::Generate(Params(o)));
  }
  u.generate_ms = static_cast<double>(WallNs() - setup0) / 1e6;
  core::VoodbConfig cfg = base_cfg;
  cfg.trace_spans = leg.spans;
  std::unique_ptr<core::ShardedVoodb> sys;
  std::unique_ptr<voodb::exp::ThreadPool> pool;
  {
    SpanScope span("voodb.construct");
    sys = std::make_unique<core::ShardedVoodb>(cfg, base.get(), seed);
    if (leg.pooled) {
      pool = std::make_unique<voodb::exp::ThreadPool>(
          voodb::exp::ExecutorOptions{cfg.sim_threads});
    }
  }
  u.setup_s = static_cast<double>(WallNs() - setup0) / 1e9;
  if (leg.setup_only) return u;

  std::vector<DispatchGaps> gaps(sys->shards());
  if (leg.hooks) {
    for (size_t s = 0; s < sys->shards(); ++s) {
      sys->kernel().partition(s).SetProfileHook(&DispatchGaps::Hook, &gaps[s]);
    }
  }
  const uint64_t events0 = sys->kernel().ExecutedEvents();
  const uint64_t windows0 = sys->kernel().Windows();

  Meter meter;
  core::PhaseMetrics m;
  meter.Start();
  {
    SpanScope span("voodb.sharded_run");
    m = sys->Run(n, pool.get());
  }
  meter.Stop(u);

  RecordPhase(u, m, sys->MergedMetrics());
  AddOutput(u, "remote_subtxns", sys->remote_subtxns());
  u.outputs.emplace_back("trace_digest", Hex(sys->TraceDigest()));
  u.raw["events"] =
      static_cast<double>(sys->kernel().ExecutedEvents() - events0);
  u.raw["windows"] = static_cast<double>(sys->kernel().Windows() - windows0);
  u.raw["remote"] = static_cast<double>(sys->remote_subtxns());
  if (leg.hooks) {
    for (size_t s = 0; s < sys->shards(); ++s) {
      sys->kernel().partition(s).SetProfileHook(nullptr, nullptr);
    }
    RecordHooks(u, gaps, nullptr);
  }
  return u;
}

Unit RunUnit(const Options& o, const Leg& leg, uint64_t seed) {
  g_spans.enabled = leg.hooks;
  Unit u = o.kind == Kind::kSharded ? RunShardedUnit(o, leg, seed)
                                    : RunSerialUnit(o, leg, seed);
  g_spans.enabled = false;
  return u;
}

// --- Traced rounds -------------------------------------------------------------

struct Round {
  Unit plain;      ///< hooks off, trace_spans on (what users run)
  Unit no_spans;   ///< hooks off, trace_spans off
  Unit traced;     ///< hooks on
  Unit serial;     ///< sharded only: hooks off, no thread pool
  Unit recorded;   ///< plain-buffer workloads, first round: page trace on
  double replay_ns_per_access = 0.0;
  double reference_ms = 0.0;
  std::map<std::string, double> layer;
};

/// Replays the page stream recorded at `path` through a fresh buffer
/// manager; returns host ns per page access.  Adds whether the replay
/// reproduced the recording's counters to `u`'s outputs.
double TimeReplay(const std::string& path, Unit& u) {
  double ns_per_access = 0.0;
  {
    voodb::trace::Reader reader(path);
    const voodb::trace::Header header = reader.header();
    const int64_t t0 = WallNs();
    const voodb::trace::ReplayStats stats = voodb::trace::ReplayPages(reader);
    const int64_t t1 = WallNs();
    ns_per_access = Ratio(static_cast<double>(t1 - t0),
                          static_cast<double>(stats.accesses));
    const bool verified = voodb::trace::ReplayVerifiable(header.flags) &&
                          stats.Matches(header.counters);
    AddOutput(u, "replay_verified", uint64_t{verified ? 1u : 0u});
  }
  std::remove(path.c_str());
  return ns_per_access;
}

void ComputeLayer(const Options& o, Round& r) {
  const Unit& t = r.traced;
  const Unit& p = r.plain;
  auto raw = [](const Unit& u, const char* key) {
    const auto it = u.raw.find(key);
    return it == u.raw.end() ? 0.0 : it->second;
  };
  const double txn = static_cast<double>(t.committed);
  const double restarts = raw(t, "restarts");
  const double events = raw(t, "events");
  const double heap_pops = raw(t, "heap_pops");
  const double lane_pops = raw(t, "lane_pops");
  const double windows = raw(t, "windows");
  auto& L = r.layer;

  L["desp.events_per_txn"] = Ratio(events, txn);
  L["desp.host_ns_per_event"] = Ratio(p.host_ms * 1e6, raw(p, "events"));
  L["desp.dispatch_ns_p50"] = raw(t, "dispatch_p50");
  L["desp.dispatch_ns_p99"] = raw(t, "dispatch_p99");
  L["desp.lane_pop_share"] = Ratio(lane_pops, lane_pops + heap_pops);
  L["desp.heap_ops_per_txn"] = Ratio(raw(t, "heap_pushes") + heap_pops, txn);
  L["desp.skims_per_txn"] = Ratio(raw(t, "skims"), txn);
  L["desp.windows_per_ktxn"] = Ratio(windows * 1000.0, txn);
  L["desp.events_per_window"] = Ratio(events, windows);
  L["desp.host_us_per_window"] = Ratio(p.host_ms * 1000.0, raw(p, "windows"));
  L["desp.thread_speedup"] =
      o.kind == Kind::kSharded ? Ratio(r.serial.host_ms, p.host_ms) : 0.0;

  L["cc.restarts_per_commit"] = Ratio(restarts, txn);
  L["cc.commit_ratio"] = Ratio(txn, txn + restarts);
  L["cc.waits_per_txn"] = Ratio(raw(t, "cc_waits"), txn);
  L["cc.immediate_grant_share"] =
      Ratio(raw(t, "cc_immediate_grants"), raw(t, "cc_requests"));
  L["cc.lock_wait_p99_ms"] = raw(t, "lock_wait_p99_ms");

  L["voodb.sim_tps"] = Ratio(txn * 1000.0, raw(t, "sim_time_ms"));
  L["voodb.response_p99_ms"] = raw(t, "response_p99_ms");
  L["voodb.cp.lock_wait_share"] =
      Ratio(raw(t, "cp_lock_wait"), raw(t, "cp_total"));
  L["voodb.cp.io_share"] = Ratio(raw(t, "cp_io"), raw(t, "cp_total"));
  L["voodb.cp.retry_share"] = Ratio(raw(t, "cp_retry"), raw(t, "cp_total"));
  L["voodb.remote_per_ktxn"] = Ratio(raw(t, "remote") * 1000.0, txn);
  L["voodb.des_over_emu"] =
      Ratio(raw(p, "sim_usage_ms"), raw(p, "emu_usage_ms"));

  L["storage.hit_rate"] =
      Ratio(raw(t, "buffer_hits"), raw(t, "buffer_requests"));
  L["storage.ios_per_txn"] = Ratio(raw(t, "ios"), txn);
  L["storage.writes_per_txn"] = Ratio(raw(t, "writes"), txn);
  // Measured in the first round only; absent from the others.
  if (r.replay_ns_per_access > 0.0) {
    L["storage.replay_ns_per_access"] = r.replay_ns_per_access;
  }

  L["ocb.generate_ms"] = p.generate_ms;
  L["ocb.next_us"] = Ratio(raw(t, "next_ns") / 1000.0, raw(t, "next_calls"));
  L["ocb.gen_share"] = Ratio(raw(t, "next_ns"), t.host_ms * 1e6);
  L["ocb.allocs_per_txn"] = Ratio(raw(t, "next_allocs"), txn);
  L["ocb.accesses_per_txn"] =
      Ratio(raw(t, "next_accesses"), raw(t, "next_calls"));

  L["cluster.trigger_ms"] = raw(p, "trigger_ms");
  L["cluster.overhead_ios"] = raw(t, "cluster_overhead_ios");
  L["cluster.gain"] = raw(t, "cluster_gain");

  L["emu.host_ms_per_ktxn"] =
      Ratio(raw(p, "emu_usage_ms") * 1000.0, raw(p, "emu_txns"));
  L["emu.io_ratio"] = Ratio(raw(t, "sim_usage_ios"), raw(t, "emu_usage_ios"));

  L["obs.spans_overhead"] = Ratio(p.host_ms, r.no_spans.host_ms);
  L["bench.trace_overhead"] = Ratio(t.host_ms, p.host_ms);
  L["bench.reference_ms"] = r.reference_ms;
}

Round RunRound(const Options& o, size_t index) {
  // Every round runs input set 0, so per-layer counts repeat exactly.
  const uint64_t seed = InputSeed(o, 0);
  Round r;
  r.reference_ms = ReferenceKernelMs(Config(o).sim_threads);
  Leg plain;
  plain.name = "plain";
  Leg no_spans;
  no_spans.name = "no_spans";
  no_spans.spans = false;
  Leg traced;
  traced.name = "traced";
  traced.hooks = true;
  // Alternate the order of the paired legs between rounds.
  if (index % 2 == 0) {
    r.plain = RunUnit(o, plain, seed);
    r.no_spans = RunUnit(o, no_spans, seed);
  } else {
    r.no_spans = RunUnit(o, no_spans, seed);
    r.plain = RunUnit(o, plain, seed);
  }
  r.traced = RunUnit(o, traced, seed);
  if (o.kind == Kind::kSharded) {
    Leg serial;
    serial.name = "serial";
    serial.pooled = false;
    r.serial = RunUnit(o, serial, seed);
  }
  if (index == 0 && (o.kind == Kind::kContention || o.kind == Kind::kYcsbHot)) {
    Leg record;
    record.name = "recorded";
    record.record_path = o.scratch + "/perfbench-" + o.workload + "-" +
                         std::to_string(seed) + ".trace";
    r.recorded = RunUnit(o, record, seed);
    r.replay_ns_per_access = TimeReplay(record.record_path, r.recorded);
  }
  ComputeLayer(o, r);
  return r;
}

// --- Output ---------------------------------------------------------------------

void WriteUnit(std::ostream& os, const Unit& u) {
  os << "{\"leg\":" << Quoted(u.leg) << ",\"seed\":" << u.seed
     << ",\"setup_s\":" << Num(u.setup_s)
     << ",\"generate_ms\":" << Num(u.generate_ms)
     << ",\"host_ms\":" << Num(u.host_ms) << ",\"cpu_ms\":" << Num(u.cpu_ms)
     << ",\"reference_ms\":" << Num(u.reference_ms)
     << ",\"allocs\":" << u.allocs << ",\"committed\":" << u.committed
     << ",\"requested\":" << u.requested << ",\"outputs\":{";
  for (size_t i = 0; i < u.outputs.size(); ++i) {
    os << (i ? "," : "") << Quoted(u.outputs[i].first) << ":"
       << u.outputs[i].second;
  }
  os << "}}";
}

/// Per span name: calls, total host ms, and self ms (total minus the part
/// covered by child spans).
void WriteSpanSummary(std::ostream& os) {
  const std::vector<Span>& spans = g_spans.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.begin_ns;
  }
  struct Agg {
    uint64_t calls = 0;
    int64_t total = 0;
    int64_t self = 0;
  };
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    Agg& a = by_name[spans[i].name];
    const int64_t d = spans[i].end_ns - spans[i].begin_ns;
    ++a.calls;
    a.total += d;
    a.self += d - child_ns[i];
  }
  os << "{";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    os << (first ? "" : ",") << Quoted(name) << ":{\"calls\":" << a.calls
       << ",\"total_ms\":" << Num(static_cast<double>(a.total) / 1e6)
       << ",\"self_ms\":" << Num(static_cast<double>(a.self) / 1e6) << "}";
    first = false;
  }
  os << "}";
}

void WriteSpans(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const std::vector<Span>& spans = g_spans.spans();
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":"
        << Quoted(spans[i].name) << ",\"parent\":" << spans[i].parent
        << ",\"begin_ns\":" << spans[i].begin_ns
        << ",\"end_ns\":" << spans[i].end_ns << "}";
  }
  out << "\n]\n";
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--scale") {
      const std::string s = value();
      if (s != "full" && s != "tiny") throw std::runtime_error("bad --scale");
      o.tiny = s == "tiny";
    } else if (arg == "--scratch") {
      o.scratch = value();
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else if (arg == "--check-legs") {
      o.check_legs = true;
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  const std::map<std::string, Kind> kinds = {{"contention", Kind::kContention},
                                             {"ycsb_hot", Kind::kYcsbHot},
                                             {"dstc", Kind::kDstc},
                                             {"sharded", Kind::kSharded}};
  const auto it = kinds.find(o.workload);
  if (it == kinds.end()) {
    throw std::runtime_error("unknown workload " + o.workload);
  }
  o.kind = it->second;
  return o;
}

/// Peak resident memory of this process image.  VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the peak of the process
/// that exec'ed us (run.py's Python process would otherwise dominate).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

int Main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  const uint32_t reference_threads = Config(o).sim_threads;
  constexpr size_t kMinRounds = 2;
  constexpr int kSetupBlocks = 6;
  const int64_t deadline =
      WallNs() + static_cast<int64_t>(o.seconds * 1e9);

  std::vector<Unit> units;
  std::vector<Round> rounds;
  std::vector<std::pair<double, double>> setup_samples;  ///< (s, ref ms)
  double peak_rss_mb = 0.0;
  if (o.trace) {
    do {
      rounds.push_back(RunRound(o, rounds.size()));
    } while (WallNs() < deadline || rounds.size() < kMinRounds);
    for (const Round& r : rounds) {
      for (const Unit* u : {&r.plain, &r.no_spans, &r.traced, &r.serial,
                            &r.recorded}) {
        if (!u->leg.empty()) units.push_back(*u);
      }
    }
    peak_rss_mb = PeakRssMb();
  } else {
    units.push_back(RunUnit(o, Leg{}, InputSeed(o, 0)));
    double reference_before = ReferenceKernelMs(reference_threads);
    units.back().reference_ms = reference_before;
    // Set-up takes milliseconds; repeat it on its own, in blocks timed
    // between reference-kernel runs, so its median rests on enough
    // samples.
    Leg setup;
    setup.name = "setup";
    setup.setup_only = true;
    for (int block = 0; block < kSetupBlocks; ++block) {
      std::vector<double> times;
      for (size_t i = 0; i < kInputSets; ++i) {
        times.push_back(RunUnit(o, setup, InputSeed(o, i)).setup_s);
      }
      const double reference_after = ReferenceKernelMs(reference_threads);
      for (double t : times) {
        setup_samples.emplace_back(t, (reference_before + reference_after) / 2);
      }
      reference_before = reference_after;
    }
    while (WallNs() < deadline || units.size() < kInputSets) {
      units.push_back(
          RunUnit(o, Leg{}, InputSeed(o, units.size() % kInputSets)));
      const double reference_after = ReferenceKernelMs(reference_threads);
      units.back().reference_ms = (reference_before + reference_after) / 2;
      reference_before = reference_after;
    }
    peak_rss_mb = PeakRssMb();
    if (o.check_legs) {
      Leg check;
      check.name = "check";
      check.hooks = true;
      check.spans = false;
      check.pooled = false;
      for (size_t i = 0; i < kInputSets; ++i) {
        units.push_back(RunUnit(o, check, InputSeed(o, i)));
      }
    }
  }

  std::ostringstream os;
  os << "{\"workload\":" << Quoted(o.workload) << ",\"seed\":" << o.seed
     << ",\"scale\":" << Quoted(o.tiny ? "tiny" : "full")
     << ",\"peak_rss_mb\":" << Num(peak_rss_mb) << ",\"setup_samples\":[";
  for (size_t i = 0; i < setup_samples.size(); ++i) {
    os << (i ? "," : "") << "[" << Num(setup_samples[i].first) << ","
       << Num(setup_samples[i].second) << "]";
  }
  os << "],\"units\":[";
  for (size_t i = 0; i < units.size(); ++i) {
    if (i) os << ",";
    WriteUnit(os, units[i]);
  }
  os << "],\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    os << (i ? "," : "") << "{";
    bool first = true;
    for (const auto& [name, v] : rounds[i].layer) {
      os << (first ? "" : ",") << Quoted(name) << ":" << Num(v);
      first = false;
    }
    os << "}";
  }
  os << "],\"span_summary\":";
  WriteSpanSummary(os);
  os << "}";
  std::cout << os.str() << std::endl;
  if (!o.spans_out.empty()) WriteSpans(o.spans_out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
