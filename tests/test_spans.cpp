/// \file test_spans.cpp
/// \brief Causal span tracing: tree recording, critical-path folding
/// (checked against a reference tree walk), the Sum()==response contract,
/// a component-histogram golden, sampling determinism,
/// observe-neutrality, and cross-shard exemplar stitching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "cc/protocol.hpp"
#include "desp/scheduler.hpp"
#include "obs/spans.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace voodb {
namespace {

using obs::AbortCause;
using obs::ComponentHistograms;
using obs::CriticalPath;
using obs::Exemplar;
using obs::ExemplarSpan;
using obs::SpanKind;
using obs::SpanTracer;

SpanTracer::Options AllOptions(uint32_t exemplars = 8) {
  SpanTracer::Options opts;
  opts.sample_rate = 1.0;
  opts.exemplars = exemplars;
  return opts;
}

/// Every span interval must lie inside its parent's (preorder + depth
/// encode the tree), and no span may end before it begins.
void ExpectNested(const Exemplar& e) {
  std::vector<const ExemplarSpan*> stack;
  for (const ExemplarSpan& s : e.spans) {
    EXPECT_LE(s.begin_ms, s.end_ms);
    while (stack.size() > s.depth) stack.pop_back();
    if (!stack.empty()) {
      const ExemplarSpan* parent = stack.back();
      EXPECT_GE(s.begin_ms, parent->begin_ms);
      EXPECT_LE(s.end_ms, parent->end_ms);
    }
    stack.push_back(&s);
  }
}

// --- SpanTracer unit behavior ----------------------------------------------

TEST(SpanTracer, BuildsTreeAndFoldsCriticalPathExactly) {
  desp::Scheduler sched;
  SpanTracer tracer(&sched, AllOptions());
  tracer.RecordTrees(true);
  const uint32_t t = tracer.BeginTrace(1, 0.0);
  ASSERT_NE(t, 0u);
  tracer.Open(t, SpanKind::kAttempt, 1, 0.0);
  tracer.Leaf(t, SpanKind::kCpu, 0, 0.0, 1.5);
  tracer.Leaf(t, SpanKind::kCcWait, 7, 1.5, 3.0);
  tracer.Open(t, SpanKind::kBuffer, 7, 3.0);
  tracer.Leaf(t, SpanKind::kIo, 2, 3.0, 8.0);
  tracer.Close(t, 8.0);  // buffer (fully covered by the disk IO)
  tracer.Close(t, 9.0);  // attempt
  tracer.FinishCommitted(t, 9.0, 9.0);

  ASSERT_EQ(tracer.exemplars().size(), 1u);
  const Exemplar& e = tracer.exemplars().front();
  EXPECT_DOUBLE_EQ(e.path.cpu_ms, 1.5);
  EXPECT_DOUBLE_EQ(e.path.lock_wait_ms, 1.5);
  EXPECT_DOUBLE_EQ(e.path.io_ms, 5.0);
  EXPECT_DOUBLE_EQ(e.path.net_ms, 0.0);
  EXPECT_DOUBLE_EQ(e.path.retry_ms, 0.0);
  // The exactness contract, compared as bits.
  const double sum = e.path.Sum();
  EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
  // root + attempt + cpu + cc_wait + buffer + io, preorder.
  ASSERT_EQ(e.spans.size(), 6u);
  EXPECT_EQ(e.spans[0].kind, SpanKind::kTxn);
  EXPECT_EQ(e.spans[1].kind, SpanKind::kAttempt);
  ExpectNested(e);
}

TEST(SpanTracer, AbortedAttemptsAndBackoffsFoldIntoRetry) {
  desp::Scheduler sched;
  SpanTracer tracer(&sched, AllOptions());
  tracer.RecordTrees(true);
  const uint32_t t = tracer.BeginTrace(3, 0.0);
  ASSERT_NE(t, 0u);
  tracer.Open(t, SpanKind::kAttempt, 1, 0.0);
  tracer.Leaf(t, SpanKind::kCpu, 0, 0.0, 2.0);
  tracer.NoteAbort(t, AbortCause::kNoWait);
  tracer.Close(t, 2.0);  // aborted attempt
  tracer.Leaf(t, SpanKind::kBackoff, 1, 2.0, 5.0);
  tracer.Open(t, SpanKind::kAttempt, 2, 5.0);
  tracer.Leaf(t, SpanKind::kCpu, 0, 5.0, 6.0);
  tracer.Close(t, 9.0);
  tracer.FinishCommitted(t, 9.0, 9.0);

  ASSERT_EQ(tracer.exemplars().size(), 1u);
  const Exemplar& e = tracer.exemplars().front();
  // The whole first attempt (2.0) plus the backoff (3.0) is redo work.
  EXPECT_DOUBLE_EQ(e.path.retry_ms, 5.0);
  EXPECT_DOUBLE_EQ(e.path.cpu_ms, 1.0);
  const double sum = e.path.Sum();
  EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
  bool saw_cause = false;
  for (const ExemplarSpan& s : e.spans) {
    if (s.kind == SpanKind::kAttempt && s.label == 1) {
      EXPECT_EQ(s.abort_cause, AbortCause::kNoWait);
      saw_cause = true;
    }
  }
  EXPECT_TRUE(saw_cause);
}

TEST(SpanTracer, FinishedTracesIgnoreLateWrites) {
  desp::Scheduler sched;
  SpanTracer tracer(&sched, AllOptions());
  tracer.RecordTrees(true);
  const uint32_t t = tracer.BeginTrace(1, 0.0);
  tracer.Open(t, SpanKind::kAttempt, 1, 0.0);
  tracer.Close(t, 1.0);
  tracer.FinishCommitted(t, 1.0, 1.0);
  // The slot is recycled; writes against the stale ctx (old generation)
  // must be dropped, not attributed to whoever reuses the slot.
  tracer.Leaf(t, SpanKind::kIo, 0, 1.0, 2.0);
  tracer.NoteAbort(t, AbortCause::kDeadlock);
  const uint32_t t2 = tracer.BeginTrace(2, 2.0);
  ASSERT_NE(t2, t);  // generation bumps the ctx id on slot reuse
  tracer.Open(t2, SpanKind::kAttempt, 1, 2.0);
  tracer.Close(t2, 3.0);
  tracer.FinishCommitted(t2, 1.0, 3.0);
  EXPECT_EQ(tracer.traces_finished(), 2u);
  // Neither late write leaked into the second trace's tree.
  for (const Exemplar& e : tracer.exemplars()) {
    for (const ExemplarSpan& s : e.spans) {
      EXPECT_NE(s.kind, SpanKind::kIo);
      EXPECT_EQ(s.abort_cause, AbortCause::kNone);
    }
  }
}

TEST(SpanTracer, SamplingIsDeterministicAndRateShaped) {
  EXPECT_TRUE(SpanTracer::Sampled(7, 123, 1.0));
  EXPECT_FALSE(SpanTracer::Sampled(7, 123, 0.0));
  uint64_t sampled = 0;
  for (uint64_t id = 0; id < 4000; ++id) {
    const bool first = SpanTracer::Sampled(99, id, 0.5);
    EXPECT_EQ(first, SpanTracer::Sampled(99, id, 0.5));  // stable
    if (first) ++sampled;
  }
  EXPECT_GT(sampled, 1600u);
  EXPECT_LT(sampled, 2400u);
}

// --- End-to-end through the VOODB model ------------------------------------

ocb::OcbParameters ContendedWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 8;
  p.num_objects = 300;
  p.p_set = 0.0;
  p.p_simple = 0.0;
  p.p_hierarchy = 0.0;
  p.p_stochastic = 0.0;
  p.p_random_access = 1.0;
  p.random_access_count = 6;
  p.p_update = 0.5;
  p.seed = 17;
  return p;
}

core::VoodbConfig TracedConfig() {
  core::VoodbConfig cfg;
  cfg.system_class = core::SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 64;
  cfg.num_users = 8;
  cfg.multiprogramming_level = 8;
  cfg.use_lock_manager = true;
  cfg.cc_protocol = cc::ProtocolKind::kNoWait;
  cfg.get_lock_ms = 0.2;
  cfg.release_lock_ms = 0.2;
  cfg.trace_spans = true;
  cfg.trace_sample_rate = 1.0;
  cfg.trace_exemplars = 64;  // >= transactions: every tree retained
  return cfg;
}

TEST(SpanTracing, EverySpanClosesAndComponentsSumExactly) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(TracedConfig(), &base, nullptr, /*seed=*/5);
  sys.span_tracer()->RecordTrees(true);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5).Derive(1));
  const core::PhaseMetrics m = sys.RunTransactions(gen, 60);
  ASSERT_EQ(m.transactions, 60u);

  const SpanTracer* tracer = sys.span_tracer();
  ASSERT_NE(tracer, nullptr);
  // Every admitted transaction's trace retired at commit — nothing leaks.
  EXPECT_EQ(tracer->traces_started(), 60u);
  EXPECT_EQ(tracer->traces_finished(), 60u);
  // One per-component sample per committed transaction.
  EXPECT_EQ(m.component_histograms.lock_wait.count(), 60u);
  EXPECT_EQ(m.component_histograms.io.count(), 60u);
  EXPECT_EQ(m.component_histograms.retry.count(), 60u);

  ASSERT_EQ(tracer->exemplars().size(), 60u);
  bool saw_abort = false;
  for (const Exemplar& e : tracer->exemplars()) {
    const double sum = e.path.Sum();
    EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
    ASSERT_FALSE(e.spans.empty());
    EXPECT_EQ(e.spans.front().kind, SpanKind::kTxn);
    // The root covers the whole response, closed at retirement.
    EXPECT_DOUBLE_EQ(e.spans.front().end_ms - e.spans.front().begin_ms,
                     e.response_ms);
    ExpectNested(e);
    for (const ExemplarSpan& s : e.spans) {
      if (s.abort_cause != AbortCause::kNone) saw_abort = true;
    }
  }
  // The contended no-wait run restarts transactions; the protocol must
  // have annotated the aborted attempts.
  if (m.transaction_restarts > 0) {
    EXPECT_TRUE(saw_abort);
  }
}

TEST(SpanTracing, TracingIsSimulationNeutral) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  auto run = [&base](bool traced, double rate) {
    core::VoodbConfig cfg = TracedConfig();
    cfg.trace_spans = traced;
    cfg.trace_sample_rate = rate;
    core::VoodbSystem sys(cfg, &base, nullptr, /*seed=*/5);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5).Derive(1));
    return sys.RunTransactions(gen, 80);
  };
  const core::PhaseMetrics off = run(false, 1.0);
  const core::PhaseMetrics on = run(true, 1.0);
  const core::PhaseMetrics partial = run(true, 0.25);

  for (const core::PhaseMetrics* m : {&on, &partial}) {
    EXPECT_EQ(m->transactions, off.transactions);
    EXPECT_EQ(m->object_accesses, off.object_accesses);
    EXPECT_EQ(m->transaction_restarts, off.transaction_restarts);
    EXPECT_EQ(m->total_ios, off.total_ios);
    EXPECT_EQ(m->buffer_hits, off.buffer_hits);
    // Bit-compared: tracing must not move a single event.
    EXPECT_EQ(std::memcmp(&m->sim_time_ms, &off.sim_time_ms,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&m->mean_response_ms, &off.mean_response_ms,
                          sizeof(double)),
              0);
  }
  // Partial sampling traces fewer transactions but the same simulation.
  EXPECT_EQ(on.component_histograms.io.count(), 80u);
  EXPECT_LT(partial.component_histograms.io.count(), 80u);
  EXPECT_GT(partial.component_histograms.io.count(), 0u);
}

// --- The streaming fold against a reference tree walk ----------------------

/// Reference model of the critical-path fold: the exclusive post-order
/// walk over a recorded span tree (preorder + depth).  A span charges its
/// duration minus its children's to its component; under the root, a
/// backoff or an aborted attempt is charged whole to retry and nothing
/// inside it counts.
void ChargeReference(CriticalPath* path, SpanKind kind, double ms) {
  switch (kind) {
    case SpanKind::kCcWait:
      path->lock_wait_ms += ms;
      break;
    case SpanKind::kBuffer:
    case SpanKind::kIo:
      path->io_ms += ms;
      break;
    case SpanKind::kNet:
      path->net_ms += ms;
      break;
    case SpanKind::kCpu:
    case SpanKind::kCommit:
      path->cpu_ms += ms;
      break;
    case SpanKind::kBackoff:
      path->retry_ms += ms;
      break;
    case SpanKind::kTxn:
    case SpanKind::kAttempt:
    case SpanKind::kAdmission:
      break;  // the `other` remainder
  }
}

/// Index just past the subtree rooted at `i`.
size_t SubtreeEnd(const std::vector<ExemplarSpan>& spans, size_t i) {
  size_t next = i + 1;
  while (next < spans.size() && spans[next].depth > spans[i].depth) ++next;
  return next;
}

size_t WalkExclusive(const std::vector<ExemplarSpan>& spans, size_t i,
                     CriticalPath* path) {
  const ExemplarSpan& s = spans[i];
  double child_sum = 0.0;
  size_t child = i + 1;
  while (child < spans.size() && spans[child].depth > s.depth) {
    child_sum += spans[child].end_ms - spans[child].begin_ms;
    child = WalkExclusive(spans, child, path);
  }
  ChargeReference(path, s.kind,
                  std::max(0.0, (s.end_ms - s.begin_ms) - child_sum));
  return child;
}

CriticalPath ReferenceFold(const Exemplar& e) {
  CriticalPath path;
  const std::vector<ExemplarSpan>& spans = e.spans;
  size_t i = 1;  // the root's children
  while (i < spans.size()) {
    const ExemplarSpan& s = spans[i];
    const bool wasted =
        s.kind == SpanKind::kBackoff ||
        (s.kind == SpanKind::kAttempt && s.abort_cause != AbortCause::kNone);
    if (wasted) {
      path.retry_ms += std::max(0.0, s.end_ms - s.begin_ms);
      i = SubtreeEnd(spans, i);
    } else {
      i = WalkExclusive(spans, i, &path);
    }
  }
  path.Finalize(e.response_ms);
  return path;
}

struct FoldCase {
  cc::ProtocolKind protocol;
  core::SystemClass system_class;
};

TEST(SpanTracing, StreamingFoldMatchesTheReferenceTreeWalk) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  constexpr uint64_t kTransactions = 120;
  const FoldCase cases[] = {
      {cc::ProtocolKind::kNoWait, core::SystemClass::kCentralized},
      {cc::ProtocolKind::kWaitDie, core::SystemClass::kCentralized},
      {cc::ProtocolKind::kDeadlockDetect, core::SystemClass::kCentralized},
      {cc::ProtocolKind::kMvcc, core::SystemClass::kCentralized},
      {cc::ProtocolKind::kOcc, core::SystemClass::kCentralized},
      {cc::ProtocolKind::kWaitDie, core::SystemClass::kPageServer},
      {cc::ProtocolKind::kOcc, core::SystemClass::kDbServer},
  };
  for (const FoldCase& fold_case : cases) {
    const std::string cell =
        std::string(cc::ToString(fold_case.protocol)) + " " +
        core::ToString(fold_case.system_class);
    core::VoodbConfig cfg = TracedConfig();
    cfg.cc_protocol = fold_case.protocol;
    cfg.system_class = fold_case.system_class;
    cfg.num_users = 16;
    cfg.multiprogramming_level = 16;
    cfg.trace_exemplars = kTransactions;  // every transaction retained
    auto run = [&](bool trees, std::vector<Exemplar>* exemplars) {
      core::VoodbSystem sys(cfg, &base, nullptr, /*seed=*/11);
      sys.span_tracer()->RecordTrees(trees);
      ocb::WorkloadGenerator gen(&base, desp::RandomStream(11).Derive(1));
      const core::PhaseMetrics m = sys.RunTransactions(gen, kTransactions);
      *exemplars = sys.span_tracer()->exemplars();
      return m;
    };
    std::vector<Exemplar> with_trees;
    std::vector<Exemplar> without_trees;
    const core::PhaseMetrics m = run(true, &with_trees);
    const core::PhaseMetrics plain = run(false, &without_trees);
    EXPECT_GT(m.transaction_restarts, 0u) << cell;
    ASSERT_EQ(with_trees.size(), kTransactions) << cell;

    for (const Exemplar& e : with_trees) {
      ASSERT_FALSE(e.spans.empty()) << cell;
      const CriticalPath reference = ReferenceFold(e);
      EXPECT_EQ(std::memcmp(&reference, &e.path, sizeof(CriticalPath)), 0)
          << cell << " txn " << e.global_id << ": io " << e.path.io_ms
          << " vs " << reference.io_ms << ", cpu " << e.path.cpu_ms << " vs "
          << reference.cpu_ms << ", retry " << e.path.retry_ms << " vs "
          << reference.retry_ms;
      // Every attempt but the last aborted, and the protocol said why.
      std::vector<const ExemplarSpan*> attempts;
      for (const ExemplarSpan& s : e.spans) {
        if (s.depth == 1 && s.kind == SpanKind::kAttempt) {
          attempts.push_back(&s);
        }
      }
      ASSERT_FALSE(attempts.empty()) << cell;
      for (size_t a = 0; a + 1 < attempts.size(); ++a) {
        EXPECT_NE(attempts[a]->abort_cause, AbortCause::kNone)
            << cell << " txn " << e.global_id << " attempt " << a + 1;
      }
      EXPECT_EQ(attempts.back()->abort_cause, AbortCause::kNone) << cell;
    }

    // Recording trees changes nothing else: the same exemplars with the
    // same paths, and the same component histograms, bit for bit.
    ASSERT_EQ(without_trees.size(), with_trees.size()) << cell;
    for (size_t i = 0; i < with_trees.size(); ++i) {
      EXPECT_TRUE(without_trees[i].spans.empty()) << cell;
      EXPECT_EQ(without_trees[i].global_id, with_trees[i].global_id) << cell;
      EXPECT_EQ(std::memcmp(&without_trees[i].path, &with_trees[i].path,
                            sizeof(CriticalPath)),
                0)
          << cell;
    }
    const ComponentHistograms& a = m.component_histograms;
    const ComponentHistograms& b = plain.component_histograms;
    for (const auto member :
         {&ComponentHistograms::lock_wait, &ComponentHistograms::io,
          &ComponentHistograms::net, &ComponentHistograms::cpu,
          &ComponentHistograms::retry, &ComponentHistograms::other}) {
      EXPECT_EQ((a.*member).count(), (b.*member).count()) << cell;
      const double sa = (a.*member).sum();
      const double sb = (b.*member).sum();
      EXPECT_EQ(std::memcmp(&sa, &sb, sizeof(double)), 0) << cell;
    }
  }
}

// --- Component-histogram golden ----------------------------------------------

/// The six component histograms' count and sum for a contended wait-die
/// run (centralized) and an MVCC run (page server, so the network
/// component is non-zero), recorded from the implementation that folded
/// a full span tree per transaction at commit.  cc_abyss and ycsb_zipf
/// print lock_wait/io/retry percentiles from these histograms.
struct ComponentGolden {
  cc::ProtocolKind protocol;
  core::SystemClass system_class;
  uint64_t seed;
  uint64_t count;
  double lock_wait_sum;
  double io_sum;
  double net_sum;
  double cpu_sum;
  double retry_sum;
  double other_sum;
};

constexpr ComponentGolden kComponentGoldens[] = {
    {cc::ProtocolKind::kWaitDie, core::SystemClass::kCentralized, 13, 200,
     1128.9811915406563, 4149.2542421559674, 0, 4124.919321942958,
     5036.9805171330609, -5.6843418860808009e-14},
    {cc::ProtocolKind::kMvcc, core::SystemClass::kPageServer, 29, 200,
     0, 4365.9030196066942, 15956.924303680185, 556.47539926743093,
     14725.176943614981, 1.2621774483536187e-29},
};

TEST(SpanTracing, ComponentHistogramsReproduceRecordedGolden) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  for (const ComponentGolden& g : kComponentGoldens) {
    core::VoodbConfig cfg = TracedConfig();
    cfg.cc_protocol = g.protocol;
    cfg.system_class = g.system_class;
    cfg.num_users = 16;
    cfg.multiprogramming_level = 16;
    cfg.trace_exemplars = 8;
    core::VoodbSystem sys(cfg, &base, nullptr, g.seed);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(g.seed).Derive(1));
    const core::PhaseMetrics m = sys.RunTransactions(gen, g.count);
    const ComponentHistograms& c = m.component_histograms;
    const std::string cell = cc::ToString(g.protocol);
    for (const desp::LogHistogram* h :
         {&c.lock_wait, &c.io, &c.net, &c.cpu, &c.retry, &c.other}) {
      EXPECT_EQ(h->count(), g.count) << cell;
    }
    EXPECT_EQ(c.lock_wait.sum(), g.lock_wait_sum) << cell;
    EXPECT_EQ(c.io.sum(), g.io_sum) << cell;
    EXPECT_EQ(c.net.sum(), g.net_sum) << cell;
    EXPECT_EQ(c.cpu.sum(), g.cpu_sum) << cell;
    EXPECT_EQ(c.retry.sum(), g.retry_sum) << cell;
    EXPECT_EQ(c.other.sum(), g.other_sum) << cell;
  }
}

/// Checks JSON structural sanity without a parser: non-empty, object
/// framing, balanced braces/brackets outside string literals.
void ExpectBalancedJson(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char ch : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(SpanTracing, PerfettoExportIsWellFormed) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(TracedConfig(), &base, nullptr, /*seed=*/5);
  sys.span_tracer()->RecordTrees(true);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5).Derive(1));
  sys.RunTransactions(gen, 30);
  const std::string json =
      SpanTracer::PerfettoJson(sys.span_tracer()->exemplars());
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// --- Cross-shard stitching --------------------------------------------------

core::VoodbConfig ShardedTracedConfig() {
  core::VoodbConfig cfg = TracedConfig();
  cfg.shards = 2;
  cfg.multi_partition_pct = 0.5;
  cfg.num_users = 3;
  cfg.multiprogramming_level = 3;
  cfg.network_throughput_mbps = 1.0;
  cfg.trace_exemplars = 512;  // retain every tree, sub-transactions too
  return cfg;
}

TEST(SpanTracing, CrossShardStitchingBitIdenticalAcrossThreadCounts) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::ShardedVoodb sys(ShardedTracedConfig(), &base, /*seed=*/7);
  sys.RecordTrees(true);
  sys.Run(40);
  const std::string json = SpanTracer::PerfettoJson(sys.MergedExemplars());
  // The merged exemplar set — ids, spans, flow stitches — is one byte
  // stream, pinned by its length and FNV-1a hash.  Recorded from the
  // thread-crew kernel the one-thread window loop replaced, where a
  // 2-thread run gave the same bytes as a serial one.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : json) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  EXPECT_EQ(json.size(), 100483u);
  EXPECT_EQ(hash, 0xffdaf3d129d010e5ull);
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(SpanTracing, RemoteSubTransactionsCarryTheParentTrace) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::ShardedVoodb sys(ShardedTracedConfig(), &base, /*seed=*/7);
  sys.RecordTrees(true);
  const core::PhaseMetrics merged = sys.Run(40);
  ASSERT_GT(sys.remote_subtxns(), 0u);
  EXPECT_GT(merged.component_histograms.io.count(), 0u);

  const std::vector<Exemplar> exemplars = sys.MergedExemplars();
  ASSERT_FALSE(exemplars.empty());
  size_t stitched = 0;
  for (const Exemplar& e : exemplars) {
    const double sum = e.path.Sum();
    EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
    ExpectNested(e);
    if (e.parent_global_id != 0) {
      ++stitched;
      // The parent lives on another shard (different high bits) or at
      // least is a distinct transaction.
      EXPECT_NE(e.parent_global_id, e.global_id);
    }
  }
  // Half the transactions fork a remote sub-transaction and K >= all of
  // them — some retained exemplar must be a stitched child.
  EXPECT_GT(stitched, 0u);
}

}  // namespace
}  // namespace voodb
