/// \file spans.hpp
/// \brief Causal per-transaction tracing: critical-path attribution as
/// spans close, and tail exemplars.
///
/// Every (sampled) transaction is traced over its whole lifetime —
/// admission, each attempt, per-access concurrency-control waits, disk
/// work, network round-trips, commit — from three sources:
///
///  1. the Transaction Manager opens/closes the structural spans (txn
///     root, attempts, commit) and emits leaves (cpu, cc waits, backoffs)
///     by explicit trace id;
///  2. shared actors (disk, network) emit leaf spans against the
///     scheduler's *ambient* trace context (desp::Scheduler::current_trace),
///     which events inherit exactly like profiling tags, so work performed
///     on behalf of a transaction deep inside an event chain is attributed
///     without those actors knowing anything about transactions;
///  3. concurrency-control protocols annotate the open attempt with the
///     abort cause at decision time.
///
/// No tree is kept by default.  Each live trace is an accumulator: its
/// **critical path** — an exclusive per-component decomposition (lock
/// wait, IO, network, CPU, abort/retry, other) whose fixed-order sum
/// equals the recorded response time exactly (enforced) — is charged span
/// by span as spans close, in the post-order an exclusive tree walk would
/// visit them, and added to mergeable bit-deterministic LogHistograms at
/// commit.  The K slowest transactions are kept as **exemplars**; with
/// RecordTrees(true) (`voodb explain`) each also carries its span tree in
/// preorder, exportable as Perfetto/Chrome-trace JSON.  Cross-shard
/// sub-transactions carry the parent's 64-bit global trace id and stitch
/// into one distributed trace via flow events.
///
/// The tracer is pure metadata: it never schedules events, draws random
/// numbers, or influences simulation state — traced and untraced runs are
/// bit-identical in every simulation output.  Sampling is a deterministic
/// hash of the transaction id (not an RNG stream), so partial sampling is
/// reproducible and stream-neutral too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "desp/histogram.hpp"
#include "desp/scheduler.hpp"
#include "util/check.hpp"

namespace voodb::obs {

/// What a span measures.  kTxn is the root (admission to retirement),
/// kAttempt one execution attempt; everything else is nested work.
enum class SpanKind : uint8_t {
  kTxn = 0,  ///< root: admission -> commit retirement
  kAttempt,  ///< one execution attempt (aborted ones carry a cause)
  kCcWait,   ///< concurrency-control grant wait for one object access
  kBuffer,   ///< buffer-manager object access (disk IO nests inside)
  kIo,       ///< one physical disk IO (queueing + service)
  kNet,      ///< one network transfer (queueing + wire time)
  kCpu,      ///< CPU resource usage (queueing + service)
  kCommit,   ///< commit-time lock release / bookkeeping CPU
  kBackoff,  ///< randomized restart backoff between attempts
  kAdmission,  ///< db-scheduler (multiprogramming level) admission wait
};

const char* ToString(SpanKind kind);

/// Why an attempt aborted; annotated by the protocol at decision time.
enum class AbortCause : uint8_t {
  kNone = 0,       ///< attempt committed (or annotation unavailable)
  kNoWait,         ///< no-wait 2PL: lock busy
  kWaitDie,        ///< wait-die: younger requester died
  kDeadlock,       ///< deadlock detection: cycle victim
  kWriteConflict,  ///< MVCC first-committer-wins write conflict
  kValidation,     ///< OCC/MVCC backward validation failure
};

const char* ToString(AbortCause cause);

/// Exclusive per-component decomposition of one committed transaction's
/// response time, in ms.  `other_ms` is defined as the exact floating-point
/// remainder so that Sum() == response holds bit-exactly (see Finalize).
struct CriticalPath {
  double lock_wait_ms = 0.0;  ///< cc grant waits (committed attempt)
  double io_ms = 0.0;         ///< buffer + disk work (committed attempt)
  double net_ms = 0.0;        ///< network transfers (committed attempt)
  double cpu_ms = 0.0;        ///< CPU service + queueing (committed attempt)
  double retry_ms = 0.0;      ///< aborted attempts + restart backoffs
  double other_ms = 0.0;      ///< exact remainder (scheduling gaps)

  /// Adds the components in a fixed left-to-right order; after Finalize
  /// this equals the response time exactly.
  double Sum() const;

  /// Sets other_ms so Sum() == response_ms bit-exactly (bounded fix-up of
  /// floating-point rounding); VOODB_CHECKs success and non-negativity up
  /// to rounding noise.
  void Finalize(double response_ms);
};

/// Mergeable per-component response-time histograms (ms).  One Add per
/// committed sampled transaction per component (zeros land in the
/// underflow bucket, so counts match across components).
struct ComponentHistograms {
  desp::LogHistogram lock_wait;
  desp::LogHistogram io;
  desp::LogHistogram net;
  desp::LogHistogram cpu;
  desp::LogHistogram retry;
  desp::LogHistogram other;

  void Add(const CriticalPath& path);
  void Merge(const ComponentHistograms& other_histograms);
  /// Subtracts a baseline snapshot (bucket-exact; see LogHistogram).
  ComponentHistograms DeltaSince(const ComponentHistograms& baseline) const;
};

/// One retained span, flattened in preorder with its tree depth.
struct ExemplarSpan {
  double begin_ms = 0.0;
  double end_ms = 0.0;
  uint64_t label = 0;  ///< oid for accesses, attempt number for attempts
  SpanKind kind = SpanKind::kTxn;
  AbortCause abort_cause = AbortCause::kNone;
  uint8_t depth = 0;
};

/// A retained slow transaction: its identity, critical path, and — when
/// the tracer records trees — its span tree (preorder).
struct Exemplar {
  uint64_t global_id = 0;         ///< shard << 48 | first attempt txn id
  uint64_t parent_global_id = 0;  ///< 0, or the cross-shard parent trace
  double admitted_at_ms = 0.0;
  double response_ms = 0.0;
  CriticalPath path;
  std::vector<ExemplarSpan> spans;  ///< empty unless RecordTrees(true)
};

/// Deterministic exemplar order: slowest first, ties by lower global id.
bool ExemplarBefore(const Exemplar& a, const Exemplar& b);

/// Merges already-sorted exemplar lists (e.g. one per shard, folded in
/// shard order) keeping the `k` slowest; deterministic.
std::vector<Exemplar> MergeExemplars(std::vector<Exemplar> a,
                                     const std::vector<Exemplar>& b, size_t k);

/// The per-system span tracer.  Trace slots are recycled on commit and
/// hold a fixed-size stack of open spans, so steady-state tracing performs
/// no allocation (exemplar retention copies out at most K records).
class SpanTracer {
 public:
  struct Options {
    uint64_t sample_seed = 0;     ///< hash seed (the system seed)
    double sample_rate = 1.0;     ///< fraction of transactions traced
    uint32_t exemplars = 8;       ///< K slowest transactions retained
    uint64_t global_id_base = 0;  ///< OR-ed onto txn ids (shard << 48)
  };

  /// Trace ids carry a 16-bit slot index: at most this many transactions
  /// are traced at once (VoodbConfig::Validate rejects configs that could
  /// exceed it).
  static constexpr uint32_t kMaxConcurrentTraces = 0xFFFE;

  SpanTracer(desp::Scheduler* scheduler, Options options);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Pre-sizes the trace slots (n concurrent traces).
  void Reserve(size_t traces) { traces_.reserve(traces); }

  /// Also records each trace's span tree, so exemplars carry `spans`.
  /// Only `voodb explain` and tests need trees; set it before the run.
  void RecordTrees(bool on);

  /// Deterministic sampling decision: stable hash of (seed, txn_id)
  /// against the rate — no RNG stream is consumed.
  static bool Sampled(uint64_t seed, uint64_t txn_id, double rate);

  // --- Lifecycle (driven by the Transaction Manager) ---------------------

  /// Starts a trace for a newly admitted transaction; opens the kTxn root
  /// at `admitted_at`.  Returns the trace context id to stamp into the
  /// scheduler (0 = not sampled: every later call on id 0 is a no-op).
  /// Consumes a pending cross-shard parent set via SetPendingParent.
  uint32_t BeginTrace(uint64_t txn_id, double admitted_at);

  /// Declares the next BeginTrace a sub-transaction of `parent_global_id`
  /// (a remote shard's trace); used by cross-shard drivers.
  void SetPendingParent(uint64_t parent_global_id);

  /// Takes (and clears) the pending parent.  The Transaction Manager
  /// claims it at Submit time and re-sets it just before BeginTrace, so a
  /// sub-transaction queued at the db scheduler cannot leak its parent to
  /// whatever other transaction is admitted first.
  uint64_t TakePendingParent() {
    const uint64_t parent = pending_parent_;
    pending_parent_ = 0;
    return parent;
  }

  // The per-access hot path (Open/Close/Leaf and their helpers below) is
  // defined inline: at full sampling these run a few times per object
  // access.

  /// Opens a child span under the innermost open span.
  void Open(uint32_t trace, SpanKind kind, uint64_t label, double at) {
    Trace* t = Resolve(trace);
    if (t == nullptr) return;
    ChargeLeaf(*t, t->frames[t->depth - 1]);
    VOODB_CHECK_MSG(t->depth < kMaxDepth,
                    "span tracer: spans nest deeper than " << kMaxDepth);
    // An attempt may abort: remember the path so its close can discard
    // what it charged.
    if (t->depth == 1) t->before_attempt = t->path;
    PushFrame(*t, kind, label, at);
  }

  /// Closes the innermost open span.
  void Close(uint32_t trace, double at) {
    Trace* t = Resolve(trace);
    if (t == nullptr) return;
    VOODB_CHECK_MSG(t->depth > 1, "span close without a matching open");
    CloseFrame(*t, at);
  }

  /// Adds an already-closed child span under the innermost open span.
  /// Back-to-back leaves of the same kind and label (e.g. consecutive CPU
  /// slices with nothing between them in simulated time) extend the
  /// previous leaf: [a,b] + [b,c] is one leaf charged c - a.  Leaves are
  /// the non-structural kinds (never kTxn, kAttempt or kCommit).
  void Leaf(uint32_t trace, SpanKind kind, uint64_t label, double begin,
            double end) {
    Trace* t = Resolve(trace);
    if (t == nullptr) return;
    Frame& frame = t->frames[t->depth - 1];
    if (frame.has_leaf && frame.leaf_kind == kind &&
        frame.leaf_label == label && frame.leaf_end == begin) {
      frame.leaf_end = end;
      if (record_trees_) t->tree.back().end_ms = end;
      return;
    }
    ChargeLeaf(*t, frame);
    frame.has_leaf = true;
    frame.leaf_kind = kind;
    frame.leaf_label = label;
    frame.leaf_begin = begin;
    frame.leaf_end = end;
    if (record_trees_) t->tree.push_back(Entry(*t, kind, label, begin, end));
  }

  /// Annotates the innermost open kAttempt span with an abort cause.
  void NoteAbort(uint32_t trace, AbortCause cause);
  /// Same, against the scheduler's ambient trace context (for protocols,
  /// whose decision sites run inside the requester's event).
  void NoteAbortAmbient(AbortCause cause);

  /// Ambient-context leaf (for shared actors: disk, network).
  void AmbientLeaf(SpanKind kind, uint64_t label, double begin, double end) {
    const uint32_t trace = scheduler_->current_trace();
    if (trace != 0) Leaf(trace, kind, label, begin, end);
  }

  /// Commit retirement: closes any open spans, adds the critical path to
  /// the component histograms (Sum()==response enforced), retains the
  /// transaction as an exemplar when it ranks among the K slowest, and
  /// recycles the slot.  `end` is the retirement time; response = end -
  /// admitted_at as computed by the caller (passed in to match its
  /// rounding exactly).
  void FinishCommitted(uint32_t trace, double response_ms, double end);

  /// The global (cross-shard) id for a live trace.
  uint64_t GlobalId(uint32_t trace) const;
  /// Global id of the most recently finished trace (for drivers that
  /// stitch follow-up work to the transaction that just committed).
  uint64_t last_finished_global_id() const {
    return last_finished_global_id_;
  }

  // --- Results -----------------------------------------------------------

  const ComponentHistograms& components() const { return components_; }
  /// Slowest-first, at most Options::exemplars entries.
  const std::vector<Exemplar>& exemplars() const { return exemplars_; }
  uint64_t traces_started() const { return traces_started_; }
  uint64_t traces_finished() const { return traces_finished_; }
  const Options& options() const { return options_; }

  // --- Export ------------------------------------------------------------

  /// Chrome-trace ("Perfetto") JSON: one thread lane per exemplar, "X"
  /// duration events per span (ms rendered as µs timestamps), flow events
  /// stitching cross-shard sub-transactions to their parents.
  static std::string PerfettoJson(const std::vector<Exemplar>& exemplars);

  /// Human-readable breakdown of one exemplar (indented span tree plus
  /// the critical-path components) to `os`.
  static void WriteBreakdown(std::ostream& os, const Exemplar& exemplar);

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  /// Root, attempt, commit and one more level of nesting.
  static constexpr uint8_t kMaxDepth = 4;

  /// One open span: what its close charges.  The last child, while it is
  /// a leaf, is held here uncharged so a back-to-back leaf can extend it;
  /// it is charged when a non-coalescing sibling arrives, a child span
  /// opens, or this span closes.
  struct Frame {
    double begin = 0.0;
    double child_sum = 0.0;  ///< closed children's durations, sibling order
    double leaf_begin = 0.0;
    double leaf_end = 0.0;
    uint64_t leaf_label = 0;
    uint32_t entry = 0;  ///< this span's index in Trace::tree
    SpanKind kind = SpanKind::kTxn;
    AbortCause cause = AbortCause::kNone;
    SpanKind leaf_kind = SpanKind::kTxn;
    bool has_leaf = false;
  };

  struct Trace {
    CriticalPath path;            ///< charged as spans close
    CriticalPath before_attempt;  ///< path when the open attempt began
    Frame frames[kMaxDepth];      ///< open spans, root first
    uint8_t depth = 0;            ///< open frames
    bool live = false;
    uint32_t next_free = kNone;
    uint32_t generation = 0;  ///< survives slot reuse; part of the ctx id
    uint64_t txn_id = 0;
    uint64_t parent_global_id = 0;
    double admitted_at = 0.0;
    std::vector<ExemplarSpan> tree;  ///< preorder spans (RecordTrees only)
  };

  /// Adds `ms` to the component a span kind is charged to (the structural
  /// and admission kinds fall into the `other` remainder: no-op).
  static void Charge(CriticalPath* path, SpanKind kind, double ms) {
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
        break;
    }
  }

  void PushFrame(Trace& t, SpanKind kind, uint64_t label, double at) {
    Frame& frame = t.frames[t.depth];
    frame.begin = at;
    frame.child_sum = 0.0;
    frame.kind = kind;
    frame.cause = AbortCause::kNone;
    frame.has_leaf = false;
    frame.entry = static_cast<uint32_t>(t.tree.size());
    if (record_trees_) t.tree.push_back(Entry(t, kind, label, at, at));
    ++t.depth;
  }

  /// Charges the frame's held-back leaf, if any.
  static void ChargeLeaf(Trace& t, Frame& frame) {
    if (!frame.has_leaf) return;
    frame.has_leaf = false;
    const double duration = frame.leaf_end - frame.leaf_begin;
    frame.child_sum += duration;
    Charge(&t.path, frame.leaf_kind, std::max(0.0, duration));
  }

  /// Pops the innermost open span and charges its exclusive time: its
  /// duration minus its children's.  An aborted attempt is wasted work
  /// instead: what it charged is discarded and its whole duration is
  /// retry.
  void CloseFrame(Trace& t, double at) {
    Frame& frame = t.frames[--t.depth];
    ChargeLeaf(t, frame);
    const double duration = at - frame.begin;
    if (t.depth == 1 && frame.kind == SpanKind::kAttempt &&
        frame.cause != AbortCause::kNone) {
      t.path = t.before_attempt;
      t.path.retry_ms += std::max(0.0, duration);
    } else {
      Charge(&t.path, frame.kind, std::max(0.0, duration - frame.child_sum));
    }
    if (t.depth > 0) t.frames[t.depth - 1].child_sum += duration;
    if (record_trees_) {
      t.tree[frame.entry].end_ms = at;
      t.tree[frame.entry].abort_cause = frame.cause;
    }
  }

  static ExemplarSpan Entry(const Trace& t, SpanKind kind, uint64_t label,
                            double begin, double end) {
    ExemplarSpan span;
    span.begin_ms = begin;
    span.end_ms = end;
    span.label = label;
    span.kind = kind;
    span.depth = t.depth;
    return span;
  }

  Trace* Resolve(uint32_t trace) {
    if (trace == 0) return nullptr;
    const uint32_t index = (trace & 0xFFFFu) - 1u;
    const uint32_t generation = trace >> 16;
    if (index >= traces_.size()) return nullptr;
    Trace& t = traces_[index];
    if (!t.live || t.generation != generation) return nullptr;
    return &t;
  }
  void MaybeRetain(const Trace& t, double response_ms);

  desp::Scheduler* scheduler_;
  Options options_;
  bool record_trees_ = false;
  std::vector<Trace> traces_;
  uint32_t trace_free_head_ = kNone;
  uint64_t pending_parent_ = 0;
  uint64_t last_finished_global_id_ = 0;
  uint64_t traces_started_ = 0;
  uint64_t traces_finished_ = 0;
  ComponentHistograms components_;
  std::vector<Exemplar> exemplars_;  ///< kept sorted (ExemplarBefore)
};

}  // namespace voodb::obs
