#include "obs/spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "util/check.hpp"

namespace voodb::obs {

namespace {

/// SplitMix64: a stateless, well-mixed 64-bit hash.  Used for the sampling
/// decision so tracing never touches the simulation's RandomStream state.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

const char* ToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn:
      return "txn";
    case SpanKind::kAttempt:
      return "attempt";
    case SpanKind::kCcWait:
      return "cc_wait";
    case SpanKind::kBuffer:
      return "buffer";
    case SpanKind::kIo:
      return "disk_io";
    case SpanKind::kNet:
      return "net";
    case SpanKind::kCpu:
      return "cpu";
    case SpanKind::kCommit:
      return "commit";
    case SpanKind::kBackoff:
      return "backoff";
    case SpanKind::kAdmission:
      return "admission";
  }
  return "?";
}

const char* ToString(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kNoWait:
      return "no_wait";
    case AbortCause::kWaitDie:
      return "wait_die";
    case AbortCause::kDeadlock:
      return "deadlock";
    case AbortCause::kWriteConflict:
      return "write_conflict";
    case AbortCause::kValidation:
      return "validation";
  }
  return "?";
}

double CriticalPath::Sum() const {
  // The exact order Finalize used; do not reassociate.
  return ((((lock_wait_ms + io_ms) + net_ms) + cpu_ms) + retry_ms) + other_ms;
}

void CriticalPath::Finalize(double response_ms) {
  const double rest = (((lock_wait_ms + io_ms) + net_ms) + cpu_ms) + retry_ms;
  other_ms = response_ms - rest;
  // rest + other need not round back to response exactly; nudge other by
  // the residual until it does (converges in <= a couple of steps because
  // every component is a sub-interval of the response).
  for (int i = 0; i < 4 && rest + other_ms != response_ms; ++i) {
    other_ms += response_ms - (rest + other_ms);
  }
  VOODB_CHECK_MSG(Sum() == response_ms,
                  "critical-path components failed to sum to the response ("
                      << Sum() << " vs " << response_ms << " ms)");
  VOODB_CHECK_MSG(other_ms >= -1e-6 * std::max(1.0, response_ms),
                  "critical-path components exceed the response time (other="
                      << other_ms << " ms of " << response_ms << " ms)");
}

void ComponentHistograms::Add(const CriticalPath& path) {
  lock_wait.Add(path.lock_wait_ms);
  io.Add(path.io_ms);
  net.Add(path.net_ms);
  cpu.Add(path.cpu_ms);
  retry.Add(path.retry_ms);
  other.Add(path.other_ms);
}

void ComponentHistograms::Merge(const ComponentHistograms& other_histograms) {
  lock_wait.Merge(other_histograms.lock_wait);
  io.Merge(other_histograms.io);
  net.Merge(other_histograms.net);
  cpu.Merge(other_histograms.cpu);
  retry.Merge(other_histograms.retry);
  other.Merge(other_histograms.other);
}

ComponentHistograms ComponentHistograms::DeltaSince(
    const ComponentHistograms& baseline) const {
  ComponentHistograms delta;
  delta.lock_wait = lock_wait.DeltaSince(baseline.lock_wait);
  delta.io = io.DeltaSince(baseline.io);
  delta.net = net.DeltaSince(baseline.net);
  delta.cpu = cpu.DeltaSince(baseline.cpu);
  delta.retry = retry.DeltaSince(baseline.retry);
  delta.other = other.DeltaSince(baseline.other);
  return delta;
}

bool ExemplarBefore(const Exemplar& a, const Exemplar& b) {
  if (a.response_ms != b.response_ms) return a.response_ms > b.response_ms;
  return a.global_id < b.global_id;
}

std::vector<Exemplar> MergeExemplars(std::vector<Exemplar> a,
                                     const std::vector<Exemplar>& b,
                                     size_t k) {
  a.insert(a.end(), b.begin(), b.end());
  std::stable_sort(a.begin(), a.end(), ExemplarBefore);
  if (a.size() > k) a.resize(k);
  return a;
}

SpanTracer::SpanTracer(desp::Scheduler* scheduler, Options options)
    : scheduler_(scheduler), options_(options) {
  VOODB_CHECK_MSG(scheduler_ != nullptr, "span tracer needs a scheduler");
  if (options_.exemplars > 0) exemplars_.reserve(options_.exemplars + 1);
}

void SpanTracer::RecordTrees(bool on) {
  VOODB_CHECK_MSG(traces_started_ == traces_finished_,
                  "span tracer: RecordTrees changed while traces are live");
  record_trees_ = on;
}

bool SpanTracer::Sampled(uint64_t seed, uint64_t txn_id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  const uint64_t hash = SplitMix64(seed ^ (txn_id * 0xD1B54A32D192ED03ULL));
  // Compare the hash against rate * 2^64 without overflowing: use the top
  // 53 bits as a uniform double in [0, 1).
  const double u =
      static_cast<double>(hash >> 11) * (1.0 / 9007199254740992.0);
  return u < rate;
}

uint32_t SpanTracer::BeginTrace(uint64_t txn_id, double admitted_at) {
  const uint64_t parent = pending_parent_;
  pending_parent_ = 0;
  if (!Sampled(options_.sample_seed, txn_id, options_.sample_rate)) return 0;
  uint32_t index;
  if (trace_free_head_ != kNone) {
    index = trace_free_head_;
    trace_free_head_ = traces_[index].next_free;
  } else {
    VOODB_CHECK_MSG(traces_.size() < kMaxConcurrentTraces,
                    "span tracer: too many concurrent traces");
    index = static_cast<uint32_t>(traces_.size());
    traces_.emplace_back();
  }
  Trace& t = traces_[index];
  const uint32_t generation = (t.generation + 1u) & 0xFFFFu;
  t.generation = generation;
  t.live = true;
  t.txn_id = txn_id;
  t.parent_global_id = parent;
  t.admitted_at = admitted_at;
  t.path = CriticalPath{};
  t.tree.clear();
  t.depth = 0;
  const uint32_t ctx = (generation << 16) | (index + 1u);
  ++traces_started_;
  // Open the root span; attempts are opened by the Transaction Manager.
  PushFrame(t, SpanKind::kTxn, txn_id, admitted_at);
  return ctx;
}

void SpanTracer::SetPendingParent(uint64_t parent_global_id) {
  pending_parent_ = parent_global_id;
}

void SpanTracer::NoteAbort(uint32_t trace, AbortCause cause) {
  Trace* t = Resolve(trace);
  if (t == nullptr) return;
  // Annotate the innermost open attempt.
  for (uint8_t d = t->depth; d > 0; --d) {
    if (t->frames[d - 1].kind == SpanKind::kAttempt) {
      t->frames[d - 1].cause = cause;
      return;
    }
  }
}

void SpanTracer::NoteAbortAmbient(AbortCause cause) {
  NoteAbort(scheduler_->current_trace(), cause);
}

uint64_t SpanTracer::GlobalId(uint32_t trace) const {
  // Resolve is non-const only because it returns a mutable Trace.
  SpanTracer* self = const_cast<SpanTracer*>(this);
  const Trace* t = self->Resolve(trace);
  if (t == nullptr) return 0;
  return options_.global_id_base | t->txn_id;
}

void SpanTracer::MaybeRetain(const Trace& t, double response_ms) {
  if (options_.exemplars == 0) return;
  Exemplar exemplar;
  exemplar.global_id = options_.global_id_base | t.txn_id;
  exemplar.parent_global_id = t.parent_global_id;
  exemplar.admitted_at_ms = t.admitted_at;
  exemplar.response_ms = response_ms;
  exemplar.path = t.path;
  if (exemplars_.size() >= options_.exemplars &&
      !ExemplarBefore(exemplar, exemplars_.back())) {
    return;
  }
  exemplar.spans = t.tree;
  const auto position = std::upper_bound(
      exemplars_.begin(), exemplars_.end(), exemplar, ExemplarBefore);
  exemplars_.insert(position, std::move(exemplar));
  if (exemplars_.size() > options_.exemplars) exemplars_.pop_back();
}

void SpanTracer::FinishCommitted(uint32_t trace, double response_ms,
                                 double end) {
  if (trace == 0) {
    // An unsampled transaction retired: clear the stitch anchor so a
    // cross-shard driver never attaches a sub-transaction to an older,
    // unrelated trace.
    last_finished_global_id_ = 0;
    return;
  }
  Trace* t = Resolve(trace);
  if (t == nullptr) return;
  // Close anything still open (normally just the root; the committed
  // attempt is closed by the Transaction Manager before retirement).
  while (t->depth > 0) CloseFrame(*t, end);
  t->path.Finalize(response_ms);
  components_.Add(t->path);
  MaybeRetain(*t, response_ms);
  last_finished_global_id_ = options_.global_id_base | t->txn_id;
  ++traces_finished_;
  t->live = false;
  const uint32_t index = (trace & 0xFFFFu) - 1u;
  t->next_free = trace_free_head_;
  trace_free_head_ = index;
}

/// "txn 17" on a single server, "shard 2 txn 17" with shard<<48 bases.
static std::string GlobalIdText(uint64_t global_id) {
  const uint64_t shard = global_id >> 48;
  const uint64_t txn = global_id & ((uint64_t{1} << 48) - 1);
  if (shard == 0) return "txn " + std::to_string(txn);
  return "shard " + std::to_string(shard) + " txn " + std::to_string(txn);
}

std::string SpanTracer::PerfettoJson(const std::vector<Exemplar>& exemplars) {
  std::string json;
  json.reserve(4096);
  json += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  json +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"voodb tail exemplars\"}}";
  for (size_t i = 0; i < exemplars.size(); ++i) {
    const Exemplar& e = exemplars[i];
    const uint64_t pid = e.global_id >> 48;
    const uint64_t tid = i + 1;
    json += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
            std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
            ",\"args\":{\"name\":\"" + GlobalIdText(e.global_id) + " (" +
            Num(e.response_ms) + " ms)\"}}";
    for (const ExemplarSpan& s : e.spans) {
      json += ",\n{\"name\":\"" + std::string(ToString(s.kind)) +
              "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":" +
              std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
              ",\"ts\":" + Num(s.begin_ms * 1000.0) +
              ",\"dur\":" + Num((s.end_ms - s.begin_ms) * 1000.0) +
              ",\"args\":{\"label\":" + std::to_string(s.label) +
              ",\"abort_cause\":\"" + ToString(s.abort_cause) + "\"}}";
    }
    // Flow events stitch cross-shard sub-transactions: every exemplar
    // publishes its own id; sub-transactions bind to their parent's.
    json += ",\n{\"name\":\"xshard\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" +
            std::to_string(e.global_id) + ",\"pid\":" + std::to_string(pid) +
            ",\"tid\":" + std::to_string(tid) +
            ",\"ts\":" + Num(e.admitted_at_ms * 1000.0) + "}";
    if (e.parent_global_id != 0) {
      json +=
          ",\n{\"name\":\"xshard\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":"
          "\"e\",\"id\":" +
          std::to_string(e.parent_global_id) +
          ",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) +
          ",\"ts\":" + Num(e.admitted_at_ms * 1000.0) + "}";
    }
  }
  json += "\n]}\n";
  return json;
}

void SpanTracer::WriteBreakdown(std::ostream& os, const Exemplar& exemplar) {
  os << GlobalIdText(exemplar.global_id) << ": response "
     << Num(exemplar.response_ms) << " ms";
  if (exemplar.parent_global_id != 0) {
    os << " (sub-transaction of " << GlobalIdText(exemplar.parent_global_id)
       << ")";
  }
  os << "\n  critical path: lock_wait " << Num(exemplar.path.lock_wait_ms)
     << " | io " << Num(exemplar.path.io_ms) << " | net "
     << Num(exemplar.path.net_ms) << " | cpu " << Num(exemplar.path.cpu_ms)
     << " | retry " << Num(exemplar.path.retry_ms) << " | other "
     << Num(exemplar.path.other_ms) << "  (ms)\n";
  for (const ExemplarSpan& s : exemplar.spans) {
    os << "  ";
    for (uint8_t d = 0; d < s.depth; ++d) os << "  ";
    os << ToString(s.kind);
    if (s.kind == SpanKind::kCcWait || s.kind == SpanKind::kBuffer ||
        s.kind == SpanKind::kIo) {
      os << " oid=" << s.label;
    } else if (s.kind == SpanKind::kAttempt ||
               s.kind == SpanKind::kBackoff) {
      os << " #" << s.label;
    }
    os << "  [" << Num(s.begin_ms - exemplar.admitted_at_ms) << " .. "
       << Num(s.end_ms - exemplar.admitted_at_ms) << "] "
       << Num(s.end_ms - s.begin_ms) << " ms";
    if (s.abort_cause != AbortCause::kNone) {
      os << "  aborted: " << ToString(s.abort_cause);
    }
    os << "\n";
  }
}

}  // namespace voodb::obs
