#include "voodb/transaction_manager.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "trace/recorder.hpp"
#include "util/check.hpp"

namespace voodb::core {

namespace {
/// Size of a request message on the wire (bytes).
constexpr uint64_t kRequestBytes = 128;
}  // namespace

TransactionManagerActor::TransactionManagerActor(
    desp::Scheduler* scheduler, const VoodbConfig& config,
    ObjectManagerActor* object_manager, BufferingManagerActor* buffering,
    ClusteringManagerActor* clustering, NetworkActor* network)
    : Actor(scheduler, "transaction-manager"),
      config_(config),
      object_manager_(object_manager),
      buffering_(buffering),
      clustering_(clustering),
      network_(network),
      db_scheduler_(scheduler, "db-scheduler", config.multiprogramming_level),
      cpu_(scheduler, "cpu", /*capacity=*/1),
      backoff_rng_(0xBAC0FF) {
  VOODB_CHECK_MSG(object_manager_ && buffering_ && clustering_ && network_,
                  "transaction manager needs its peers");
  if (config_.use_lock_manager) {
    protocol_ = cc::MakeProtocol(config_.cc_protocol, scheduler);
  }
}

TransactionManagerActor::Handle TransactionManagerActor::AllocInFlight() {
  const uint32_t index = pool_.Alloc();
  Slot& slot = pool_[index];
  slot.live = true;
  return Handle{index, slot.generation};
}

TransactionManagerActor::InFlight& TransactionManagerActor::At(Handle h) {
  VOODB_CHECK_MSG(h.index < pool_.capacity(), "bad in-flight handle");
  Slot& slot = pool_[h.index];
  VOODB_CHECK_MSG(slot.live && slot.generation == h.generation,
                  "stale in-flight handle (slot recycled)");
  return slot.state;
}

void TransactionManagerActor::FreeInFlight(Handle h) {
  Slot& slot = pool_[h.index];
  VOODB_CHECK_MSG(slot.live && slot.generation == h.generation,
                  "double free of in-flight handle");
  // Recycle keeping the access vector's capacity: the next Submit swaps
  // this cleared buffer out to its caller, which refills it for the
  // transaction after that.
  slot.state.txn.accesses.clear();
  slot.state.next_access = 0;
  slot.state.response_bytes = 0;
  slot.state.attempts = 0;
  slot.state.trace = 0;
  slot.state.backoff_started = 0.0;
  slot.state.done = nullptr;
  slot.live = false;
  slot.stepping = false;
  slot.again = false;
  ++slot.generation;  // invalidate any still-outstanding handle
  pool_.Free(h.index);
}

void TransactionManagerActor::Submit(ocb::Transaction& txn,
                                     desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(static_cast<bool>(done), "Submit needs a continuation");
  const Handle h = AllocInFlight();
  InFlight& state = At(h);
  std::swap(state.txn, txn);
  state.done = std::move(done);
  const double submitted_at = Now();
  // Claim any cross-shard parent now: admission may queue behind other
  // submissions, and the stitch belongs to THIS transaction.
  const uint64_t trace_parent =
      tracer_ != nullptr ? tracer_->TakePendingParent() : 0;
  db_scheduler_.Acquire([this, h, submitted_at, trace_parent]() {
    InFlight& s = At(h);
    s.admitted_at = submitted_at;  // response time includes queueing
    s.txn_id = next_txn_id_++;
    s.attempts = 1;
    if (protocol_ != nullptr) {
      s.age_stamp = next_age_stamp_++;
      protocol_->Begin(s.txn_id, s.age_stamp);
    }
    if (tracer_ != nullptr) {
      if (trace_parent != 0) tracer_->SetPendingParent(trace_parent);
      s.trace = tracer_->BeginTrace(s.txn_id, submitted_at);
      if (s.trace != 0) {
        if (Now() > submitted_at) {
          tracer_->Leaf(s.trace, obs::SpanKind::kAdmission, 0, submitted_at,
                        Now());
        }
        tracer_->Open(s.trace, obs::SpanKind::kAttempt, s.attempts, Now());
      }
    }
    // Events scheduled below inherit the trace context (network request,
    // CPU grants, ...), attributing their work to this transaction.
    desp::TraceScope trace_scope(&scheduler(), s.trace);
    clustering_->OnTransactionStart();
    if (config_.system_class == SystemClass::kDbServer) {
      // The whole query ships to the server up front.
      network_->Transfer(kRequestBytes, [this, h]() { ProcessNext(h); });
    } else {
      ProcessNext(h);
    }
  });
}

void TransactionManagerActor::ProcessNext(Handle h) {
  At(h);  // validates the handle
  if (pool_[h.index].stepping) {
    pool_[h.index].again = true;
    return;
  }
  pool_[h.index].stepping = true;
  for (;;) {
    pool_[h.index].again = false;
    Step(h);
    // Re-resolve: the step may have grown the pool, or committed and
    // recycled the slot (FreeInFlight clears its flags).
    Slot& slot = pool_[h.index];
    if (!slot.live || slot.generation != h.generation) return;
    if (!slot.again) {
      slot.stepping = false;
      return;
    }
  }
}

void TransactionManagerActor::Step(Handle h) {
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  if (state.next_access >= state.txn.accesses.size()) {
    Commit(h);
    return;
  }
  // GETLOCK: lock acquisition for this object operation, on the CPU.
  double cpu_cost = config_.get_lock_ms + config_.object_cpu_ms;
  if (clustering_->enabled()) cpu_cost += config_.clustering_stat_cpu_ms;
  if (cpu_cost > 0.0) {
    const double cpu_start = Now();
    cpu_.AcquireFor(cpu_cost,
                    [this, h, cpu_start]() { OnCpuReady(h, cpu_start); });
  } else {
    AccessObject(h);
  }
}

void TransactionManagerActor::OnCpuReady(Handle h, double cpu_start) {
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  if (tracer_ != nullptr && state.trace != 0 && Now() > cpu_start) {
    tracer_->Leaf(state.trace, obs::SpanKind::kCpu, 0, cpu_start, Now());
  }
  AccessObject(h);
}

void TransactionManagerActor::AccessObject(Handle h) {
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  const ocb::ObjectAccess access = state.txn.accesses[state.next_access];
  ++state.next_access;
  if (protocol_ != nullptr) {
    const double wait_start = Now();
    protocol_->Access(
        state.txn_id, access.oid, access.is_write,
        [this, h, access, wait_start]() {
          OnAccessGranted(h, access, wait_start);
        },
        [this, h]() { Restart(h); });
    return;
  }
  PerformAccess(h, access);
}

void TransactionManagerActor::OnAccessGranted(Handle h,
                                              ocb::ObjectAccess access,
                                              double wait_start) {
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  // Zero-width waits (the uncontended grant) carry no time and would only
  // clutter the exemplar trees — skip them.
  if (tracer_ != nullptr && state.trace != 0 && Now() > wait_start) {
    tracer_->Leaf(state.trace, obs::SpanKind::kCcWait, access.oid, wait_start,
                  Now());
  }
  PerformAccess(h, access);
}

void TransactionManagerActor::Restart(Handle h) {
  // Concurrency-control abort (wait-die "die", no-wait conflict,
  // deadlock, write conflict, or failed validation): release everything,
  // back off, retry from the start with a fresh protocol identity but
  // the original age stamp (so under wait-die the transaction eventually
  // becomes the oldest and cannot starve).
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  ++restarts_;
  protocol_->Abort(state.txn_id);
  if (recorder_ != nullptr) recorder_->OnTxnAbort();
  if (tracer_ != nullptr && state.trace != 0) {
    // The abort cause was annotated at decision time (protocol); only the
    // attempt span is open here (cc waits and buffer accesses are closed
    // before control can reach an abort).
    tracer_->Close(state.trace, Now());
    state.backoff_started = Now();
  }
  state.next_access = 0;
  state.response_bytes = 0;
  const double backoff = config_.restart_backoff_ms > 0.0
                             ? backoff_rng_.Exponential(
                                   config_.restart_backoff_ms)
                             : 0.0;
  CallIn(backoff, &TransactionManagerActor::Reattempt, h);
}

void TransactionManagerActor::Reattempt(Handle h) {
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  state.txn_id = next_txn_id_++;
  ++state.attempts;
  if (tracer_ != nullptr && state.trace != 0) {
    tracer_->Leaf(state.trace, obs::SpanKind::kBackoff, state.attempts - 1,
                  state.backoff_started, Now());
    tracer_->Open(state.trace, obs::SpanKind::kAttempt, state.attempts, Now());
  }
  protocol_->Begin(state.txn_id, state.age_stamp);
  ProcessNext(h);
}

void TransactionManagerActor::PerformAccess(Handle h,
                                            ocb::ObjectAccess access) {
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  ++object_operations_;
  clustering_->OnObjectAccess(access.oid, access.is_write);
  const storage::PageSpan span = object_manager_->SpanOf(access.oid);
  const uint64_t object_bytes = object_manager_->base().SizeOf(access.oid);
  // No span wraps the buffer access: a hit is free in simulated time, and
  // a miss's cost IS the disk IO — which the IO actor records against the
  // ambient trace context as a kIo leaf (queueing + service, page label)
  // under the open attempt.  One leaf per miss instead of two bracketing
  // calls per access keeps full-rate tracing cheap.
  buffering_->AccessObject(
      access.oid, access.is_write, [this, h, span, object_bytes]() {
        InFlight& s = At(h);
        desp::TraceScope ts(&scheduler(), s.trace);
        // Client-Server shipping once the data is server-resident.
        switch (config_.system_class) {
          case SystemClass::kCentralized:
            ProcessNext(h);
            break;
          case SystemClass::kPageServer:
            ShipAndContinue(h,
                            kRequestBytes + static_cast<uint64_t>(span.count) *
                                                config_.page_size);
            break;
          case SystemClass::kObjectServer:
            ShipAndContinue(h, kRequestBytes + object_bytes);
            break;
          case SystemClass::kDbServer:
            // Results accumulate and ship at commit.
            At(h).response_bytes += object_bytes;
            ProcessNext(h);
            break;
        }
      });
}

void TransactionManagerActor::ShipAndContinue(Handle h, uint64_t bytes) {
  network_->Transfer(bytes, [this, h]() { ProcessNext(h); });
}

void TransactionManagerActor::Commit(Handle h) {
  InFlight& state = At(h);
  desp::TraceScope trace_scope(&scheduler(), state.trace);
  // Commit-time validation (OCC backward validation, MVCC first
  // committer): a failed attempt restarts like any other abort.
  if (protocol_ != nullptr && !protocol_->ValidateCommit(state.txn_id)) {
    Restart(h);
    return;
  }
  if (tracer_ != nullptr && state.trace != 0) {
    // Covers lock release CPU, the result shipment, and any commit flush
    // (their IO/network leaves nest inside).
    tracer_->Open(state.trace, obs::SpanKind::kCommit, 0, Now());
  }
  // RELLOCK: every lock acquired by the transaction is released.
  const double release_cost =
      config_.release_lock_ms *
      static_cast<double>(state.txn.accesses.size());
  auto finish = [this, h]() {
    auto complete = [this, h]() {
      auto retire = [this, h]() {
        InFlight& s = At(h);
        {
          desp::TraceScope ts(&scheduler(), s.trace);
          if (protocol_ != nullptr) {
            protocol_->Commit(s.txn_id);  // strict 2PL release / install
            retry_histogram_.Add(static_cast<double>(s.attempts - 1));
          }
          clustering_->OnTransactionEnd();
          db_scheduler_.Release();
          ++committed_;
          const double response = Now() - s.admitted_at;
          response_times_.Add(response);
          response_histogram_.Add(response);
          phase_max_response_ms_ = std::max(phase_max_response_ms_, response);
          if (tracer_ != nullptr) {
            if (s.trace != 0) {
              tracer_->Close(s.trace, Now());  // kCommit
              tracer_->Close(s.trace, Now());  // the committed kAttempt
            }
            // With trace == 0 this clears the cross-shard stitch anchor.
            tracer_->FinishCommitted(s.trace, response, Now());
          }
        }
        // The continuation is the driver's, not this transaction's: run
        // it (and schedule its events) outside the trace context.
        desp::TraceScope clear(&scheduler(), 0);
        auto done = std::move(s.done);
        FreeInFlight(h);
        done();
      };
      if (config_.flush_on_commit) {
        buffering_->Flush(std::move(retire));
      } else {
        retire();
      }
    };
    if (config_.system_class == SystemClass::kDbServer &&
        At(h).response_bytes > 0) {
      network_->Transfer(At(h).response_bytes, std::move(complete));
    } else {
      complete();
    }
  };
  if (release_cost > 0.0) {
    cpu_.AcquireFor(release_cost, std::move(finish));
  } else {
    finish();
  }
}

void TransactionManagerActor::SetTracer(obs::SpanTracer* tracer) {
  tracer_ = tracer;
  if (protocol_ != nullptr) protocol_->SetTracer(tracer);
}

void TransactionManagerActor::SetNextTraceParent(uint64_t parent_global_id) {
  if (tracer_ != nullptr) tracer_->SetPendingParent(parent_global_id);
}


void TransactionManagerActor::RegisterMetrics(
    obs::MetricRegistry& registry) const {
  registry.RegisterCounter("txn.committed", &committed_);
  registry.RegisterCounter("txn.object_operations", &object_operations_);
  registry.RegisterCounter("txn.restarts", &restarts_);
  registry.RegisterHistogram("txn.response_ms", &response_histogram_);
  registry.RegisterGauge("txn.scheduler_utilization",
                         [this] { return SchedulerUtilization(); });
  if (protocol_ != nullptr) {
    protocol_->RegisterMetrics(registry);
    registry.RegisterHistogram("cc.retries", &retry_histogram_);
  }
}

}  // namespace voodb::core
