/// \file transaction_manager.hpp
/// \brief The Transaction Manager active resource (knowledge model, Fig. 4).
///
/// Admits transactions against the database scheduler (a passive resource
/// of capacity MULTILVL, Table 1: "concurrent access is managed by a
/// scheduler that applies a transaction scheduling policy that depends on
/// the multiprogramming level"), acquires a lock per object operation
/// (GETLOCK on the CPU), asks the Object Manager for the object's pages,
/// the Buffering Manager for those pages, the network for shipping
/// (Client-Server classes), and releases locks at commit (RELLOCK).
///
/// Concurrency control is delegated to a pluggable `cc::Protocol`
/// (selected by VoodbConfig::cc_protocol when use_lock_manager is on):
/// the manager registers each attempt, routes every object operation
/// through the protocol's access decision, validates at commit, and
/// restarts aborted attempts after a randomized backoff — identically
/// for lock-based, multiversion, and optimistic schemes.
///
/// In-flight transaction state lives in a generation-counted slot pool
/// (the DES arena discipline): continuations capture an 8-byte handle,
/// and every continuation the manager hands down (resources, protocol,
/// buffering, network) is a `desp::Scheduler::Action` that holds that
/// capture inline, so the steady-state hot path performs no allocation
/// per attempt and the pool size is bounded by the multiprogramming
/// level, not the run length.
#pragma once

#include <cstdint>
#include <memory>

#include "cc/protocol.hpp"
#include "desp/actor.hpp"
#include "desp/histogram.hpp"
#include "desp/random.hpp"
#include "desp/resource.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "desp/stats.hpp"
#include "ocb/types.hpp"
#include "voodb/buffering_manager.hpp"
#include "voodb/clustering_manager.hpp"
#include "voodb/config.hpp"
#include "voodb/network.hpp"
#include "voodb/object_manager.hpp"

namespace voodb::obs {
class MetricRegistry;
class SpanTracer;
}  // namespace voodb::obs

namespace voodb::trace {
class Recorder;
}  // namespace voodb::trace

namespace voodb::core {

/// The Transaction Manager actor.
class TransactionManagerActor : public desp::Actor {
 public:
  TransactionManagerActor(desp::Scheduler* scheduler,
                          const VoodbConfig& config,
                          ObjectManagerActor* object_manager,
                          BufferingManagerActor* buffering,
                          ClusteringManagerActor* clustering,
                          NetworkActor* network);

  /// Executes `txn` to commit, then calls `done`.  Transactions beyond
  /// the multiprogramming level queue at the database scheduler.
  ///
  /// The transaction is taken by swap: `txn` comes back holding an
  /// in-flight slot's recycled buffer, its accesses cleared but its
  /// capacity kept.  A driver that refills that same object for its next
  /// submission (`ocb::WorkloadSource::NextInto`) passes access buffers
  /// back and forth with the pool and allocates none once both have
  /// grown to the largest transaction.
  void Submit(ocb::Transaction& txn, desp::Scheduler::Action done);

  uint64_t committed() const { return committed_; }
  uint64_t object_operations() const { return object_operations_; }
  /// Concurrency-control restarts (0 unless use_lock_manager).
  uint64_t restarts() const { return restarts_; }
  const desp::Tally& response_times() const { return response_times_; }
  /// Full response-time distribution (ms) since construction; use
  /// Quantile(0.5/0.95/0.99) for percentile reporting.
  const desp::LogHistogram& response_histogram() const {
    return response_histogram_;
  }
  /// Largest response (ms) since the last `StartPhase` (construction, if
  /// none): a phase's own maximum, where the histogram's tracked maximum
  /// is run-cumulative.
  double phase_max_response_ms() const { return phase_max_response_ms_; }
  void StartPhase() { phase_max_response_ms_ = 0.0; }
  double SchedulerUtilization() const { return db_scheduler_.Utilization(); }
  /// The concurrency-control protocol (nullptr unless use_lock_manager).
  const cc::Protocol* cc_protocol() const { return protocol_.get(); }

  /// In-flight slot-pool occupancy/capacity — the capacity is bounded by
  /// the concurrency in flight, never by transactions run (micro_cc
  /// asserts this).
  size_t inflight_pool_live() const { return pool_.live(); }
  size_t inflight_pool_capacity() const { return pool_.capacity(); }

  /// Attaches/detaches (nullptr) a trace recorder; aborted attempts are
  /// recorded as kTxnAbort markers so contention runs replay as full
  /// transaction streams.
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  /// Attaches/detaches (nullptr) the span tracer; the manager emits the
  /// transaction's own spans (root, admission, attempts, cpu slices, cc
  /// waits, commit, backoffs; disk and network work is emitted by those
  /// actors) and shares the tracer with the protocol for abort-cause
  /// annotation.  Pure metadata: simulation results are unchanged.
  void SetTracer(obs::SpanTracer* tracer);

  /// Declares the next submitted transaction a cross-shard sub-transaction
  /// of `parent_global_id`, stitching its trace to the parent's.
  void SetNextTraceParent(uint64_t parent_global_id);

  /// Registers this actor's counters/histograms (and the protocol's,
  /// when enabled) with `registry` — pointer handles, no update overhead.
  void RegisterMetrics(obs::MetricRegistry& registry) const;

 private:
  struct InFlight {
    ocb::Transaction txn;
    size_t next_access = 0;
    double admitted_at = 0.0;
    uint64_t response_bytes = 0;  // DbServer: result shipped at commit
    uint64_t txn_id = 0;          // protocol identity (per attempt)
    uint64_t age_stamp = 0;       // wait-die age (kept across restarts)
    uint64_t attempts = 0;        // 1 + restarts of this transaction
    uint32_t trace = 0;           // span-tracer context (0 = untraced)
    double backoff_started = 0.0;  // restart backoff span begin
    desp::Scheduler::Action done;
  };
  /// Generation-counted reference into the slot pool.  Continuations
  /// capture this by value and re-resolve on fire, so pool growth never
  /// invalidates an outstanding callback and a stale handle is caught by
  /// the generation check instead of corrupting a recycled slot.
  struct Handle {
    uint32_t index = 0;
    uint32_t generation = 0;
  };
  struct Slot {
    InFlight state;
    uint32_t generation = 0;
    bool live = false;
    /// ProcessNext's loop is on the stack for this transaction; a nested
    /// ProcessNext only sets `again` and returns to it.
    bool stepping = false;
    bool again = false;
  };

  Handle AllocInFlight();
  InFlight& At(Handle h);
  void FreeInFlight(Handle h);

  /// Runs the transaction's next steps.  A step whose continuation comes
  /// back synchronously (an inline cc grant, a buffer hit) asks for the
  /// next one instead of recursing, so an all-hit transaction runs in
  /// constant stack depth however many accesses it makes.
  void ProcessNext(Handle h);
  /// One step: the next object operation, or Commit once none is left.
  void Step(Handle h);
  /// CPU slice for the access bookkeeping done: emit the span, go on.
  void OnCpuReady(Handle h, double cpu_start);
  void AccessObject(Handle h);
  /// Protocol granted the access: emit the cc-wait span, perform it.
  void OnAccessGranted(Handle h, ocb::ObjectAccess access, double wait_start);
  void PerformAccess(Handle h, ocb::ObjectAccess access);
  void Restart(Handle h);
  /// Backoff elapsed: re-register with the protocol and retry.
  void Reattempt(Handle h);
  void ShipAndContinue(Handle h, uint64_t bytes);
  void Commit(Handle h);

  const VoodbConfig config_;
  ObjectManagerActor* object_manager_;
  BufferingManagerActor* buffering_;
  ClusteringManagerActor* clustering_;
  NetworkActor* network_;
  desp::Resource db_scheduler_;  ///< capacity = MULTILVL
  desp::Resource cpu_;           ///< server CPU (locks, object ops, stats)
  std::unique_ptr<cc::Protocol> protocol_;  ///< §5 extension, pluggable
  trace::Recorder* recorder_ = nullptr;
  obs::SpanTracer* tracer_ = nullptr;
  desp::RandomStream backoff_rng_;
  desp::SlotPool<Slot> pool_;
  uint64_t next_txn_id_ = 1;
  uint64_t next_age_stamp_ = 1;
  uint64_t committed_ = 0;
  uint64_t object_operations_ = 0;
  uint64_t restarts_ = 0;
  desp::Tally response_times_;
  desp::LogHistogram response_histogram_;
  double phase_max_response_ms_ = 0.0;
  /// Restarts per committed transaction (cc.retries) when a protocol is
  /// active.
  desp::LogHistogram retry_histogram_;
};

}  // namespace voodb::core
