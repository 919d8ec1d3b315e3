/// \file micro_cc.hpp
/// \brief Concurrency-control protocol micro bench as a catalog scenario.
///
/// A synthetic contended lock workload (fixed user count, fixed accesses
/// per transaction, small hot oid space, restart-on-abort with
/// exponential backoff) driven directly on a `desp::Scheduler` through
/// each `cc::Protocol`.  The scenario *fails* unless every transaction
/// commits and each protocol's cause-attributed abort counters account
/// for every restart.  Per-protocol wall-clock overhead lands in
/// BENCH_micro_cc.json.  (The 2PL event stream itself is pinned by golden
/// outputs in tests/test_cc.cpp.)
///
/// The scenario also asserts the Transaction Manager's pooled in-flight
/// scheme: a two-phase contended system run must not grow the slot pool
/// after warm-up (capacity is bounded by concurrency, not transactions
/// run) and must leave zero live slots — the allocation witness for the
/// `shared_ptr<InFlight>` replacement.
///
/// Protocol-knob mapping (micro benches have no model config):
///   --transactions=N   transactions per synthetic user
///   --replications=N   timed trials per protocol
#pragma once

#include "exp/scenario.hpp"

namespace voodb::bench {

/// Run hook of the `micro_cc` scenario.
exp::ScenarioResult RunMicroCcScenario(const exp::ScenarioContext& ctx);

}  // namespace voodb::bench
