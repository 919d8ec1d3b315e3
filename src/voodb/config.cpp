#include "voodb/config.hpp"

#include <algorithm>

#include "obs/spans.hpp"
#include "util/check.hpp"
#include "voodb/param_registry.hpp"

namespace voodb::core {

const char* ToString(SystemClass s) {
  switch (s) {
    case SystemClass::kCentralized:
      return "CENTRALIZED";
    case SystemClass::kObjectServer:
      return "OBJECT_SERVER";
    case SystemClass::kPageServer:
      return "PAGE_SERVER";
    case SystemClass::kDbServer:
      return "DB_SERVER";
  }
  return "?";
}

const char* ToString(PrefetchPolicy p) {
  switch (p) {
    case PrefetchPolicy::kNone:
      return "NONE";
    case PrefetchPolicy::kSequential:
      return "SEQUENTIAL";
  }
  return "?";
}

const char* ToString(WorkloadSourceKind s) {
  switch (s) {
    case WorkloadSourceKind::kSynthetic:
      return "SYNTHETIC";
    case WorkloadSourceKind::kTrace:
      return "TRACE";
    case WorkloadSourceKind::kYcsbZipf:
      return "YCSB_ZIPF";
  }
  return "?";
}

void VoodbConfig::Validate() const {
  // Per-field ranges come from the parameter registry, so every error
  // names the offending parameter; only cross-field constraints live
  // here.
  ParamRegistry::Instance().ValidateSystem(*this);
  VOODB_CHECK_MSG(prefetch == PrefetchPolicy::kNone || prefetch_depth >= 1,
                  "parameter 'prefetch_depth' must be >= 1 when prefetch "
                  "is enabled");
  VOODB_CHECK_MSG(!trace_record || !trace_path.empty(),
                  "parameter 'trace_path' must be set when trace_record "
                  "is enabled");
  VOODB_CHECK_MSG(workload_source != WorkloadSourceKind::kTrace ||
                      !trace_path.empty(),
                  "parameter 'trace_path' must name a recorded trace when "
                  "workload_source is trace");
  // Both directions share the one trace_path field, so recording while
  // replaying would truncate the very trace being read.
  VOODB_CHECK_MSG(!(trace_record &&
                    workload_source == WorkloadSourceKind::kTrace),
                  "parameter 'trace_record' cannot be combined with "
                  "workload_source=trace: trace_path would be both the "
                  "replay input and the recording output");
  // A sharded run records per-shard interleavings the single trace_path
  // cannot hold.
  VOODB_CHECK_MSG(shards == 1 || !trace_record,
                  "parameter 'shards' > 1 cannot be combined with "
                  "trace_record");
  // Each shard draws from its own synthetic generator over its partition;
  // a trace or YCSB source is one serial stream over the whole base.
  VOODB_CHECK_MSG(shards == 1 ||
                      workload_source == WorkloadSourceKind::kSynthetic,
                  "parameter 'shards' > 1 cannot be combined with "
                  "workload_source="
                      << ParamRegistry::Instance().FormatValue(
                             "workload_source",
                             static_cast<double>(workload_source))
                      << ": only the synthetic generator runs sharded");
  // Every admitted transaction holds one span-tracer slot.  A user has
  // one transaction live at a time, local or (sharded) a sub-transaction
  // on another shard, so a shard admits at most min(all users, MULTILVL).
  const uint64_t concurrent =
      std::min<uint64_t>(uint64_t{num_users} * shards, multiprogramming_level);
  VOODB_CHECK_MSG(!trace_spans ||
                      concurrent <= obs::SpanTracer::kMaxConcurrentTraces,
                  "parameters 'num_users' and 'multiprogramming_level' admit "
                      << concurrent << " concurrent transactions, but "
                      << "trace_spans traces at most "
                      << obs::SpanTracer::kMaxConcurrentTraces
                      << "; lower either or set trace_spans=false");
  disk.Validate();
}

}  // namespace voodb::core
