#include "cc/protocol.hpp"

#include "cc/lock_table.hpp"
#include "cc/mvcc.hpp"
#include "cc/occ.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace voodb::cc {

const char* ToString(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kNoWait:
      return "no_wait";
    case ProtocolKind::kWaitDie:
      return "wait_die";
    case ProtocolKind::kDeadlockDetect:
      return "deadlock_detect";
    case ProtocolKind::kMvcc:
      return "mvcc";
    case ProtocolKind::kOcc:
      return "occ";
  }
  return "?";
}

Protocol::Protocol(desp::Scheduler* scheduler) : scheduler_(scheduler) {
  VOODB_CHECK_MSG(scheduler_ != nullptr, "cc::Protocol needs a scheduler");
}

Protocol::~Protocol() = default;

void Protocol::NoteAbort(obs::AbortCause cause) {
  if (tracer_ != nullptr) tracer_->NoteAbortAmbient(cause);
}

void Protocol::RegisterMetrics(obs::MetricRegistry& registry) const {
  registry.RegisterCounter("cc.begins", &stats_.begins);
  registry.RegisterCounter("cc.requests", &stats_.requests);
  registry.RegisterCounter("cc.immediate_grants", &stats_.immediate_grants);
  registry.RegisterCounter("cc.waits", &stats_.waits);
  registry.RegisterCounter("cc.upgrades", &stats_.upgrades);
  registry.RegisterCounter("cc.commits", &stats_.commits);
  registry.RegisterCounter("cc.aborts.no_wait", &stats_.aborts_no_wait);
  registry.RegisterCounter("cc.aborts.wait_die", &stats_.aborts_wait_die);
  registry.RegisterCounter("cc.aborts.deadlock", &stats_.aborts_deadlock);
  registry.RegisterCounter("cc.aborts.write_conflict",
                           &stats_.aborts_write_conflict);
  registry.RegisterCounter("cc.validation_failures",
                           &stats_.validation_failures);
  registry.RegisterCounter("cc.versions.installed",
                           &stats_.versions_installed);
  registry.RegisterCounter("cc.versions.pruned", &stats_.versions_pruned);
  registry.RegisterHistogram("cc.wait_ms", &stats_.wait_histogram);
  registry.RegisterHistogram("cc.version_chain", &stats_.version_chain);
}

std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind,
                                       desp::Scheduler* scheduler) {
  switch (kind) {
    case ProtocolKind::kNoWait:
    case ProtocolKind::kWaitDie:
    case ProtocolKind::kDeadlockDetect:
      return std::make_unique<LockTable>(scheduler, kind);
    case ProtocolKind::kMvcc:
      return std::make_unique<Mvcc>(scheduler);
    case ProtocolKind::kOcc:
      return std::make_unique<Occ>(scheduler);
  }
  VOODB_CHECK_MSG(false, "unknown cc protocol kind "
                             << static_cast<int>(kind));
  return nullptr;
}

}  // namespace voodb::cc
