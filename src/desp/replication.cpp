#include "desp/replication.hpp"

#include "util/check.hpp"

namespace voodb::desp {

void MetricSink::Observe(const std::string& name, double value) {
  VOODB_CHECK_MSG(values_.emplace(name, value).second,
                  "metric '" << name << "' observed twice in one replication");
}

const Tally& ReplicationResult::Metric(const std::string& name) const {
  const auto it = tallies_.find(name);
  VOODB_CHECK_MSG(it != tallies_.end(), "unknown metric '" << name << "'");
  return it->second;
}

bool ReplicationResult::HasMetric(const std::string& name) const {
  return tallies_.count(name) != 0;
}

std::vector<std::string> ReplicationResult::MetricNames() const {
  std::vector<std::string> names;
  names.reserve(tallies_.size());
  for (const auto& [name, tally] : tallies_) names.push_back(name);
  return names;
}

void ReplicationResult::AddReplication(
    const std::map<std::string, double>& observations) {
  for (const auto& [name, value] : observations) {
    Tally single;
    single.Add(value);
    tallies_[name].Merge(single);
  }
  ++replications_;
}

ConfidenceInterval ReplicationResult::Interval(const std::string& name,
                                               double level) const {
  return StudentConfidenceInterval(Metric(name), level);
}

}  // namespace voodb::desp
