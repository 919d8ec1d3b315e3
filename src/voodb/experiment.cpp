#include "voodb/experiment.hpp"

#include <utility>

#include "desp/random.hpp"
#include "exp/farm.hpp"
#include "ocb/workload.hpp"
#include "util/check.hpp"

namespace voodb::core {

desp::ReplicationResult Experiment::Run(const ExperimentConfig& config) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(config.workload);
  return RunOnBase(config, base);
}

exp::ReplicationFarm::Model Experiment::MakeModel(
    ExperimentConfig config, const ocb::ObjectBase* base) {
  VOODB_CHECK_MSG(base != nullptr, "object base required");
  return [config = std::move(config), base](uint64_t seed,
                                            desp::MetricSink& sink) {
    std::unique_ptr<cluster::ClusteringPolicy> policy;
    if (config.make_policy) policy = config.make_policy();
    VoodbSystem system(config.system, base, std::move(policy), seed);
    ocb::WorkloadGenerator workload(base, desp::RandomStream(seed).Derive(1));
    if (config.workload.cold_transactions > 0) {
      system.RunTransactions(workload, config.workload.cold_transactions);
    }
    const PhaseMetrics hot =
        system.RunTransactions(workload, config.workload.hot_transactions);
    sink.Observe("total_ios", static_cast<double>(hot.total_ios));
    sink.Observe("reads", static_cast<double>(hot.reads));
    sink.Observe("writes", static_cast<double>(hot.writes));
    sink.Observe("hit_rate", hot.HitRate());
    sink.Observe("mean_response_ms", hot.mean_response_ms);
    sink.Observe("throughput_tps", hot.ThroughputTps());
    sink.Observe("sim_time_ms", hot.sim_time_ms);
    sink.Observe("object_accesses",
                 static_cast<double>(hot.object_accesses));
  };
}

desp::ReplicationResult Experiment::RunOnBase(const ExperimentConfig& config,
                                              const ocb::ObjectBase& base) {
  VOODB_CHECK_MSG(config.replications >= 1, "need at least one replication");
  exp::FarmOptions options;
  options.threads = config.threads;
  options.base_seed = config.base_seed;
  return exp::ReplicationFarm(MakeModel(config, &base), options)
      .Run(config.replications);
}

double Experiment::MeanTotalIos(const ExperimentConfig& config) {
  return Run(config).Metric("total_ios").mean();
}

}  // namespace voodb::core
