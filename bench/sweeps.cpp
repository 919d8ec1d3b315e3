#include "sweeps.hpp"

#include <iostream>

#include "cluster/dstc.hpp"
#include "desp/random.hpp"
#include "emu/o2_emulator.hpp"
#include "emu/texas_emulator.hpp"
#include "util/check.hpp"
#include "voodb/catalog.hpp"
#include "voodb/system.hpp"

namespace voodb::bench {

const std::vector<double>& InstancePoints() {
  static const std::vector<double> points = {500,  1000,  2000,
                                             5000, 10000, 20000};
  return points;
}

const std::vector<double>& MemoryPoints() {
  static const std::vector<double> points = {8, 12, 16, 24, 32, 64};
  return points;
}

namespace {

double RunEmulator(TargetSystem system, const ocb::ObjectBase& base,
                   double memory_mb, uint64_t transactions, uint64_t seed) {
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed));
  if (system == TargetSystem::kO2) {
    emu::O2Config cfg;
    cfg.cache_pages = static_cast<uint64_t>(memory_mb * 1024 * 1024 / 4096);
    emu::O2Emulator o2(cfg, &base, seed);
    return static_cast<double>(o2.RunTransactions(gen, transactions).total_ios);
  }
  emu::TexasConfig cfg;
  cfg.memory_pages = emu::TexasConfig::FramesForMemory(memory_mb, 4096);
  emu::TexasEmulator texas(cfg, &base, seed);
  return static_cast<double>(texas.RunTransactions(gen, transactions).total_ios);
}

core::PhaseMetrics RunSimulation(const core::VoodbConfig& sim_config,
                                 const ocb::ObjectBase& base,
                                 uint64_t transactions, uint64_t seed) {
  core::VoodbSystem sys(sim_config, &base, nullptr, seed);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed).Derive(1));
  return sys.RunTransactions(gen, transactions);
}

/// One replicated simulation series: the headline scalar (total I/Os)
/// plus the end-to-end latency distributions, farm-merged.
desp::ReplicationResult ReplicateSimulation(
    const exp::ScenarioOptions& options,
    const core::VoodbConfig& sim_config,
    const ocb::ObjectBase& base) {
  return ReplicateResult(
      options, options.seed ^ 0x5151,
      [&](uint64_t seed, desp::MetricSink& sink) {
        const core::PhaseMetrics m =
            RunSimulation(sim_config, base, options.transactions, seed);
        sink.Observe("value", static_cast<double>(m.total_ios));
        sink.ObserveHistogram("response_ms", m.response_histogram);
        sink.ObserveHistogram("disk_service_ms", m.disk_service_histogram);
      });
}

}  // namespace

std::vector<FigurePoint> RunInstanceSweep(
    const exp::ScenarioOptions& options, TargetSystem system,
    const ocb::OcbParameters& workload, double memory_mb,
    const core::VoodbConfig& sim_config,
    const std::vector<double>& instance_points, const char* title,
    const std::vector<double>& paper_bench,
    const std::vector<double>& paper_sim) {
  VOODB_CHECK(paper_bench.size() == instance_points.size());
  VOODB_CHECK(paper_sim.size() == instance_points.size());
  FigureReport report(title, "Instances");
  LatencyReport latency(std::string(title) + " — response time (ms, sim)",
                        "Instances");
  std::vector<FigurePoint> points;
  points.reserve(instance_points.size());
  for (size_t i = 0; i < instance_points.size(); ++i) {
    const auto no = static_cast<uint64_t>(instance_points[i]);
    ocb::OcbParameters point_workload = workload;
    point_workload.num_objects = no;
    const ocb::ObjectBase base = ocb::ObjectBase::Generate(point_workload);
    const Estimate bench =
        Replicate(options, options.seed, [&](uint64_t seed) {
          return RunEmulator(system, base, memory_mb, options.transactions,
                             seed);
        });
    const desp::ReplicationResult sim_result =
        ReplicateSimulation(options, sim_config, base);
    const Estimate sim = EstimateOf(sim_result.Metric("value"));
    report.AddPoint(std::to_string(no), bench, sim, paper_bench[i],
                    paper_sim[i]);
    latency.AddPoint(std::to_string(no), sim_result.Histogram("response_ms"));
    points.push_back({std::to_string(no), bench, sim});
  }
  report.Print(options);
  latency.Print(options);
  return points;
}

std::vector<FigurePoint> RunMemorySweep(
    const exp::ScenarioOptions& options, TargetSystem system,
    const ocb::OcbParameters& workload, const core::VoodbConfig& sim_base,
    const std::vector<double>& memory_points, const char* title,
    const std::vector<double>& paper_bench,
    const std::vector<double>& paper_sim) {
  VOODB_CHECK(paper_bench.size() == memory_points.size());
  VOODB_CHECK(paper_sim.size() == memory_points.size());
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(workload);
  const char* x_label =
      system == TargetSystem::kO2 ? "Cache (MB)" : "Memory (MB)";
  FigureReport report(title, x_label);
  LatencyReport latency(std::string(title) + " — response time (ms, sim)",
                        x_label);
  std::vector<FigurePoint> points;
  points.reserve(memory_points.size());
  for (size_t i = 0; i < memory_points.size(); ++i) {
    const double mb = memory_points[i];
    core::VoodbConfig sim_config = sim_base;
    if (system == TargetSystem::kO2) {
      core::SystemCatalog::SetO2Cache(sim_config, mb);
    } else {
      core::SystemCatalog::SetTexasMemory(sim_config, mb);
    }
    const Estimate bench =
        Replicate(options, options.seed, [&](uint64_t seed) {
          return RunEmulator(system, base, mb, options.transactions, seed);
        });
    const desp::ReplicationResult sim_result =
        ReplicateSimulation(options, sim_config, base);
    const Estimate sim = EstimateOf(sim_result.Metric("value"));
    report.AddPoint(util::FormatDouble(mb, 0), bench, sim, paper_bench[i],
                    paper_sim[i]);
    latency.AddPoint(util::FormatDouble(mb, 0),
                     sim_result.Histogram("response_ms"));
    points.push_back({util::FormatDouble(mb, 0), bench, sim});
  }
  report.Print(options);
  latency.Print(options);
  return points;
}

namespace {

/// One replication of the DSTC experiment on either path.
struct DstcRun {
  double pre = 0.0;
  double overhead = 0.0;
  double post = 0.0;
  double clusters = 0.0;
  double cluster_size = 0.0;
  /// Transaction response-time distributions of the two usage phases
  /// (simulation path only; the direct-execution emulator has no
  /// simulated clock).
  desp::LogHistogram response_pre;
  desp::LogHistogram response_post;
  double Gain() const { return post > 0.0 ? pre / post : 0.0; }
};

DstcRun DstcOnEmulator(const ocb::ObjectBase& base, double memory_mb,
                       uint64_t transactions, uint64_t seed) {
  emu::TexasConfig cfg;
  cfg.memory_pages = emu::TexasConfig::FramesForMemory(memory_mb, 4096);
  emu::TexasEmulator texas(cfg, &base, seed);
  texas.SetClusteringPolicy(std::make_unique<cluster::DstcPolicy>());
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed));
  DstcRun run;
  run.pre = static_cast<double>(
      texas
          .RunTransactionsOfKind(
              gen, ocb::TransactionKind::kHierarchyTraversal, transactions)
          .total_ios);
  const emu::TexasClusteringMetrics cm = texas.PerformClustering();
  run.overhead = static_cast<double>(cm.overhead_ios);
  run.clusters = static_cast<double>(cm.num_clusters);
  run.cluster_size = cm.mean_cluster_size;
  texas.DropMemory();
  run.post = static_cast<double>(
      texas
          .RunTransactionsOfKind(
              gen, ocb::TransactionKind::kHierarchyTraversal, transactions)
          .total_ios);
  return run;
}

DstcRun DstcOnSimulation(const ocb::ObjectBase& base,
                         const core::VoodbConfig& sim_base,
                         uint64_t transactions, uint64_t seed) {
  core::VoodbSystem sys(sim_base, &base,
                        std::make_unique<cluster::DstcPolicy>(), seed);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed).Derive(1));
  DstcRun run;
  const core::PhaseMetrics pre = sys.RunTransactionsOfKind(
      gen, ocb::TransactionKind::kHierarchyTraversal, transactions);
  run.pre = static_cast<double>(pre.total_ios);
  run.response_pre = pre.response_histogram;
  const core::ClusteringMetrics cm = sys.TriggerClustering();
  run.overhead = static_cast<double>(cm.overhead_ios);
  run.clusters = static_cast<double>(cm.num_clusters);
  run.cluster_size = cm.mean_cluster_size;
  sys.DropBuffer();
  const core::PhaseMetrics post = sys.RunTransactionsOfKind(
      gen, ocb::TransactionKind::kHierarchyTraversal, transactions);
  run.post = static_cast<double>(post.total_ios);
  run.response_post = post.response_histogram;
  return run;
}

void ObserveDstcRun(const DstcRun& run, desp::MetricSink& sink) {
  sink.Observe("pre", run.pre);
  sink.Observe("overhead", run.overhead);
  sink.Observe("post", run.post);
  sink.Observe("gain", run.Gain());
  sink.Observe("clusters", run.clusters);
  sink.Observe("cluster_size", run.cluster_size);
}

DstcAggregate Aggregate(const std::map<std::string, Estimate>& metrics) {
  DstcAggregate agg;
  agg.pre = metrics.at("pre");
  agg.overhead = metrics.at("overhead");
  agg.post = metrics.at("post");
  agg.gain = metrics.at("gain");
  agg.clusters = metrics.at("clusters");
  agg.cluster_size = metrics.at("cluster_size");
  return agg;
}

void RecordDstcAggregate(const std::string& series, const DstcAggregate& a) {
  const std::string section = "dstc";
  RecordEstimate(section, "pre_clustering_ios", series, a.pre);
  RecordEstimate(section, "clustering_overhead_ios", series, a.overhead);
  RecordEstimate(section, "post_clustering_ios", series, a.post);
  RecordEstimate(section, "gain", series, a.gain);
  RecordEstimate(section, "clusters", series, a.clusters);
  RecordEstimate(section, "mean_cluster_size", series, a.cluster_size);
}

}  // namespace

DstcComparison RunDstcExperiment(const exp::ScenarioOptions& options,
                                 double memory_mb,
                                 const ocb::OcbParameters& workload,
                                 const core::VoodbConfig& sim_base) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(workload);
  // Two farm runs over the same seed chain: replication i exercises the
  // emulator and the simulation with the same seed, exactly as the old
  // serial pairing did.
  DstcComparison cmp;
  cmp.bench = Aggregate(EstimatesOf(ReplicateResult(
      options, options.seed, [&](uint64_t seed, desp::MetricSink& sink) {
        ObserveDstcRun(
            DstcOnEmulator(base, memory_mb, options.transactions, seed),
            sink);
      })));
  const desp::ReplicationResult sim_result = ReplicateResult(
      options, options.seed, [&](uint64_t seed, desp::MetricSink& sink) {
        const DstcRun run =
            DstcOnSimulation(base, sim_base, options.transactions, seed);
        ObserveDstcRun(run, sink);
        sink.ObserveHistogram("response_pre_ms", run.response_pre);
        sink.ObserveHistogram("response_post_ms", run.response_post);
      });
  cmp.sim = Aggregate(EstimatesOf(sim_result));
  RecordDstcAggregate("benchmark", cmp.bench);
  RecordDstcAggregate("simulation", cmp.sim);
  LatencyReport latency("dstc — response time (ms, sim)", "Phase");
  latency.AddPoint("pre_clustering", sim_result.Histogram("response_pre_ms"));
  latency.AddPoint("post_clustering",
                   sim_result.Histogram("response_post_ms"));
  latency.Print(options);
  return cmp;
}

}  // namespace voodb::bench
