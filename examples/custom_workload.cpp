/// \file custom_workload.cpp
/// \brief Authoring a custom OCB workload and running it as a replicated
/// experiment with confidence intervals — the paper's §4.2.2 protocol
/// (pilot study, n* = n.(h/h*)^2, Student-t intervals) through one cell
/// and `exp::RunCells`.
///
/// The scenario: an update-heavy CAD-like application with a skewed
/// working set, evaluated a priori on the O2 configuration — "estimate
/// whether a given system is able to handle a given workload" (§1).
#include <iostream>
#include <string>

#include "exp/scenario.hpp"
#include "voodb/catalog.hpp"

int main() {
  using namespace voodb;

  exp::Cell cell;
  cell.label = "cad";

  // The system under evaluation: O2 as validated in §4, with a smaller
  // server cache than the default installation and a force-at-commit
  // policy so updates hit the disk.
  cell.config.system = core::SystemCatalog::O2WithCache(8.0);
  cell.config.system.flush_on_commit = true;

  // A custom workload: smaller base, Zipf-skewed roots (a hot working
  // set), long stochastic walks, and 20 % updates.
  ocb::OcbParameters& workload = cell.config.workload;
  workload.num_classes = 30;
  workload.num_objects = 8000;
  workload.root_distribution = ocb::Distribution::kZipf;
  workload.zipf_skew = 0.9;
  workload.p_set = 0.10;
  workload.p_simple = 0.20;
  workload.p_hierarchy = 0.20;
  workload.p_stochastic = 0.50;
  workload.stochastic_depth = 80;
  workload.p_update = 0.20;
  workload.cold_transactions = 100;  // COLDN: unmeasured warm-up
  cell.transactions = 500;           // HOTN: measured (`--transactions`)

  exp::ScenarioOptions options;
  options.replications = 20;
  const desp::ReplicationResult result =
      exp::RunCells({cell}, options).front().result;

  // Every metric a cell observes, as mean +- 95 % CI half-width.
  std::cout << "Replications: " << result.replications() << "\n\n";
  for (const std::string& metric : result.MetricNames()) {
    const desp::ConfidenceInterval ci = result.Interval(metric, 0.95);
    std::cout << metric << ": " << ci.mean << " +- " << ci.half_width
              << "  (95% CI [" << ci.lower() << ", " << ci.upper() << "])\n";
  }

  // The paper's precision rule: are we within 5% of the sample mean with
  // 95% confidence on the headline metric?
  const desp::ConfidenceInterval ios = result.Interval("total_ios", 0.95);
  const bool precise = ios.half_width <= 0.05 * ios.mean;
  std::cout << "\nWithin 5% of the sample mean with 95% confidence: "
            << (precise ? "yes" : "no — raise the replications") << "\n";
  if (!precise && ios.half_width > 0.0) {
    const auto extra = desp::AdditionalReplications(
        result.replications(), ios.half_width, 0.05 * ios.mean);
    std::cout << "Pilot rule n* = n.(h/h*)^2 suggests " << extra
              << " additional replications.\n";
  }
  return 0;
}
