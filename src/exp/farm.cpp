#include "exp/farm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>

#include "desp/random.hpp"
#include "desp/stats.hpp"
#include "exp/executor.hpp"
#include "util/check.hpp"

namespace voodb::exp {

std::vector<uint64_t> DeriveSeeds(uint64_t base_seed, uint64_t n) {
  std::vector<uint64_t> seeds;
  seeds.reserve(n);
  uint64_t sm = base_seed;
  for (uint64_t i = 0; i < n; ++i) seeds.push_back(desp::SplitMix64(sm));
  return seeds;
}

desp::ReplicationResult Reduce(
    const std::vector<std::map<std::string, double>>& per_replication) {
  desp::ReplicationResult result;
  for (const auto& observations : per_replication) {
    result.AddReplication(observations);
  }
  return result;
}

std::vector<desp::ReplicationResult> RunGrid(
    size_t num_points, const std::function<Model(size_t point)>& make_model,
    uint64_t replications, const FarmOptions& options) {
  VOODB_CHECK_MSG(static_cast<bool>(make_model), "model factory required");
  VOODB_CHECK_MSG(replications >= 1, "need at least one replication");

  // Instantiate models serially in point order (factories may share state).
  std::vector<Model> models;
  models.reserve(num_points);
  for (size_t p = 0; p < num_points; ++p) {
    models.push_back(make_model(p));
    VOODB_CHECK_MSG(static_cast<bool>(models.back()),
                    "factory returned a null model for point " << p);
  }

  // Every point reuses the same seed chain: common random numbers across
  // points.
  const std::vector<uint64_t> seeds =
      DeriveSeeds(options.base_seed, replications);
  std::vector<std::vector<std::map<std::string, double>>> observations(
      num_points,
      std::vector<std::map<std::string, double>>(replications));

  auto run_one = [&](size_t p, uint64_t i) {
    desp::MetricSink sink;
    models[p](seeds[i], sink);
    observations[p][i] = sink.values();
  };

  VOODB_CHECK_MSG(num_points <= SIZE_MAX / replications,
                  "grid work-item count overflows");
  const uint64_t total = num_points * replications;
  const size_t hw =
      options.threads == 0 ? ThreadPool::HardwareThreads() : options.threads;
  const size_t threads = static_cast<size_t>(
      std::min<uint64_t>(hw, total));

  if (threads <= 1) {
    for (uint64_t t = 0; t < total; ++t) {
      run_one(t / replications, t % replications);
    }
  } else {
    // Self-scheduling workers, one task each: a worker claims the next
    // work item until the range is exhausted.  Results land in
    // index-addressed slots, so the claim order is irrelevant to the
    // reduction.
    std::atomic<uint64_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr first_error;
    {
      ThreadPool pool({threads});
      for (size_t w = 0; w < threads; ++w) {
        pool.Submit([&] {
          for (;;) {
            const uint64_t t = next.fetch_add(1, std::memory_order_relaxed);
            if (t >= total || failed.load(std::memory_order_relaxed)) return;
            try {
              run_one(t / replications, t % replications);
            } catch (...) {
              failed.store(true, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lock(error_mu);
              if (!first_error) first_error = std::current_exception();
              return;
            }
          }
        });
      }
      pool.Wait();
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  std::vector<desp::ReplicationResult> results;
  results.reserve(num_points);
  for (size_t p = 0; p < num_points; ++p) {
    results.push_back(Reduce(observations[p]));
  }
  return results;
}

desp::ReplicationResult RunToPrecision(const Model& model,
                                       const FarmOptions& options,
                                       const std::string& metric,
                                       double relative_precision,
                                       uint64_t pilot_n, uint64_t max_n,
                                       double level) {
  VOODB_CHECK_MSG(relative_precision > 0.0,
                  "relative precision must be positive");
  VOODB_CHECK_MSG(pilot_n >= 2 && pilot_n <= max_n,
                  "need 2 <= pilot_n <= max_n");
  auto run = [&](uint64_t n) {
    return RunGrid(1, [&](size_t) { return model; }, n, options).front();
  };
  const desp::ConfidenceInterval ci = run(pilot_n).Interval(metric, level);
  const double target = relative_precision * std::abs(ci.mean);
  uint64_t n = pilot_n;
  if (target > 0.0 && ci.half_width > target) {
    n = pilot_n + desp::AdditionalReplications(pilot_n, ci.half_width, target);
  }
  return run(std::min(n, max_n));
}

}  // namespace voodb::exp
