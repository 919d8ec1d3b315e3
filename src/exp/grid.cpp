#include "exp/grid.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <string>

#include "exp/executor.hpp"
#include "util/check.hpp"

namespace voodb::exp {

std::vector<desp::ReplicationResult> RunGrid(
    size_t num_points,
    const std::function<ReplicationFarm::Model(size_t point)>& make_model,
    uint64_t replications, const FarmOptions& options) {
  VOODB_CHECK_MSG(static_cast<bool>(make_model), "model factory required");
  VOODB_CHECK_MSG(replications >= 1, "need at least one replication");

  // Instantiate models serially in point order (factories may share state).
  std::vector<ReplicationFarm::Model> models;
  models.reserve(num_points);
  for (size_t p = 0; p < num_points; ++p) {
    models.push_back(make_model(p));
    VOODB_CHECK_MSG(static_cast<bool>(models.back()),
                    "factory returned a null model for point " << p);
  }

  // Every point reuses the same seed chain: common random numbers across
  // cells, and each cell matches a standalone farm run of its model.
  const std::vector<uint64_t> seeds =
      ReplicationFarm::DeriveSeeds(options.base_seed, replications);
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
    std::atomic<uint64_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr first_error;
    {
      ThreadPool pool({threads, /*queue_capacity=*/threads});
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
    results.push_back(ReplicationFarm::Reduce(observations[p]));
  }
  return results;
}

}  // namespace voodb::exp
