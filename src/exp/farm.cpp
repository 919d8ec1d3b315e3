#include "exp/farm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <utility>

#include "desp/random.hpp"
#include "desp/stats.hpp"
#include "exp/executor.hpp"
#include "util/check.hpp"

namespace voodb::exp {

ReplicationFarm::ReplicationFarm(Model model, FarmOptions options)
    : model_(std::move(model)), options_(options) {
  VOODB_CHECK_MSG(static_cast<bool>(model_), "model must be callable");
}

std::vector<uint64_t> ReplicationFarm::DeriveSeeds(uint64_t base_seed,
                                                   uint64_t n) {
  std::vector<uint64_t> seeds;
  seeds.reserve(n);
  uint64_t sm = base_seed;
  for (uint64_t i = 0; i < n; ++i) seeds.push_back(desp::SplitMix64(sm));
  return seeds;
}

desp::ReplicationResult ReplicationFarm::Reduce(
    const std::vector<std::map<std::string, double>>& per_replication) {
  desp::ReplicationResult result;
  for (const auto& observations : per_replication) {
    for (const auto& [name, value] : observations) {
      desp::Tally single;
      single.Add(value);
      result.tallies_[name].Merge(single);
    }
    ++result.replications_;
  }
  return result;
}

desp::ReplicationResult ReplicationFarm::Run(uint64_t n) const {
  VOODB_CHECK_MSG(n >= 1, "need at least one replication");
  const std::vector<uint64_t> seeds = DeriveSeeds(options_.base_seed, n);
  std::vector<std::map<std::string, double>> observations(n);

  const size_t hw =
      options_.threads == 0 ? ThreadPool::HardwareThreads() : options_.threads;
  const size_t threads = std::min<size_t>(hw, n);

  auto run_one = [&](uint64_t i) {
    desp::MetricSink sink;
    model_(seeds[i], sink);
    observations[i] = sink.values();
  };

  if (threads <= 1) {
    for (uint64_t i = 0; i < n; ++i) run_one(i);
    return Reduce(observations);
  }

  // Self-scheduling workers: each claims the next replication index until
  // the range is exhausted.  Results land in index-addressed slots, so the
  // claim order is irrelevant to the reduction.
  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  {
    ThreadPool pool({threads, /*queue_capacity=*/threads});
    for (size_t w = 0; w < threads; ++w) {
      pool.Submit([&] {
        for (;;) {
          const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n || failed.load(std::memory_order_relaxed)) return;
          try {
            run_one(i);
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
  return Reduce(observations);
}

desp::ReplicationResult ReplicationFarm::RunToPrecision(
    const std::string& metric, double relative_precision, uint64_t pilot_n,
    uint64_t max_n, double level) const {
  VOODB_CHECK_MSG(relative_precision > 0.0,
                  "relative precision must be positive");
  VOODB_CHECK_MSG(pilot_n >= 2 && pilot_n <= max_n,
                  "need 2 <= pilot_n <= max_n");
  const desp::ReplicationResult pilot = Run(pilot_n);
  const desp::ConfidenceInterval ci = pilot.Interval(metric, level);
  const double target = relative_precision * std::abs(ci.mean);
  uint64_t n = pilot_n;
  if (target > 0.0 && ci.half_width > target) {
    n = pilot_n + desp::AdditionalReplications(pilot_n, ci.half_width, target);
  }
  n = std::min(n, max_n);
  // Re-run from scratch so the final estimate uses independent seeds in a
  // single pass (the paper likewise reports the full-run statistics).
  return Run(n);
}

}  // namespace voodb::exp
