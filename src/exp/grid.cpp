#include "exp/grid.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>

#include "exp/executor.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "voodb/param_registry.hpp"

namespace voodb::exp {

double GridPoint::Get(const std::string& name) const {
  for (const auto& [axis, value] : coords) {
    if (axis == name) return value;
  }
  VOODB_CHECK_MSG(false, "grid point has no axis '" << name << "'");
  return 0.0;
}

bool GridPoint::Has(const std::string& name) const {
  for (const auto& [axis, value] : coords) {
    if (axis == name) return true;
  }
  return false;
}

std::string GridPoint::Label() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [axis, value] : coords) {
    if (!first) os << " ";
    first = false;
    // Integral values print without a trailing ".00".
    if (value == std::floor(value) && std::abs(value) < 1e15) {
      os << axis << "=" << static_cast<int64_t>(value);
    } else {
      os << axis << "=" << util::FormatDouble(value, 4);
    }
  }
  return os.str();
}

SweepGrid& SweepGrid::Axis(std::string name, std::vector<double> values) {
  VOODB_CHECK_MSG(!name.empty(), "axis name must be non-empty");
  VOODB_CHECK_MSG(!values.empty(),
                  "axis '" << name << "' needs at least one value");
  for (const auto& [existing, vs] : axes_) {
    VOODB_CHECK_MSG(existing != name, "duplicate axis '" << name << "'");
  }
  axes_.emplace_back(std::move(name), std::move(values));
  return *this;
}

size_t SweepGrid::NumPoints() const {
  size_t product = 1;
  for (const auto& [name, values] : axes_) {
    VOODB_CHECK_MSG(product <= SIZE_MAX / values.size(),
                    "grid is too large (point count overflows)");
    product *= values.size();
  }
  return product;
}

GridPoint SweepGrid::Point(size_t index) const {
  VOODB_CHECK_MSG(index < NumPoints(), "grid point index out of range");
  GridPoint point;
  point.index = index;
  point.coords.reserve(axes_.size());
  // Row-major: the last axis varies fastest.
  size_t stride = NumPoints();
  size_t rest = index;
  for (const auto& [name, values] : axes_) {
    stride /= values.size();
    point.coords.emplace_back(name, values[rest / stride]);
    rest %= stride;
  }
  return point;
}

std::vector<GridPoint> SweepGrid::Points() const {
  std::vector<GridPoint> points;
  const size_t n = NumPoints();
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) points.push_back(Point(i));
  return points;
}

std::vector<GridCell> RunGrid(const SweepGrid& grid,
                              const PointModelFactory& make_model,
                              uint64_t replications,
                              const FarmOptions& options) {
  VOODB_CHECK_MSG(static_cast<bool>(make_model), "model factory required");
  VOODB_CHECK_MSG(replications >= 1, "need at least one replication");
  const std::vector<GridPoint> points = grid.Points();
  const size_t num_points = points.size();

  // Instantiate models serially in point order (factories may share state).
  std::vector<ReplicationFarm::Model> models;
  models.reserve(num_points);
  for (const GridPoint& point : points) {
    models.push_back(make_model(point));
    VOODB_CHECK_MSG(static_cast<bool>(models.back()),
                    "factory returned a null model for " << point.Label());
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

  std::vector<GridCell> cells;
  cells.reserve(num_points);
  for (size_t p = 0; p < num_points; ++p) {
    cells.push_back({points[p], ReplicationFarm::Reduce(observations[p])});
  }
  return cells;
}

bool IsWorkloadAxis(const std::string& axis) {
  return core::ParamRegistry::Instance().At(axis).domain ==
         core::ParamDomain::kWorkload;
}

void ApplyAxis(core::ExperimentConfig& config, const std::string& axis,
               double value) {
  // Thin wrapper over the parameter registry: every registered parameter
  // — numeric, boolean or enum — is a sweepable axis, with range and
  // integrality checks (silent truncation would skew a sweep) and errors
  // that name the parameter.
  core::ParamRegistry::Instance().Set(
      core::ParamTarget{&config.system, &config.workload}, axis, value);
}

std::vector<std::shared_ptr<const ocb::ObjectBase>> GenerateBases(
    const std::vector<ocb::OcbParameters>& workloads) {
  const core::ParamRegistry& registry = core::ParamRegistry::Instance();
  // Equal workloads generate equal bases: every workload parameter (the
  // registry covers every OcbParameters field, all numeric) matches.
  auto same = [&registry](const ocb::OcbParameters& a,
                          const ocb::OcbParameters& b) {
    for (const core::ParamDescriptor& d : registry.descriptors()) {
      if (d.domain == core::ParamDomain::kWorkload &&
          d.getter(core::ConstParamTarget{nullptr, &a}) !=
              d.getter(core::ConstParamTarget{nullptr, &b})) {
        return false;
      }
    }
    return true;
  };
  std::vector<std::shared_ptr<const ocb::ObjectBase>> bases;
  bases.reserve(workloads.size());
  for (size_t i = 0; i < workloads.size(); ++i) {
    size_t j = 0;
    while (j < i && !same(workloads[j], workloads[i])) ++j;
    bases.push_back(j < i ? bases[j]
                          : std::make_shared<const ocb::ObjectBase>(
                                ocb::ObjectBase::Generate(workloads[i])));
  }
  return bases;
}

std::vector<GridCell> RunExperimentGrid(
    const core::ExperimentConfig& base_config, const SweepGrid& grid,
    size_t threads) {
  std::vector<core::ExperimentConfig> configs;
  std::vector<ocb::OcbParameters> workloads;
  for (const GridPoint& point : grid.Points()) {
    core::ExperimentConfig config = base_config;
    for (const auto& [axis, value] : point.coords) {
      ApplyAxis(config, axis, value);
    }
    workloads.push_back(config.workload);
    configs.push_back(std::move(config));
  }
  const auto bases = GenerateBases(workloads);

  FarmOptions options;
  options.threads = threads;
  options.base_seed = base_config.base_seed;
  return RunGrid(
      grid,
      [&](const GridPoint& point) {
        return core::Experiment::MakeModel(configs[point.index],
                                           bases[point.index].get());
      },
      base_config.replications, options);
}

}  // namespace voodb::exp
