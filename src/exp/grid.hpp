/// \file grid.hpp
/// \brief Declarative cartesian parameter-sweep grids.
///
/// Darmont et al.'s benchmark methodology runs every figure/table as a
/// parameterized scenario grid (number of instances, memory budget,
/// multiprogramming level, ...).  `SweepGrid` names the axes once and
/// enumerates the cartesian product in a fixed row-major order (first axis
/// slowest), so a grid cell has a stable index and label across runs.
///
/// `RunGrid` executes (point × replication) work items on one shared
/// thread pool with the same determinism contract as the farm; every cell
/// uses the *same* replication-seed chain (common random numbers), so a
/// cell is bit-identical to a standalone `ReplicationFarm::Run` of that
/// point's model with the same base seed — and cross-point comparisons
/// have lower variance.
///
/// `RunExperimentGrid` binds axes by name to `core::VoodbConfig` /
/// `ocb::OcbParameters` fields (see `ApplyAxis`) and farms a full VOODB
/// experiment per cell.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "desp/replication.hpp"
#include "exp/farm.hpp"
#include "voodb/experiment.hpp"

namespace voodb::exp {

/// One cell of the cartesian product.
struct GridPoint {
  size_t index = 0;  ///< row-major rank in the grid
  /// (axis name, value) in axis-declaration order.
  std::vector<std::pair<std::string, double>> coords;

  /// Value of axis `name`; throws on unknown axis.
  double Get(const std::string& name) const;
  bool Has(const std::string& name) const;
  /// "axis1=v1 axis2=v2" — stable, suitable for table rows and file names.
  std::string Label() const;
};

/// A named-axis cartesian sweep specification.
class SweepGrid {
 public:
  /// Declares an axis; values must be non-empty, names unique.
  SweepGrid& Axis(std::string name, std::vector<double> values);

  size_t NumAxes() const { return axes_.size(); }
  /// Product of axis sizes; 1 for an axis-less grid (a single empty point).
  size_t NumPoints() const;

  /// The `index`-th point in row-major order (first axis slowest).
  GridPoint Point(size_t index) const;
  std::vector<GridPoint> Points() const;

  const std::vector<std::pair<std::string, std::vector<double>>>& axes()
      const {
    return axes_;
  }

 private:
  std::vector<std::pair<std::string, std::vector<double>>> axes_;
};

/// One evaluated grid cell.
struct GridCell {
  GridPoint point;
  desp::ReplicationResult result;
};

/// Builds the replication model for one grid point.
using PointModelFactory =
    std::function<ReplicationFarm::Model(const GridPoint&)>;

/// Runs `replications` of every grid point concurrently on one pool.
/// Work items are (point, replication) pairs, so the pool stays busy even
/// when points have unequal cost.  Results are reduced per point in
/// replication order (see farm.hpp for the determinism contract).
std::vector<GridCell> RunGrid(const SweepGrid& grid,
                              const PointModelFactory& make_model,
                              uint64_t replications,
                              const FarmOptions& options);

/// Applies a named axis value to an experiment config.  Axes resolve
/// through `core::ParamRegistry`, so *every* registered parameter of
/// `VoodbConfig` (including its disk timings) and `OcbParameters` is a
/// valid axis — numeric fields take their value directly, booleans take
/// 0/1, and enums (e.g. "system_class", "page_replacement",
/// "cc_protocol") take their enumerator ordinal.  Values are range- and
/// integrality-checked; errors name the parameter and suggest the
/// nearest name.  Run `voodb params` for the full axis list.
void ApplyAxis(core::ExperimentConfig& config, const std::string& axis,
               double value);

/// True when `axis` is a workload (OCB) parameter, i.e. the object base
/// must be regenerated for cells along it.  Throws on unknown axes.
bool IsWorkloadAxis(const std::string& axis);

/// One object base per entry of `workloads`, generated serially in order;
/// entries with equal workload parameters share one base.
std::vector<std::shared_ptr<const ocb::ObjectBase>> GenerateBases(
    const std::vector<ocb::OcbParameters>& workloads);

/// Farms a full VOODB experiment per grid cell.  `base_config` provides
/// every parameter not named by an axis, plus `replications` and
/// `base_seed`.  Cells share an object base unless a workload axis sets
/// them apart (`GenerateBases`).
std::vector<GridCell> RunExperimentGrid(
    const core::ExperimentConfig& base_config, const SweepGrid& grid,
    size_t threads = 0);

}  // namespace voodb::exp
