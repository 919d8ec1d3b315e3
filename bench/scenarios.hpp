/// \file scenarios.hpp
/// \brief Registration of every paper figure/table/ablation as a named
/// scenario in the `exp::ScenarioRegistry`.
///
/// The catalog covers the paper's whole evaluation section: the O2 and
/// Texas validation figures (fig06..fig11), the DSTC clustering tables
/// (table6..table8), and the Table 3 / §5 ablations.  Each scenario's
/// base `ExperimentConfig` carries the paper's parameter values, `--set`
/// steers every registered parameter, and every model scenario but
/// `ablation_vm_model` and `shard_scale` reports its table from declared
/// cells (`exp::RunCells`), so the tools reach every number it prints.
#pragma once

namespace voodb::bench {

/// Registers the full catalog (idempotent; cheap after the first call).
void RegisterBenchScenarios();

}  // namespace voodb::bench
