/// \file parameters.hpp
/// \brief The OCB parameter block (the benchmark's "thorough set of
/// parameters", VOODB paper §3.3).
#pragma once

#include <cstdint>

namespace voodb::ocb {

/// Distribution used to pick reference targets and roots.
enum class Distribution {
  kUniform,  ///< uniform over the candidate range
  kZipf,     ///< Zipf-skewed (hot objects / hot classes)
  kNormal,   ///< gaussian around the source (locality window)
};

const char* ToString(Distribution d);

/// All tunables of the OCB object base and workload.
///
/// Database-structure parameters mirror the OCB publication (NC, MAXNREF,
/// BASESIZE, NO, NREFT, locality windows); workload parameters mirror
/// Table 5 of the VOODB paper (COLDN, PSET/SETDEPTH, PSIMPLE/SIMDEPTH,
/// PHIER/HIEDEPTH, PSTOCH/STODEPTH; HOTN is a cell's transaction count).
/// Defaults are the paper's defaults wherever the paper states them.
struct OcbParameters {
  // --- Database structure -------------------------------------------------
  /// NC: number of classes in the schema.
  uint32_t num_classes = 50;
  /// MAXNREF: maximum number of reference attributes per class.  The
  /// actual count for a class is drawn uniformly in [1, MAXNREF].
  uint32_t max_refs_per_class = 10;
  /// BASESIZE: base instance size in bytes.  The instance size of class c
  /// is BASESIZE * (1 + c) when `class_size_growth` is set (so schemas
  /// with more classes hold larger objects).  The default puts the
  /// reference base (NC=50, NO=20000) at 18.4 MiB in Texas and 25.0 MiB
  /// in O2, about 12 % below the ~21 MB and ~28 MB that §4.3 reports;
  /// README.md "Design notes" gives the arithmetic.
  uint32_t base_instance_size = 32;
  /// Whether instance size grows linearly with the class index.
  bool class_size_growth = true;
  /// NO: number of object instances in the base.
  uint64_t num_objects = 20000;
  /// NREFT: number of reference types (inheritance, aggregation, ...).
  uint32_t num_reference_types = 4;
  /// CLOCREF: class locality window — a class's reference attributes
  /// point to classes within this distance of it (wraps around).
  uint32_t class_locality = 50;
  /// OLOCREF: object locality window — an object's references point to
  /// objects within this distance of it (wraps around).
  uint64_t object_locality = 100;
  /// Distribution of reference targets inside the locality window.
  Distribution reference_distribution = Distribution::kUniform;
  /// Zipf skew used when a distribution above is kZipf.
  double zipf_skew = 0.8;

  // --- Workload ------------------------------------------------------------
  /// COLDN: transactions executed, unmeasured, before every cell's first
  /// reported phase.  HOTN, the measured count, is the cell's
  /// `transactions` (`voodb run --transactions`).
  uint32_t cold_transactions = 0;
  /// PSET / SETDEPTH: set-oriented access probability and depth.
  double p_set = 0.25;
  uint32_t set_depth = 3;
  /// PSIMPLE / SIMDEPTH: simple traversal probability and depth.
  double p_simple = 0.25;
  uint32_t simple_depth = 3;
  /// PHIER / HIEDEPTH: hierarchy traversal probability and depth.
  double p_hierarchy = 0.25;
  uint32_t hierarchy_depth = 5;
  /// PSTOCH / STODEPTH: stochastic traversal probability and depth.
  double p_stochastic = 0.25;
  uint32_t stochastic_depth = 50;
  /// PRAND / RANDOMN: random-access probability and accesses per
  /// transaction (independent uniform draws over the whole base).
  double p_random_access = 0.0;
  uint32_t random_access_count = 25;
  /// PSCAN / SCANMAX: sequential class-scan probability and instance cap
  /// (0 = scan every instance of the chosen class).
  double p_scan = 0.0;
  uint64_t scan_max_instances = 0;
  /// Probability that an individual object access is an update.
  double p_update = 0.0;
  /// Distribution of transaction root objects.
  Distribution root_distribution = Distribution::kUniform;
  /// Roots are drawn from a fixed *hot set* of `root_region` objects
  /// spread evenly across the base (0 = roots may be any object).  A
  /// small hot set concentrates the workload on a few neighbourhoods and
  /// makes the same traversals repeat — the "favorable conditions" of the
  /// paper's DSTC experiment (§4.4).
  uint64_t root_region = 0;
  /// Mean think time between a user's transactions (ms, exponential).
  double think_time_ms = 0.0;
  /// Whether hierarchy traversals visit each object at most once
  /// (set semantics) or once per path (bag semantics).
  bool traversal_visits_once = true;

  // --- YCSB-style zipfian mix (workload_source = ycsb_zipf) ----------------
  /// Zipf exponent of the per-access key draw over the whole base
  /// (0 = uniform; YCSB's classic hotspot regime is ~0.99).  Rank 0 —
  /// the lowest OIDs — is hottest.
  double ycsb_skew = 0.99;
  /// Probability an individual access is a read; the rest write.
  double ycsb_read_pct = 0.95;
  /// Independent object accesses per YCSB transaction.
  uint32_t ycsb_ops_per_txn = 8;

  /// Base RNG seed for object-base generation (workload streams are
  /// derived per replication by the experiment runner).
  uint64_t seed = 1999;

  /// Throws voodb::util::Error when a value is out of range (negative
  /// probabilities, probabilities not summing to 1, zero sizes, ...).
  void Validate() const;
};

}  // namespace voodb::ocb
