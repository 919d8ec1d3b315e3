/// \file test_param_registry.cpp
/// \brief Tests for the parameter registry: completeness over every
/// config field, set/get/ToString round-trips, range-violation
/// diagnostics, enum spellings, and the registry-backed sweep axes.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/check.hpp"
#include "voodb/experiment.hpp"
#include "voodb/param_registry.hpp"

namespace voodb::core {
namespace {

const ParamRegistry& Registry() { return ParamRegistry::Instance(); }

/// Expects `fn` to throw util::Error whose message mentions `needle`.
template <typename Fn>
void ExpectErrorMentions(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected util::Error mentioning '" << needle << "'";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what();
  }
}

// Field counts of the three parameter structs.  When one of these fails,
// a field was added or removed: update the descriptor table in
// param_registry.cpp (its sizeof static_asserts fire first on x86-64
// Linux) and then these counts.
constexpr size_t kSystemFields = 42;
constexpr size_t kDiskFields = 3;
constexpr size_t kWorkloadFields = 32;

TEST(ParamRegistry, EveryFieldHasExactlyOneDescriptor) {
  size_t system = 0, disk = 0, workload = 0;
  std::set<std::string> names;
  for (const ParamDescriptor& d : Registry().descriptors()) {
    EXPECT_TRUE(names.insert(d.name).second)
        << "duplicate descriptor '" << d.name << "'";
    switch (d.domain) {
      case ParamDomain::kSystem:
        ++system;
        break;
      case ParamDomain::kDisk:
        ++disk;
        break;
      case ParamDomain::kWorkload:
        ++workload;
        break;
    }
  }
  EXPECT_EQ(system, kSystemFields);
  EXPECT_EQ(disk, kDiskFields);
  EXPECT_EQ(workload, kWorkloadFields);
  EXPECT_EQ(Registry().descriptors().size(),
            kSystemFields + kDiskFields + kWorkloadFields);
}

TEST(ParamRegistry, DefaultsMatchDefaultConstructedConfigs) {
  VoodbConfig system;
  ocb::OcbParameters workload;
  const ConstParamTarget target{&system, &workload};
  for (const ParamDescriptor& d : Registry().descriptors()) {
    if (d.type == ParamType::kString) {
      EXPECT_EQ(d.text_getter(target), d.default_text) << d.name;
      continue;
    }
    EXPECT_EQ(d.getter(target), d.default_value) << d.name;
    EXPECT_TRUE(Registry().IsDefault(target, d)) << d.name;
  }
}

/// A valid value of `d` that differs from its default (when possible).
double PerturbedValue(const ParamDescriptor& d) {
  switch (d.type) {
    case ParamType::kBool:
      return d.default_value == 0.0 ? 1.0 : 0.0;
    case ParamType::kEnum: {
      const auto n = static_cast<double>(d.enum_values.size());
      return n > 1 ? (d.default_value + 1.0 >= n ? 0.0 : d.default_value + 1.0)
                   : d.default_value;
    }
    case ParamType::kInt:
      return d.default_value + 1.0 <= d.max_value ? d.default_value + 1.0
                                                  : d.min_value;
    case ParamType::kReal: {
      // min + 0.25 is exactly representable for the registry's bounds
      // (0 or 1), so the ToString -> Parse round-trip is bit-exact.
      const double candidate =
          d.min_value > -1e299 ? d.min_value + 0.25 : -2.5;
      const bool in_range = d.max_exclusive ? candidate < d.max_value
                                            : candidate <= d.max_value;
      return in_range ? candidate : d.min_value;
    }
    case ParamType::kString:
      break;  // string parameters have no numeric value (skipped above)
  }
  return d.default_value;
}

TEST(ParamRegistry, SetGetFormatParseRoundTripOverAllDescriptors) {
  VoodbConfig system;
  ocb::OcbParameters workload;
  const ParamTarget target{&system, &workload};
  const ConstParamTarget const_target{&system, &workload};
  for (const ParamDescriptor& d : Registry().descriptors()) {
    if (d.type == ParamType::kString) continue;  // covered below
    const double value = PerturbedValue(d);
    Registry().Set(target, d.name, value);
    EXPECT_EQ(Registry().Get(const_target, d.name), value) << d.name;
    // ToString -> Parse round-trip: the rendered form parses back to the
    // same numeric value (canonical enum name, true/false, number).
    const std::string text = Registry().FormatValue(d.name, value);
    EXPECT_EQ(Registry().ParseValue(d.name, text), value)
        << d.name << " via '" << text << "'";
    // And string-based Set accepts the rendered form too.
    Registry().Set(target, d.name, text);
    EXPECT_EQ(Registry().Get(const_target, d.name), value) << d.name;
  }
}

TEST(ParamRegistry, StringParametersTravelThroughTextAccessors) {
  VoodbConfig system;
  const ParamTarget target{&system, nullptr};
  const ConstParamTarget const_target{&system, nullptr};
  // The string-based Set writes the raw text; GetText reads it back.
  Registry().Set(target, "trace_path", std::string("runs/ocb.vtrc"));
  EXPECT_EQ(system.trace_path, "runs/ocb.vtrc");
  EXPECT_EQ(Registry().GetText(const_target, "trace_path"), "runs/ocb.vtrc");
  EXPECT_FALSE(Registry().IsDefault(const_target,
                                    Registry().At("trace_path")));
  // Numeric access paths reject string parameters.
  ExpectErrorMentions([&] { Registry().Set(target, "trace_path", 1.0); },
                      "trace_path");
  ExpectErrorMentions([&] { Registry().Get(const_target, "trace_path"); },
                      "trace_path");
  ExpectErrorMentions([&] { Registry().FormatValue("trace_path", 0.0); },
                      "trace_path");
  ExpectErrorMentions([&] { Registry().ParseValue("trace_path", "x"); },
                      "trace_path");
  // The numeric-typed trace knobs behave like every other parameter.
  Registry().Set(target, "trace_record", std::string("true"));
  EXPECT_TRUE(system.trace_record);
  Registry().Set(target, "workload_source", std::string("trace"));
  EXPECT_EQ(system.workload_source, WorkloadSourceKind::kTrace);
  // Cross-field validation: tracing without a path is rejected.
  system = VoodbConfig{};
  system.trace_record = true;
  ExpectErrorMentions([&] { system.Validate(); }, "trace_path");
  system = VoodbConfig{};
  system.workload_source = WorkloadSourceKind::kTrace;
  ExpectErrorMentions([&] { system.Validate(); }, "trace_path");
  // Recording while replaying shares the one trace_path field: the
  // writer would truncate the trace being read.
  system = VoodbConfig{};
  system.trace_record = true;
  system.workload_source = WorkloadSourceKind::kTrace;
  system.trace_path = "run.vtrc";
  ExpectErrorMentions([&] { system.Validate(); }, "trace_record");
}

TEST(ParamRegistry, EnumOrdinalsMatchEnumerators) {
  VoodbConfig system;
  ocb::OcbParameters workload;
  const ParamTarget target{&system, &workload};
  Registry().Set(target, "system_class", std::string("db_server"));
  EXPECT_EQ(system.system_class, SystemClass::kDbServer);
  Registry().Set(target, "system_class", std::string("PAGE_SERVER"));
  EXPECT_EQ(system.system_class, SystemClass::kPageServer);
  Registry().Set(target, "page_replacement", std::string("gclock"));
  EXPECT_EQ(system.page_replacement, storage::ReplacementPolicy::kGclock);
  Registry().Set(target, "initial_placement", std::string("reference_dfs"));
  EXPECT_EQ(system.initial_placement, storage::PlacementPolicy::kReferenceDfs);
  Registry().Set(target, "prefetch", std::string("sequential"));
  EXPECT_EQ(system.prefetch, PrefetchPolicy::kSequential);
  Registry().Set(target, "reference_distribution", std::string("zipf"));
  EXPECT_EQ(workload.reference_distribution, ocb::Distribution::kZipf);
}

TEST(ParamRegistry, CcProtocolEnumRoundTripsAndSuggestsNearestSpelling) {
  VoodbConfig system;
  ocb::OcbParameters workload;
  const ParamTarget target{&system, &workload};
  for (const auto& [spelling, kind] :
       std::initializer_list<std::pair<const char*, cc::ProtocolKind>>{
           {"no_wait", cc::ProtocolKind::kNoWait},
           {"nowait", cc::ProtocolKind::kNoWait},
           {"wait_die", cc::ProtocolKind::kWaitDie},
           {"waitdie", cc::ProtocolKind::kWaitDie},
           {"deadlock_detect", cc::ProtocolKind::kDeadlockDetect},
           {"detect", cc::ProtocolKind::kDeadlockDetect},
           {"mvcc", cc::ProtocolKind::kMvcc},
           {"occ", cc::ProtocolKind::kOcc}}) {
    Registry().Set(target, "cc_protocol", std::string(spelling));
    EXPECT_EQ(system.cc_protocol, kind) << spelling;
  }
  // A misspelled enum value is rejected with a did-you-mean suggestion
  // computed over every accepted spelling.
  ExpectErrorMentions(
      [&] { Registry().Set(target, "cc_protocol", std::string("walt_die")); },
      "did you mean 'wait_die'?");
  ExpectErrorMentions(
      [&] { Registry().Set(target, "cc_protocol", std::string("mvc")); },
      "did you mean 'mvcc'?");
}

TEST(ParamRegistry, RangeViolationsNameTheParameter) {
  VoodbConfig system;
  ocb::OcbParameters workload;
  const ParamTarget target{&system, &workload};
  ExpectErrorMentions([&] { Registry().Set(target, "page_size", 100.0); },
                      "page_size");
  ExpectErrorMentions([&] { Registry().Set(target, "buffer_pages", 0.0); },
                      "buffer_pages");
  ExpectErrorMentions([&] { Registry().Set(target, "buffer_pages", 0.5); },
                      "buffer_pages");
  ExpectErrorMentions(
      [&] { Registry().Set(target, "disk_fault_prob", 1.0); },
      "disk_fault_prob");
  ExpectErrorMentions([&] { Registry().Set(target, "p_update", 1.5); },
                      "p_update");
  ExpectErrorMentions([&] { Registry().Set(target, "system_class", 4.0); },
                      "system_class");
  // Values exceeding the field width are rejected, never wrapped
  // (page_size is uint32_t; 5e9 would truncate to ~7e8 if cast).
  ExpectErrorMentions([&] { Registry().Set(target, "page_size", 5e9); },
                      "page_size");
  EXPECT_EQ(system.page_size, VoodbConfig{}.page_size);
  ExpectErrorMentions([&] { Registry().Set(target, "num_users", 1e12); },
                      "num_users");
  // 64-bit fields cap at 2^53 (the last exactly-representable integer).
  ExpectErrorMentions([&] { Registry().Set(target, "num_objects", 1e18); },
                      "num_objects");
}

TEST(ParamRegistry, PrefetchDepthZeroLegalOnlyWhileDisabled) {
  VoodbConfig cfg;
  cfg.prefetch_depth = 0;  // prefetch defaults to none
  cfg.Validate();
  cfg.prefetch = PrefetchPolicy::kSequential;
  ExpectErrorMentions([&] { cfg.Validate(); }, "prefetch_depth");
}

TEST(ParamRegistry, ValidateNamesTheOffendingParameter) {
  VoodbConfig cfg;
  cfg.page_size = 100;
  ExpectErrorMentions([&] { cfg.Validate(); }, "page_size");
  cfg = VoodbConfig{};
  cfg.storage_overhead = 0.5;
  ExpectErrorMentions([&] { cfg.Validate(); }, "storage_overhead");
  cfg = VoodbConfig{};
  cfg.disk.latency_ms = -1.0;
  ExpectErrorMentions([&] { cfg.Validate(); }, "disk_latency_ms");
  ocb::OcbParameters wl;
  wl.set_depth = 0;
  ExpectErrorMentions([&] { wl.Validate(); }, "set_depth");
}

TEST(ParamRegistry, UnknownNameSuggestsNearest) {
  ExpectErrorMentions([] { Registry().At("buffer_page"); }, "buffer_pages");
  ExpectErrorMentions([] { Registry().At("num_object"); }, "num_objects");
}

TEST(ParamRegistry, MissingDomainTargetIsReported) {
  VoodbConfig system;
  const ParamTarget system_only{&system, nullptr};
  ExpectErrorMentions(
      [&] { Registry().Set(system_only, "num_objects", 100.0); },
      "num_objects");
}

TEST(ApplyAxisRegistry, EveryParameterIsASweepAxis) {
  // A cell sweeps any parameter, boolean and enum knobs included, by
  // setting its `--set` spelling (or its numeric value) in the registry.
  ExperimentConfig config;
  const ParamTarget target{&config.system, &config.workload};
  Registry().Set(target, "use_lock_manager", std::string("true"));
  EXPECT_TRUE(config.system.use_lock_manager);
  Registry().Set(target, "flush_on_commit", 1.0);
  EXPECT_TRUE(config.system.flush_on_commit);
  Registry().Set(target, "use_virtual_memory", std::string("1"));
  EXPECT_TRUE(config.system.use_virtual_memory);
  Registry().Set(target, "system_class", std::string("centralized"));
  EXPECT_EQ(config.system.system_class, SystemClass::kCentralized);
  Registry().Set(target, "page_replacement", 6.0);
  EXPECT_EQ(config.system.page_replacement,
            storage::ReplacementPolicy::kGclock);
  Registry().Set(target, "disk_search_ms", std::string("6.3"));
  EXPECT_DOUBLE_EQ(config.system.disk.search_ms, 6.3);
  Registry().Set(target, "p_update", 0.25);
  EXPECT_DOUBLE_EQ(config.workload.p_update, 0.25);
  // The domain decides whether a cell needs an object base of its own.
  EXPECT_EQ(Registry().At("p_update").domain, ParamDomain::kWorkload);
  EXPECT_EQ(Registry().At("seed").domain, ParamDomain::kWorkload);
  EXPECT_EQ(Registry().At("disk_search_ms").domain, ParamDomain::kDisk);
  EXPECT_EQ(Registry().At("use_lock_manager").domain, ParamDomain::kSystem);
  ExpectErrorMentions([] { Registry().At("no_such_axis"); }, "no_such_axis");
}

}  // namespace
}  // namespace voodb::core
