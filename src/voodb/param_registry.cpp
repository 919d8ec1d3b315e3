#include "voodb/param_registry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace voodb::core {

namespace {

/// "Unbounded" sentinels, far outside any meaningful parameter value.
constexpr double kNoMin = -1e300;
constexpr double kNoMax = 1e300;

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

template <typename T>
constexpr ParamType TypeOf() {
  if constexpr (std::is_same_v<T, bool>) {
    return ParamType::kBool;
  } else if constexpr (std::is_enum_v<T>) {
    return ParamType::kEnum;
  } else if constexpr (std::is_integral_v<T>) {
    return ParamType::kInt;
  } else {
    static_assert(std::is_floating_point_v<T>, "unsupported field type");
    return ParamType::kReal;
  }
}

template <typename T>
double FieldToDouble(const T& value) {
  return static_cast<double>(value);
}

template <typename T>
void FieldFromDouble(T& field, double value) {
  if constexpr (std::is_same_v<T, bool>) {
    field = value != 0.0;
  } else if constexpr (std::is_enum_v<T>) {
    field = static_cast<T>(static_cast<int64_t>(value));
  } else {
    field = static_cast<T>(value);
  }
}

}  // namespace

const char* ToString(ParamType t) {
  switch (t) {
    case ParamType::kBool:
      return "bool";
    case ParamType::kInt:
      return "int";
    case ParamType::kReal:
      return "real";
    case ParamType::kEnum:
      return "enum";
    case ParamType::kString:
      return "string";
  }
  return "?";
}

const char* ToString(ParamDomain d) {
  switch (d) {
    case ParamDomain::kSystem:
      return "system";
    case ParamDomain::kDisk:
      return "disk";
    case ParamDomain::kWorkload:
      return "workload";
  }
  return "?";
}

const std::string& ParamDescriptor::EnumName(size_t ordinal) const {
  VOODB_CHECK_MSG(ordinal < enum_values.size(),
                  "parameter '" << name << "' has no enumerator " << ordinal);
  return enum_values[ordinal].front();
}

std::string ParamDescriptor::RangeText() const {
  std::ostringstream os;
  if (type == ParamType::kString) return "any string";
  if (type == ParamType::kBool) return "true | false";
  if (type == ParamType::kEnum) {
    for (size_t i = 0; i < enum_values.size(); ++i) {
      if (i > 0) os << " | ";
      os << enum_values[i].front();
    }
    return os.str();
  }
  const bool has_min = min_value > kNoMin;
  const bool has_max = max_value < kNoMax && !max_is_type_limit;
  if (has_min && has_max) {
    os << (max_exclusive ? "[" : "[") << min_value << ", " << max_value
       << (max_exclusive ? ")" : "]");
  } else if (has_min) {
    os << ">= " << min_value;
  } else if (has_max) {
    os << (max_exclusive ? "< " : "<= ") << max_value;
  } else {
    os << "any";
  }
  return os.str();
}

void ParamDescriptor::CheckValue(double value) const {
  VOODB_CHECK_MSG(type != ParamType::kString,
                  "parameter '" << name
                                << "' is a string; it has no numeric value");
  VOODB_CHECK_MSG(std::isfinite(value),
                  "parameter '" << name << "' needs a finite value");
  if (integral()) {
    VOODB_CHECK_MSG(value == std::floor(value),
                    "parameter '" << name << "' needs an integer, got "
                                  << value);
  }
  const bool above_min = value >= min_value;
  const bool below_max = max_exclusive ? value < max_value
                                       : value <= max_value;
  if (!(above_min && below_max)) {
    // Name the true numeric bounds even when RangeText elides a
    // type-width maximum.
    std::ostringstream bounds;
    if (type == ParamType::kBool || type == ParamType::kEnum) {
      bounds << RangeText();
    } else if (max_value < kNoMax) {
      bounds << (max_exclusive ? "[" : "[") << min_value << ", " << max_value
             << (max_exclusive ? ")" : "]");
    } else {
      bounds << ">= " << min_value;
    }
    VOODB_CHECK_MSG(false, "parameter '" << name << "' = " << value
                                         << " out of range "
                                         << bounds.str());
  }
}

const ParamRegistry& ParamRegistry::Instance() {
  static const ParamRegistry registry;
  return registry;
}

std::vector<std::string> ParamRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(descriptors_.size());
  for (const ParamDescriptor& d : descriptors_) names.push_back(d.name);
  return names;
}

const ParamDescriptor* ParamRegistry::Find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &descriptors_[it->second];
}

const ParamDescriptor& ParamRegistry::At(const std::string& name) const {
  const ParamDescriptor* d = Find(name);
  if (d == nullptr) {
    // A retired name gets its replacement, not a nearest spelling (that
    // of `hot_transactions` is `cold_transactions`, its opposite).
    static const std::pair<const char*, const char*> kRetired[] = {
        {"hot_transactions", "HOTN is the run's --transactions flag"},
        {"sim_window",
         "the conservative window is the cross-shard delay, one network "
         "page transfer (one disk page service under an infinite network)"},
    };
    for (const auto& [retired, replacement] : kRetired) {
      VOODB_CHECK_MSG(name != retired, "parameter '" << name
                                                     << "' was retired: "
                                                     << replacement);
    }
    const std::string nearest = util::NearestMatch(name, Names());
    VOODB_CHECK_MSG(false, "unknown parameter '"
                               << name << "'"
                               << (nearest.empty()
                                       ? ""
                                       : " (did you mean '" + nearest + "'?)")
                               << "; run `voodb params` for the full list");
  }
  return *d;
}

double ParamRegistry::Get(const ConstParamTarget& target,
                          const std::string& name) const {
  const ParamDescriptor& d = At(name);
  VOODB_CHECK_MSG(d.type != ParamType::kString,
                  "parameter '" << name
                                << "' is a string; use GetText instead");
  return d.getter(target);
}

void ParamRegistry::Set(const ParamTarget& target, const std::string& name,
                        double value) const {
  const ParamDescriptor& d = At(name);
  d.CheckValue(value);
  d.setter(target, value);
}

void ParamRegistry::Set(const ParamTarget& target, const std::string& name,
                        const std::string& value) const {
  const ParamDescriptor& d = At(name);
  if (d.type == ParamType::kString) {
    d.text_setter(target, value);
    return;
  }
  Set(target, name, ParseValue(name, value));
}

std::string ParamRegistry::GetText(const ConstParamTarget& target,
                                   const std::string& name) const {
  const ParamDescriptor& d = At(name);
  if (d.type == ParamType::kString) return d.text_getter(target);
  return FormatValue(name, d.getter(target));
}

std::string ParamRegistry::DefaultText(const ParamDescriptor& d) const {
  if (d.type == ParamType::kString) return d.default_text;
  return FormatValue(d.name, d.default_value);
}

bool ParamRegistry::IsDefault(const ConstParamTarget& target,
                              const ParamDescriptor& d) const {
  if (d.type == ParamType::kString) {
    return d.text_getter(target) == d.default_text;
  }
  return d.getter(target) == d.default_value;
}

double ParamRegistry::ParseValue(const std::string& name,
                                 const std::string& text) const {
  const ParamDescriptor& d = At(name);
  VOODB_CHECK_MSG(d.type != ParamType::kString,
                  "parameter '" << name
                                << "' is a string; it has no numeric value");
  const std::string lower = Lower(text);
  if (d.type == ParamType::kEnum) {
    for (size_t ordinal = 0; ordinal < d.enum_values.size(); ++ordinal) {
      for (const std::string& spelling : d.enum_values[ordinal]) {
        if (Lower(spelling) == lower) return static_cast<double>(ordinal);
      }
    }
  }
  if (d.type == ParamType::kBool) {
    if (lower == "true" || lower == "yes" || lower == "on") return 1.0;
    if (lower == "false" || lower == "no" || lower == "off") return 0.0;
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (!text.empty() && end != nullptr && *end == '\0') return v;
  // A misspelled enum value gets a did-you-mean over every accepted
  // spelling, matching the unknown-parameter diagnostic in At().
  std::string hint;
  if (d.type == ParamType::kEnum) {
    std::vector<std::string> spellings;
    for (const auto& value_spellings : d.enum_values) {
      spellings.insert(spellings.end(), value_spellings.begin(),
                       value_spellings.end());
    }
    const std::string nearest = util::NearestMatch(text, spellings);
    if (!nearest.empty()) hint = " (did you mean '" + nearest + "'?)";
  }
  VOODB_CHECK_MSG(false, "parameter '" << name << "' (" << ToString(d.type)
                                       << ") got '" << text << "'" << hint
                                       << "; valid: " << d.RangeText());
  return 0.0;
}

std::string ParamRegistry::FormatValue(const std::string& name,
                                       double value) const {
  const ParamDescriptor& d = At(name);
  switch (d.type) {
    case ParamType::kBool:
      return value != 0.0 ? "true" : "false";
    case ParamType::kEnum:
      return d.EnumName(static_cast<size_t>(value));
    case ParamType::kInt: {
      std::ostringstream os;
      os << static_cast<int64_t>(value);
      return os.str();
    }
    case ParamType::kReal: {
      std::ostringstream os;
      os << value;
      return os.str();
    }
    case ParamType::kString:
      VOODB_CHECK_MSG(false, "parameter '" << name
                                           << "' is a string; use GetText");
  }
  return "?";
}

void ParamRegistry::ValidateSystem(const VoodbConfig& config) const {
  const ConstParamTarget target{&config, nullptr};
  for (const ParamDescriptor& d : descriptors_) {
    if (d.domain == ParamDomain::kWorkload || d.type == ParamType::kString) {
      continue;  // strings carry no range
    }
    d.CheckValue(d.getter(target));
  }
}

void ParamRegistry::ValidateWorkload(const ocb::OcbParameters& workload) const {
  const ConstParamTarget target{nullptr, &workload};
  for (const ParamDescriptor& d : descriptors_) {
    if (d.domain != ParamDomain::kWorkload || d.type == ParamType::kString) {
      continue;
    }
    d.CheckValue(d.getter(target));
  }
}

namespace {

/// Fluent builder used only during registry construction.
class Builder {
 public:
  explicit Builder(std::vector<ParamDescriptor>* out) : out_(out) {}

  template <typename T>
  Builder& System(const char* name, T VoodbConfig::*field, const char* doc) {
    ParamDescriptor d = Base<T>(name, ParamDomain::kSystem, doc);
    d.getter = [name, field](const ConstParamTarget& t) {
      RequireSystem(t.system, name);
      return FieldToDouble(t.system->*field);
    };
    d.setter = [name, field](const ParamTarget& t, double v) {
      RequireSystem(t.system, name);
      FieldFromDouble(t.system->*field, v);
    };
    d.default_value = FieldToDouble(VoodbConfig{}.*field);
    return Push(std::move(d));
  }

  /// String-typed VoodbConfig field; travels through the text accessors.
  Builder& SystemString(const char* name, std::string VoodbConfig::*field,
                        const char* doc) {
    ParamDescriptor d;
    d.name = name;
    d.type = ParamType::kString;
    d.domain = ParamDomain::kSystem;
    d.doc = doc;
    d.text_getter = [name, field](const ConstParamTarget& t) {
      RequireSystem(t.system, name);
      return t.system->*field;
    };
    d.text_setter = [name, field](const ParamTarget& t,
                                  const std::string& v) {
      RequireSystem(t.system, name);
      t.system->*field = v;
    };
    d.default_text = VoodbConfig{}.*field;
    return Push(std::move(d));
  }

  template <typename T>
  Builder& Disk(const char* name, T storage::DiskParameters::*field,
                const char* doc) {
    ParamDescriptor d = Base<T>(name, ParamDomain::kDisk, doc);
    d.getter = [name, field](const ConstParamTarget& t) {
      RequireSystem(t.system, name);
      return FieldToDouble(t.system->disk.*field);
    };
    d.setter = [name, field](const ParamTarget& t, double v) {
      RequireSystem(t.system, name);
      FieldFromDouble(t.system->disk.*field, v);
    };
    d.default_value = FieldToDouble(storage::DiskParameters{}.*field);
    return Push(std::move(d));
  }

  template <typename T>
  Builder& Workload(const char* name, T ocb::OcbParameters::*field,
                    const char* doc) {
    ParamDescriptor d = Base<T>(name, ParamDomain::kWorkload, doc);
    d.getter = [name, field](const ConstParamTarget& t) {
      RequireWorkload(t.workload, name);
      return FieldToDouble(t.workload->*field);
    };
    d.setter = [name, field](const ParamTarget& t, double v) {
      RequireWorkload(t.workload, name);
      FieldFromDouble(t.workload->*field, v);
    };
    d.default_value = FieldToDouble(ocb::OcbParameters{}.*field);
    return Push(std::move(d));
  }

  /// Raises the lower bound of the most recent descriptor (integral
  /// descriptors keep their field-width upper bound).
  Builder& Range(double min_value) {
    Last().min_value = min_value;
    return *this;
  }

  /// Sets both inclusive bounds.
  Builder& Range(double min_value, double max_value) {
    Last().min_value = min_value;
    Last().max_value = max_value;
    Last().max_is_type_limit = false;
    return *this;
  }

  /// [min, max) — e.g. probabilities that must stay below 1.
  Builder& RangeExclusiveMax(double min_value, double max_value) {
    Last().min_value = min_value;
    Last().max_value = max_value;
    Last().max_exclusive = true;
    Last().max_is_type_limit = false;
    return *this;
  }

  /// Spellings per enumerator; first spelling is canonical.
  Builder& Enum(std::vector<std::vector<std::string>> values) {
    ParamDescriptor& d = Last();
    VOODB_CHECK_MSG(d.type == ParamType::kEnum,
                    "Enum() on non-enum parameter '" << d.name << "'");
    d.min_value = 0.0;
    d.max_value = static_cast<double>(values.size() - 1);
    d.enum_values = std::move(values);
    return *this;
  }

 private:
  template <typename T>
  static void RequireSystem(T* system, const char* name) {
    VOODB_CHECK_MSG(system != nullptr,
                    "parameter '" << name
                                  << "' needs a system config target");
  }
  template <typename T>
  static void RequireWorkload(T* workload, const char* name) {
    VOODB_CHECK_MSG(workload != nullptr,
                    "parameter '" << name << "' needs a workload target");
  }

  template <typename T>
  ParamDescriptor Base(const char* name, ParamDomain domain, const char* doc) {
    ParamDescriptor d;
    d.name = name;
    d.type = TypeOf<T>();
    d.domain = domain;
    d.doc = doc;
    switch (d.type) {
      case ParamType::kBool:
        d.min_value = 0.0;
        d.max_value = 1.0;
        break;
      case ParamType::kInt:
        // Cap at the field width so a --set value can never wrap or
        // hit UB in the double -> unsigned cast; 2^53 bounds 64-bit
        // fields because larger integers are not exact in a double.
        if constexpr (std::is_integral_v<T>) {
          d.min_value = static_cast<double>(std::numeric_limits<T>::min());
          d.max_value =
              std::min(static_cast<double>(std::numeric_limits<T>::max()),
                       9007199254740992.0 /* 2^53 */);
          d.max_is_type_limit = true;
        }
        break;
      default:
        d.min_value = kNoMin;
        d.max_value = kNoMax;
        break;
    }
    return d;
  }

  Builder& Push(ParamDescriptor d) {
    out_->push_back(std::move(d));
    return *this;
  }

  ParamDescriptor& Last() { return out_->back(); }

  std::vector<ParamDescriptor>* out_;
};

}  // namespace

// When a field is added to VoodbConfig, DiskParameters or OcbParameters,
// these asserts fail until its descriptor is added below (and the counts
// in tests/test_param_registry.cpp are updated) — the registry is the
// single source of truth for parameter names and must stay complete.
#if defined(__x86_64__) && defined(__linux__)
static_assert(sizeof(storage::DiskParameters) == 24,
              "DiskParameters changed: update the parameter registry");
static_assert(sizeof(VoodbConfig) == 320,
              "VoodbConfig changed: update the parameter registry");
static_assert(sizeof(ocb::OcbParameters) == 232,
              "OcbParameters changed: update the parameter registry");
#endif

ParamRegistry::ParamRegistry() {
  Builder b(&descriptors_);

  // --- System (VoodbConfig, paper Table 3 + §5 extensions) ------------------
  b.System("system_class", &VoodbConfig::system_class,
           "SYSCLASS: architecture the generic model is instantiated as")
      .Enum({{"centralized"},
             {"object_server"},
             {"page_server"},
             {"db_server"}});
  b.System("network_throughput_mbps", &VoodbConfig::network_throughput_mbps,
           "NETTHRU in MB/s; <= 0 means infinite (no network delay)");
  b.System("page_size", &VoodbConfig::page_size,
           "PGSIZE: disk page size in bytes")
      .Range(512);
  b.System("buffer_pages", &VoodbConfig::buffer_pages,
           "BUFFSIZE: buffer (or VM frame) count in pages")
      .Range(1);
  b.System("page_replacement", &VoodbConfig::page_replacement,
           "PGREP: buffer page replacement strategy")
      .Enum({{"random"},
             {"fifo"},
             {"lfu"},
             {"lru"},
             {"lru_k", "lruk"},
             {"clock"},
             {"gclock"}});
  b.System("lru_k", &VoodbConfig::lru_k,
           "K when page_replacement is lru_k")
      .Range(1);
  b.System("prefetch", &VoodbConfig::prefetch,
           "PREFETCH: prefetching policy")
      .Enum({{"none"}, {"sequential"}});
  // Depth 0 stays legal while prefetching is disabled; the >= 1
  // requirement under an active policy is the cross-field check in
  // VoodbConfig::Validate.
  b.System("prefetch_depth", &VoodbConfig::prefetch_depth,
           "pages read ahead per sequential prefetch (>= 1 when prefetch "
           "is enabled)");
  b.System("initial_placement", &VoodbConfig::initial_placement,
           "INITPL: initial object placement policy")
      .Enum({{"sequential"},
             {"optimized_sequential"},
             {"reference_dfs"}});
  b.System("auto_clustering", &VoodbConfig::auto_clustering,
           "Clustering Manager evaluates its trigger at transaction "
           "boundaries");
  b.System("clustering_stat_cpu_ms", &VoodbConfig::clustering_stat_cpu_ms,
           "CPU ms charged per object access for clustering statistics")
      .Range(0.0);
  b.System("multiprogramming_level", &VoodbConfig::multiprogramming_level,
           "MULTILVL: concurrent transactions admitted")
      .Range(1);
  b.System("get_lock_ms", &VoodbConfig::get_lock_ms,
           "GETLOCK: lock acquisition ms per object access")
      .Range(0.0);
  b.System("release_lock_ms", &VoodbConfig::release_lock_ms,
           "RELLOCK: lock release ms per held lock")
      .Range(0.0);
  b.System("flush_on_commit", &VoodbConfig::flush_on_commit,
           "force policy: write dirty pages to disk at commit");
  b.System("use_lock_manager", &VoodbConfig::use_lock_manager,
           "real object-level concurrency control (cc_protocol) instead "
           "of the fixed GETLOCK delay");
  b.System("cc_protocol", &VoodbConfig::cc_protocol,
           "concurrency-control protocol when use_lock_manager is on")
      .Enum({{"no_wait", "nowait"},
             {"wait_die", "waitdie"},
             {"deadlock_detect", "detect"},
             {"mvcc"},
             {"occ"}});
  b.System("restart_backoff_ms", &VoodbConfig::restart_backoff_ms,
           "mean exponential restart backoff ms after a CC abort")
      .Range(0.0);
  b.System("failure_mtbf_ms", &VoodbConfig::failure_mtbf_ms,
           "mean time between crashes ms; 0 disables the hazard process")
      .Range(0.0);
  b.System("recovery_base_ms", &VoodbConfig::recovery_base_ms,
           "fixed restart cost ms after a crash")
      .Range(0.0);
  b.System("recovery_per_dirty_page_ms",
           &VoodbConfig::recovery_per_dirty_page_ms,
           "log-replay cost ms per dirty page lost in a crash")
      .Range(0.0);
  b.System("disk_fault_prob", &VoodbConfig::disk_fault_prob,
           "per-I/O transient fault probability; 0 disables")
      .RangeExclusiveMax(0.0, 1.0);
  b.System("disk_fault_retry_ms", &VoodbConfig::disk_fault_retry_ms,
           "retry penalty ms per transient fault")
      .Range(0.0);
  b.System("disk_fault_max_retries", &VoodbConfig::disk_fault_max_retries,
           "retries before a transient fault clears");
  b.System("num_users", &VoodbConfig::num_users, "NUSERS: concurrent users")
      .Range(1);
  b.System("storage_overhead", &VoodbConfig::storage_overhead,
           "storage overhead factor when packing objects into pages")
      .Range(1.0);
  b.System("use_virtual_memory", &VoodbConfig::use_virtual_memory,
           "OS virtual-memory model instead of a database buffer (Texas)");
  b.System("vm_reserve_references", &VoodbConfig::vm_reserve_references,
           "Texas reserve-on-swizzle behaviour (with use_virtual_memory)");
  b.System("vm_reservations_enter_hot",
           &VoodbConfig::vm_reservations_enter_hot,
           "reserved frames enter the LRU order hot (Linux 2.0 behaviour)");
  b.System("vm_dirty_on_load", &VoodbConfig::vm_dirty_on_load,
           "pages dirtied by pointer swizzling at load time");
  b.System("object_cpu_ms", &VoodbConfig::object_cpu_ms,
           "CPU ms per in-memory object operation")
      .Range(0.0);
  b.System("trace_record", &VoodbConfig::trace_record,
           "record the run's access trace (txn markers, object and page "
           "accesses) to trace_path");
  b.System("workload_source", &VoodbConfig::workload_source,
           "transaction stream source: the synthetic OCB generator, a "
           "recorded trace replayed from trace_path, or YCSB-style "
           "zipfian point accesses (ycsb_* workload params)")
      .Enum({{"synthetic"}, {"trace"}, {"ycsb_zipf", "ycsb"}});
  b.SystemString("trace_path", &VoodbConfig::trace_path,
                 "trace file path: output for trace_record, input for "
                 "workload_source=trace");
  b.System("shards", &VoodbConfig::shards,
           "independent storage-server shards hash-partitioned over the "
           "object base (1 = the single-server model)")
      .Range(1);
  b.System("sim_threads", &VoodbConfig::sim_threads,
           "no effect; kept until the next benchmark change")
      .Range(1);
  b.System("multi_partition_pct", &VoodbConfig::multi_partition_pct,
           "fraction of transactions that run a sub-transaction on a "
           "second shard through the network actor")
      .Range(0.0, 1.0);
  b.System("observe", &VoodbConfig::observe,
           "attach the simulation-time profiler (per-actor sim-time and "
           "event attribution)");
  b.SystemString("profile_path", &VoodbConfig::profile_path,
                 "Chrome-trace (chrome://tracing) output path; non-empty "
                 "implies observe and enables span capture");
  b.System("trace_spans", &VoodbConfig::trace_spans,
           "causal per-transaction tracing: critical-path component "
           "histograms and the slowest transactions' paths (span trees "
           "only under voodb explain)");
  b.System("trace_sample_rate", &VoodbConfig::trace_sample_rate,
           "fraction of transactions traced, chosen by a deterministic "
           "txn-id hash (consumes no RNG stream)")
      .Range(0.0, 1.0);
  b.System("trace_exemplars", &VoodbConfig::trace_exemplars,
           "slowest-K committed transactions retained as exemplars "
           "(critical paths; voodb explain also keeps their span trees)")
      .Range(0);

  // --- Disk (storage::DiskParameters) ---------------------------------------
  b.Disk("disk_search_ms", &storage::DiskParameters::search_ms,
         "DISKSEA: disk search (seek) time ms")
      .Range(0.0);
  b.Disk("disk_latency_ms", &storage::DiskParameters::latency_ms,
         "DISKLAT: disk rotational latency ms")
      .Range(0.0);
  b.Disk("disk_transfer_ms", &storage::DiskParameters::transfer_ms,
         "DISKTRA: disk page transfer time ms")
      .Range(0.0);

  // --- Workload (ocb::OcbParameters: OCB structure + Table 5) ---------------
  b.Workload("num_classes", &ocb::OcbParameters::num_classes,
             "NC: classes in the schema")
      .Range(1);
  b.Workload("max_refs_per_class", &ocb::OcbParameters::max_refs_per_class,
             "MAXNREF: max reference attributes per class")
      .Range(1);
  b.Workload("base_instance_size", &ocb::OcbParameters::base_instance_size,
             "BASESIZE: base instance size in bytes")
      .Range(1);
  b.Workload("class_size_growth", &ocb::OcbParameters::class_size_growth,
             "instance size grows linearly with the class index");
  b.Workload("num_objects", &ocb::OcbParameters::num_objects,
             "NO: object instances in the base")
      .Range(1);
  b.Workload("num_reference_types", &ocb::OcbParameters::num_reference_types,
             "NREFT: reference types (inheritance, aggregation, ...)")
      .Range(1);
  b.Workload("class_locality", &ocb::OcbParameters::class_locality,
             "CLOCREF: class locality window for reference targets")
      .Range(1);
  b.Workload("object_locality", &ocb::OcbParameters::object_locality,
             "OLOCREF: object locality window for reference targets")
      .Range(1);
  b.Workload("reference_distribution",
             &ocb::OcbParameters::reference_distribution,
             "distribution of reference targets inside the locality window")
      .Enum({{"uniform"}, {"zipf"}, {"normal"}});
  b.Workload("zipf_skew", &ocb::OcbParameters::zipf_skew,
             "Zipf skew used by zipf distributions")
      .Range(0.0);
  b.Workload("cold_transactions", &ocb::OcbParameters::cold_transactions,
             "COLDN: unmeasured warm-up transactions before every cell's "
             "reported phases");
  b.Workload("p_set", &ocb::OcbParameters::p_set,
             "PSET: set-oriented access probability")
      .Range(0.0, 1.0);
  b.Workload("set_depth", &ocb::OcbParameters::set_depth,
             "SETDEPTH: set-oriented access depth")
      .Range(1);
  b.Workload("p_simple", &ocb::OcbParameters::p_simple,
             "PSIMPLE: simple traversal probability")
      .Range(0.0, 1.0);
  b.Workload("simple_depth", &ocb::OcbParameters::simple_depth,
             "SIMDEPTH: simple traversal depth")
      .Range(1);
  b.Workload("p_hierarchy", &ocb::OcbParameters::p_hierarchy,
             "PHIER: hierarchy traversal probability")
      .Range(0.0, 1.0);
  b.Workload("hierarchy_depth", &ocb::OcbParameters::hierarchy_depth,
             "HIEDEPTH: hierarchy traversal depth")
      .Range(1);
  b.Workload("p_stochastic", &ocb::OcbParameters::p_stochastic,
             "PSTOCH: stochastic traversal probability")
      .Range(0.0, 1.0);
  b.Workload("stochastic_depth", &ocb::OcbParameters::stochastic_depth,
             "STODEPTH: stochastic traversal depth")
      .Range(1);
  b.Workload("p_random_access", &ocb::OcbParameters::p_random_access,
             "PRAND: random-access probability")
      .Range(0.0, 1.0);
  b.Workload("random_access_count", &ocb::OcbParameters::random_access_count,
             "RANDOMN: random accesses per transaction")
      .Range(1);
  b.Workload("p_scan", &ocb::OcbParameters::p_scan,
             "PSCAN: sequential class-scan probability")
      .Range(0.0, 1.0);
  b.Workload("scan_max_instances", &ocb::OcbParameters::scan_max_instances,
             "SCANMAX: instance cap per scan (0 = whole class)");
  b.Workload("p_update", &ocb::OcbParameters::p_update,
             "probability an object access is an update")
      .Range(0.0, 1.0);
  b.Workload("root_distribution", &ocb::OcbParameters::root_distribution,
             "distribution of transaction root objects")
      .Enum({{"uniform"}, {"zipf"}, {"normal"}});
  b.Workload("root_region", &ocb::OcbParameters::root_region,
             "hot-set size roots are drawn from (0 = any object)");
  b.Workload("think_time_ms", &ocb::OcbParameters::think_time_ms,
             "mean think time ms between a user's transactions")
      .Range(0.0);
  b.Workload("traversal_visits_once",
             &ocb::OcbParameters::traversal_visits_once,
             "hierarchy traversals visit each object at most once");
  b.Workload("ycsb_skew", &ocb::OcbParameters::ycsb_skew,
             "Zipf exponent of ycsb_zipf key draws over the whole base "
             "(0 = uniform)")
      .Range(0.0);
  b.Workload("ycsb_read_pct", &ocb::OcbParameters::ycsb_read_pct,
             "probability a ycsb_zipf access is a read (rest write)")
      .Range(0.0, 1.0);
  b.Workload("ycsb_ops_per_txn", &ocb::OcbParameters::ycsb_ops_per_txn,
             "independent object accesses per ycsb_zipf transaction")
      .Range(1);
  b.Workload("seed", &ocb::OcbParameters::seed,
             "base RNG seed for object-base generation");

  for (size_t i = 0; i < descriptors_.size(); ++i) {
    const auto [it, inserted] = index_.emplace(descriptors_[i].name, i);
    VOODB_CHECK_MSG(inserted,
                    "duplicate parameter '" << descriptors_[i].name << "'");
    if (descriptors_[i].type != ParamType::kString) {
      descriptors_[i].CheckValue(descriptors_[i].default_value);
    }
  }
}

}  // namespace voodb::core
