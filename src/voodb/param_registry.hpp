/// \file param_registry.hpp
/// \brief The single source of truth for VOODB parameter names.
///
/// VOODB's whole point (paper §3.2, Table 3; OCB's Table 5) is that one
/// generic model, steered purely by parameters, reproduces many OODB
/// architectures and experiments.  The registry makes that
/// parameterization surface a first-class API: every field of
/// `core::VoodbConfig` (including its embedded `storage::DiskParameters`)
/// and `ocb::OcbParameters` has exactly one descriptor carrying its name,
/// type, doc string, valid range, typed accessors, and string <-> enum
/// mapping.  Everything that addresses a parameter by name resolves
/// through here: the `voodb run --set key=value` driver, the cells a
/// scenario or example sweeps (each cell applies its value in the same
/// `--set` spelling through `Set`), config validation (range errors name
/// the offending parameter), and the generated parameter table (`voodb
/// params`, README).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ocb/parameters.hpp"
#include "voodb/config.hpp"

namespace voodb::core {

/// Value category of a parameter.  Every value travels through the
/// registry as a double: bools as 0/1, enums as their ordinal.
enum class ParamType {
  kBool,
  kInt,
  kReal,
  kEnum,
  /// Free-form text (e.g. a trace file path).  String parameters travel
  /// through the dedicated text accessors — they have no numeric value,
  /// have no numeric `Set`, and carry no range.
  kString,
};

const char* ToString(ParamType t);

/// Which parameter struct a descriptor addresses.
enum class ParamDomain {
  kSystem,    ///< VoodbConfig (paper Table 3 + extensions)
  kDisk,      ///< storage::DiskParameters inside VoodbConfig
  kWorkload,  ///< ocb::OcbParameters (OCB structure + Table 5 workload)
};

const char* ToString(ParamDomain d);

/// Mutable view over the structs a descriptor can address.  A null
/// pointer means "that domain is not available here" (e.g. validating a
/// bare VoodbConfig); touching a parameter of an absent domain throws.
struct ParamTarget {
  VoodbConfig* system = nullptr;
  ocb::OcbParameters* workload = nullptr;
};

/// Read-only counterpart of ParamTarget.
struct ConstParamTarget {
  const VoodbConfig* system = nullptr;
  const ocb::OcbParameters* workload = nullptr;
};

/// One named parameter: metadata plus typed get/set accessors.
struct ParamDescriptor {
  std::string name;
  ParamType type = ParamType::kReal;
  ParamDomain domain = ParamDomain::kSystem;
  std::string doc;
  double min_value = 0.0;        ///< inclusive lower bound
  double max_value = 0.0;        ///< upper bound (see max_exclusive)
  bool max_exclusive = false;    ///< e.g. disk_fault_prob in [0, 1)
  /// True when max_value is just the storage type's width (not a
  /// semantic bound); RangeText omits it, CheckValue still enforces it
  /// (a double that overflows the field must error, not wrap).
  bool max_is_type_limit = false;
  double default_value = 0.0;    ///< value in a default-constructed struct
  /// For kEnum: one entry per enumerator, each a non-empty list of
  /// accepted spellings whose first element is the canonical name.
  /// Matched case-insensitively; the ordinal doubles as a numeric
  /// spelling for back-compat.
  std::vector<std::vector<std::string>> enum_values;

  std::function<double(const ConstParamTarget&)> getter;
  std::function<void(const ParamTarget&, double)> setter;
  /// kString only: text accessors (the numeric pair above stays null).
  std::function<std::string(const ConstParamTarget&)> text_getter;
  std::function<void(const ParamTarget&, const std::string&)> text_setter;
  /// kString only: value in a default-constructed struct.
  std::string default_text;

  bool integral() const {
    return type != ParamType::kReal && type != ParamType::kString;
  }
  /// Canonical spelling of enumerator `ordinal`.
  const std::string& EnumName(size_t ordinal) const;
  /// "512 <= value", "[0, 1]", "0..2", ... for tables and errors.
  std::string RangeText() const;
  /// Throws voodb::util::Error naming this parameter when `value` is
  /// fractional-for-integral or out of range.
  void CheckValue(double value) const;
};

/// The global descriptor table.  Immutable after construction.
class ParamRegistry {
 public:
  static const ParamRegistry& Instance();

  const std::vector<ParamDescriptor>& descriptors() const {
    return descriptors_;
  }
  /// All parameter names, in declaration (struct) order.
  std::vector<std::string> Names() const;

  const ParamDescriptor* Find(const std::string& name) const;
  /// Throws voodb::util::Error with a nearest-name suggestion, or for a
  /// retired name, with its replacement.
  const ParamDescriptor& At(const std::string& name) const;

  double Get(const ConstParamTarget& target, const std::string& name) const;
  /// Range-checks then writes; errors name the parameter.  Rejects
  /// string parameters (they have no numeric value).
  void Set(const ParamTarget& target, const std::string& name,
           double value) const;
  /// String-aware Set: `value` may be an enum/bool spelling, a number,
  /// or — for string parameters — the text itself.
  void Set(const ParamTarget& target, const std::string& name,
           const std::string& value) const;

  /// Current value rendered as text: FormatValue for numeric
  /// parameters, the raw text for string ones.
  std::string GetText(const ConstParamTarget& target,
                      const std::string& name) const;
  /// Default value rendered as text.
  std::string DefaultText(const ParamDescriptor& d) const;
  /// True when `d`'s value in `target` equals its default.
  bool IsDefault(const ConstParamTarget& target,
                 const ParamDescriptor& d) const;

  /// Parses `text` as a value for `name` (enum names, true/false/on/off,
  /// plain numbers); throws listing the valid choices.
  double ParseValue(const std::string& name, const std::string& text) const;
  /// Renders `value` for `name`: canonical enum name, true/false,
  /// integer or shortest real.
  std::string FormatValue(const std::string& name, double value) const;

  /// Per-field range validation of a VoodbConfig (kSystem + kDisk
  /// domains); error messages name the offending parameter.
  /// Cross-field constraints stay in VoodbConfig::Validate.
  void ValidateSystem(const VoodbConfig& config) const;
  /// Per-field range validation of an OcbParameters (kWorkload domain).
  void ValidateWorkload(const ocb::OcbParameters& workload) const;

 private:
  ParamRegistry();

  std::vector<ParamDescriptor> descriptors_;
  std::map<std::string, size_t> index_;
};

}  // namespace voodb::core
