/// \file object_base.hpp
/// \brief The OCB object base: instances and their reference graph.
///
/// The base is stored data-oriented: instance attributes live in
/// structure-of-arrays form (one dense array per attribute, indexed by
/// OID) and the reference graph is CSR — one `ref_offsets_` array of
/// NO+1 row boundaries plus one flat `ref_targets_` array, instead of a
/// `std::vector<Oid>` per object.  Traversals iterate a CSR row as one
/// contiguous span, so the workload generator and the clustering
/// policies touch exactly the cache lines holding the data.
#pragma once

#include <cstdint>
#include <vector>

#include "desp/random.hpp"
#include "ocb/parameters.hpp"
#include "ocb/schema.hpp"
#include "ocb/types.hpp"
#include "util/divisor.hpp"

namespace voodb::ocb {

/// Lightweight view of one object instance (valid while the owning
/// ObjectBase is alive).  `references` is the object's CSR row; slots are
/// parallel to the class's reference attributes and may be kNullOid.
struct ObjectDef {
  Oid id = kNullOid;
  ClassId cls = 0;
  uint32_t size = 0;
  OidSpan references;
};

/// The generated object base (schema + instances).
///
/// Instances are assigned to classes round-robin so every class is
/// populated; reference targets respect the OLOCREF locality window and
/// point to instances of the slot's target class wherever possible.
class ObjectBase {
 public:
  /// Generates a base; deterministic in `params.seed`.
  static ObjectBase Generate(const OcbParameters& params);

  const Schema& schema() const { return schema_; }
  /// View of object `oid` (bounds-checked).
  ObjectDef Object(Oid oid) const;
  uint64_t NumObjects() const { return num_objects_; }

  /// Class of `oid` (unchecked fast path; round-robin assignment).
  ClassId ClassOf(Oid oid) const {
    return static_cast<ClassId>(classes_.Mod(oid));
  }
  /// Instance size of `oid` in bytes (unchecked fast path).
  uint32_t SizeOf(Oid oid) const { return class_sizes_[ClassOf(oid)]; }
  /// Reference slots of `oid` as a CSR row (unchecked fast path).
  OidSpan References(Oid oid) const {
    const uint64_t begin = ref_offsets_[oid];
    return OidSpan(ref_targets_.data() + begin,
                   static_cast<size_t>(ref_offsets_[oid + 1] - begin));
  }

  /// Sum of instance sizes (bytes), i.e. the payload size of the base.
  uint64_t TotalBytes() const { return total_bytes_; }

  /// Number of instances of class `c`.
  uint64_t InstancesOf(ClassId c) const;

  /// Mean number of non-null references per object.
  double MeanFanout() const;

  const OcbParameters& params() const { return params_; }

 private:
  OcbParameters params_;
  Schema schema_;
  uint64_t num_objects_ = 0;
  /// Division by NC: ClassOf is a remainder, taken without a `div`.
  util::Divisor classes_;
  /// Instance size per class (instances of a class all share one size).
  std::vector<uint32_t> class_sizes_;
  /// CSR reference graph: row `oid` is
  /// ref_targets_[ref_offsets_[oid] .. ref_offsets_[oid+1]).
  std::vector<uint64_t> ref_offsets_;
  std::vector<Oid> ref_targets_;
  std::vector<uint64_t> instances_per_class_;
  uint64_t total_bytes_ = 0;
};

}  // namespace voodb::ocb
