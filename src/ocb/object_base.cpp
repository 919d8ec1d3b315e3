#include "ocb/object_base.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace voodb::ocb {

ObjectBase ObjectBase::Generate(const OcbParameters& params) {
  params.Validate();
  ObjectBase base;
  base.params_ = params;
  desp::RandomStream root_stream(params.seed);
  base.schema_ = Schema::Generate(params, root_stream.Derive(1));
  desp::RandomStream ref_stream = root_stream.Derive(2);

  const uint64_t no = params.num_objects;
  const uint32_t nc = params.num_classes;
  base.num_objects_ = no;
  base.classes_ = util::Divisor(nc);
  base.instances_per_class_.assign(nc, 0);
  base.class_sizes_.resize(nc);
  for (ClassId c = 0; c < nc; ++c) {
    base.class_sizes_[c] = base.schema_.Class(c).instance_size;
  }

  // Instances are assigned to classes round-robin: object i belongs to
  // class (i mod NC).  This populates every class evenly and — because a
  // class's instances all share one residue — lets reference generation
  // snap a locality-window candidate to the demanded target class in O(1).
  // The round-robin rule also makes class and size pure functions of the
  // OID, so the SoA layout needs no per-object class/size arrays at all.
  // Both walks below carry the class as a running residue.
  base.ref_offsets_.resize(no + 1);
  uint64_t total_slots = 0;
  ClassId cls = 0;
  for (Oid i = 0; i < no; ++i) {
    base.ref_offsets_[i] = total_slots;
    total_slots += base.schema_.Class(cls).references.size();
    base.total_bytes_ += base.class_sizes_[cls];
    ++base.instances_per_class_[cls];
    if (++cls == nc) cls = 0;
  }
  base.ref_offsets_[no] = total_slots;
  base.ref_targets_.assign(total_slots, kNullOid);

  // Every division left in the slot loop is by an invariant (the window,
  // NC) and runs as a multiply (util::Divisor); the wrap at NO is a
  // compare, because i + offset < 2 NO.
  const uint64_t window_limit =
      std::min<uint64_t>(params.object_locality, no);
  const desp::UniformBelow window(window_limit);
  const util::Divisor& classes = base.classes_;
  cls = 0;
  for (Oid i = 0; i < no; ++i) {
    const ClassDef& def = base.schema_.Class(cls);
    if (++cls == nc) cls = 0;
    Oid* row = base.ref_targets_.data() + base.ref_offsets_[i];
    for (size_t slot = 0; slot < def.references.size(); ++slot) {
      const ClassId target_class = def.references[slot].target_class;
      if (base.instances_per_class_[target_class] == 0) continue;  // dangling
      uint64_t offset = 0;
      switch (params.reference_distribution) {
        case Distribution::kUniform:
          offset = ref_stream.Below(window);
          break;
        case Distribution::kZipf:
          offset = static_cast<uint64_t>(ref_stream.Zipf(
              static_cast<int64_t>(window_limit), params.zipf_skew));
          break;
        case Distribution::kNormal: {
          const double raw = ref_stream.Normal(
              0.0, static_cast<double>(window_limit) / 4.0);
          offset = static_cast<uint64_t>(
              std::llround(std::fabs(raw)) %
              static_cast<int64_t>(window_limit));
          break;
        }
      }
      // Candidate inside the locality window, snapped to the residue of
      // the demanded class (round-robin assignment, see above).
      const uint64_t candidate =
          offset >= no - i ? offset - (no - i) : i + offset;
      uint64_t snapped = candidate - classes.Mod(candidate) + target_class;
      if (snapped >= no) {
        snapped = target_class;  // wrap to the first instance of the class
      }
      row[slot] = snapped;
    }
  }
  return base;
}

ObjectDef ObjectBase::Object(Oid oid) const {
  VOODB_CHECK_MSG(oid < num_objects_, "oid " << oid << " out of range");
  ObjectDef view;
  view.id = oid;
  view.cls = ClassOf(oid);
  view.size = class_sizes_[view.cls];
  view.references = References(oid);
  return view;
}

uint64_t ObjectBase::InstancesOf(ClassId c) const {
  VOODB_CHECK_MSG(c < instances_per_class_.size(),
                  "class id " << c << " out of range");
  return instances_per_class_[c];
}

double ObjectBase::MeanFanout() const {
  if (num_objects_ == 0) return 0.0;
  uint64_t refs = 0;
  for (Oid target : ref_targets_) {
    if (target != kNullOid) ++refs;
  }
  return static_cast<double>(refs) / static_cast<double>(num_objects_);
}

}  // namespace voodb::ocb
