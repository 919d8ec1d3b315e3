/// \file event_list_param.hpp
/// \brief The value parameter of the kernel's value-parameterised suites.
///
/// The kernel has one event list, the binary heap.  The scheduler suites
/// keep their value-parameterised form over this one-value enum so their
/// test names (".../binary") stay stable across kernel changes.
#pragma once

#include <gtest/gtest.h>

#include <string>

namespace voodb::desp {

enum class EventList { kBinaryHeap };

/// Instance-name generator for suites named after the event list.
inline std::string EventListName(const ::testing::TestParamInfo<EventList>&) {
  return "binary";
}

}  // namespace voodb::desp
