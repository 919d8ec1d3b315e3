// Exact operator-new accounting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family with
// malloc-backed versions that count every allocation call.  Each live
// thread increments its own cache-line-sized slot and gives it back when
// it exits, so counting adds no shared write traffic to the parallel
// kernel's worker threads however many threads a run starts.
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls made by every thread since process start.
uint64_t AllocCount();

/// operator new calls made by the calling thread since it started.
uint64_t ThreadAllocCount();

}  // namespace perfbench
