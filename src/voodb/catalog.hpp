/// \file catalog.hpp
/// \brief Ready-made VoodbConfig presets (paper Table 4).
///
/// Table 4 of the paper lists the parameter values that make the generic
/// model behave like the two validated systems: the O2 page server (IBM
/// RS/6000, AIX 4) and the Texas persistent store (PC, Linux 2.0.30).
#pragma once

#include "voodb/config.hpp"

namespace voodb::core {

/// Preset catalog for the validated systems.
class SystemCatalog {
 public:
  /// O2 v5.0 as configured in Table 4: page server, infinite network
  /// (server-side measurement), 4 KB pages, 3840-page LRU server cache,
  /// no prefetch, optimized-sequential placement, 6.3/2.99/0.7 ms disk,
  /// MULTILVL 10, 0.5 ms locks, 1 user.  The ~1.33 storage overhead is the
  /// paper's O2/Texas size ratio: the NC=50/NO=20000 OCB base occupies
  /// 25.0 MiB (18.4 MiB in Texas; the paper reports ~28 and ~21 MB).
  static VoodbConfig O2();

  /// Texas v0.5 as configured in Table 4: centralized, 4 KB pages,
  /// 3275-frame memory, LRU, 7.4/4.3/0.5 ms disk, no locks, 1 user,
  /// OS virtual memory with Texas' reserve-on-swizzle loading policy.
  static VoodbConfig Texas();

  /// Texas with `memory_mb` of RAM available to the store (Figure 11's
  /// sweep); frames = memory_mb MB / page size.
  static VoodbConfig TexasWithMemory(double memory_mb);

  /// O2 with `cache_mb` of server cache (Figure 8's sweep).
  static VoodbConfig O2WithCache(double cache_mb);

  /// Rewrites `config.buffer_pages` for a Texas host with `memory_mb`
  /// of physical memory (~80 % of it available to the store's mapping).
  /// `TexasWithMemory(m)` == `Texas()` + `SetTexasMemory(cfg, m)`;
  /// exposed so memory sweeps can rescale an arbitrary base config.
  static void SetTexasMemory(VoodbConfig& config, double memory_mb);

  /// Rewrites `config.buffer_pages` for an O2 server cache of
  /// `cache_mb`.  `O2WithCache(m)` == `O2()` + `SetO2Cache(cfg, m)`.
  static void SetO2Cache(VoodbConfig& config, double cache_mb);
};

}  // namespace voodb::core
