#include "voodb/catalog.hpp"

#include "util/check.hpp"

namespace voodb::core {

VoodbConfig SystemCatalog::O2() {
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kPageServer;
  cfg.network_throughput_mbps = 0.0;  // +inf in Table 4 (no network delay)
  cfg.page_size = 4096;
  cfg.buffer_pages = 3840;  // 15.7 MB default server cache
  cfg.page_replacement = storage::ReplacementPolicy::kLru;
  cfg.prefetch = PrefetchPolicy::kNone;
  cfg.initial_placement = storage::PlacementPolicy::kOptimizedSequential;
  cfg.disk = storage::DiskParameters{6.3, 2.99, 0.7};
  cfg.multiprogramming_level = 10;
  cfg.get_lock_ms = 0.5;
  cfg.release_lock_ms = 0.5;
  cfg.num_users = 1;
  cfg.storage_overhead = 1.33;
  cfg.use_virtual_memory = false;
  return cfg;
}

VoodbConfig SystemCatalog::Texas() {
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.network_throughput_mbps = 0.0;  // N/A for a centralized system
  cfg.page_size = 4096;
  // Frames available to the store's mapping on the 64 MB host.  Table 4
  // prints "3275 pages", but that figure cannot reproduce Figures 10-11
  // (the reference base, ~4700 pages here, shows *no* thrashing at
  // 64 MB), so we derive frames from physical memory instead; see
  // README.md "Design notes".
  cfg.buffer_pages = 13107;  // 0.8 * 64 MB / 4 KB
  cfg.page_replacement = storage::ReplacementPolicy::kLru;
  cfg.prefetch = PrefetchPolicy::kNone;
  cfg.initial_placement = storage::PlacementPolicy::kOptimizedSequential;
  cfg.disk = storage::DiskParameters{7.4, 4.3, 0.5};
  cfg.multiprogramming_level = 1;
  cfg.get_lock_ms = 0.0;
  cfg.release_lock_ms = 0.0;
  cfg.num_users = 1;
  cfg.storage_overhead = 1.0;
  cfg.use_virtual_memory = true;
  cfg.vm_reserve_references = true;
  cfg.vm_dirty_on_load = true;
  return cfg;
}

VoodbConfig SystemCatalog::TexasWithMemory(double memory_mb) {
  VoodbConfig cfg = Texas();
  SetTexasMemory(cfg, memory_mb);
  return cfg;
}

VoodbConfig SystemCatalog::O2WithCache(double cache_mb) {
  VoodbConfig cfg = O2();
  SetO2Cache(cfg, cache_mb);
  return cfg;
}

void SystemCatalog::SetTexasMemory(VoodbConfig& config, double memory_mb) {
  VOODB_CHECK_MSG(memory_mb > 0.0, "memory must be positive");
  // Linux 2.0 on the paper's PC leaves roughly 80 % of physical memory to
  // the store's mapping (kernel + daemons take the rest).
  const double frames = memory_mb * 1024.0 * 1024.0 * 0.8 /
                        static_cast<double>(config.page_size);
  config.buffer_pages = static_cast<uint64_t>(frames);
  if (config.buffer_pages < 16) config.buffer_pages = 16;
}

void SystemCatalog::SetO2Cache(VoodbConfig& config, double cache_mb) {
  VOODB_CHECK_MSG(cache_mb > 0.0, "cache must be positive");
  config.buffer_pages = static_cast<uint64_t>(
      cache_mb * 1024.0 * 1024.0 / static_cast<double>(config.page_size));
  if (config.buffer_pages < 16) config.buffer_pages = 16;
}

}  // namespace voodb::core
