/// \file test_voodb_config.cpp
/// \brief Tests for the Table 3 configuration and Table 4 catalog.
#include <gtest/gtest.h>

#include <string>

#include "util/check.hpp"
#include "voodb/catalog.hpp"
#include "voodb/config.hpp"

namespace voodb::core {
namespace {

TEST(VoodbConfig, DefaultsAreValid) {
  VoodbConfig cfg;
  cfg.Validate();
  // Table 3 defaults.
  EXPECT_EQ(cfg.system_class, SystemClass::kPageServer);
  EXPECT_EQ(cfg.page_size, 4096u);
  EXPECT_EQ(cfg.buffer_pages, 500u);
  EXPECT_EQ(cfg.page_replacement, storage::ReplacementPolicy::kLru);
  EXPECT_EQ(cfg.prefetch, PrefetchPolicy::kNone);
  EXPECT_EQ(cfg.multiprogramming_level, 10u);
  EXPECT_DOUBLE_EQ(cfg.get_lock_ms, 0.5);
  EXPECT_DOUBLE_EQ(cfg.release_lock_ms, 0.5);
  EXPECT_EQ(cfg.num_users, 1u);
  EXPECT_DOUBLE_EQ(cfg.disk.search_ms, 7.4);
  EXPECT_DOUBLE_EQ(cfg.disk.latency_ms, 4.3);
  EXPECT_DOUBLE_EQ(cfg.disk.transfer_ms, 0.5);
}

TEST(VoodbConfig, ValidationCatchesBadValues) {
  VoodbConfig cfg;
  cfg.page_size = 100;
  EXPECT_THROW(cfg.Validate(), util::Error);
  cfg = VoodbConfig{};
  cfg.buffer_pages = 0;
  EXPECT_THROW(cfg.Validate(), util::Error);
  cfg = VoodbConfig{};
  cfg.multiprogramming_level = 0;
  EXPECT_THROW(cfg.Validate(), util::Error);
  cfg = VoodbConfig{};
  cfg.num_users = 0;
  EXPECT_THROW(cfg.Validate(), util::Error);
  cfg = VoodbConfig{};
  cfg.get_lock_ms = -1.0;
  EXPECT_THROW(cfg.Validate(), util::Error);
  cfg = VoodbConfig{};
  cfg.storage_overhead = 0.9;
  EXPECT_THROW(cfg.Validate(), util::Error);
  cfg = VoodbConfig{};
  cfg.disk.search_ms = -0.1;
  EXPECT_THROW(cfg.Validate(), util::Error);
}

TEST(VoodbConfig, TracingRejectsMoreConcurrentTransactionsThanTraceSlots) {
  // Trace ids hold a 16-bit slot index: a run that could admit more than
  // 65534 transactions at once must fail up front, not mid-run.
  VoodbConfig cfg;
  cfg.num_users = 70000;
  cfg.multiprogramming_level = 70000;
  try {
    cfg.Validate();
    FAIL() << "MPL 70000 with trace_spans passed Validate";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("num_users"), std::string::npos) << message;
    EXPECT_NE(message.find("multiprogramming_level"), std::string::npos)
        << message;
  }
  // Either bound alone keeps the admitted set small enough.
  cfg.num_users = 65534;
  cfg.Validate();
  cfg.num_users = 70000;
  cfg.multiprogramming_level = 65534;
  cfg.Validate();
  // Sharded: other shards' users' sub-transactions are admitted too.
  cfg.multiprogramming_level = 70000;
  cfg.num_users = 40000;
  cfg.shards = 2;
  EXPECT_THROW(cfg.Validate(), util::Error);
  // Untraced runs have no slot limit.
  cfg.trace_spans = false;
  cfg.Validate();
}

TEST(VoodbConfig, ShardedRunsNameTheRejectedSetting) {
  auto message = [](const VoodbConfig& cfg) -> std::string {
    try {
      cfg.Validate();
    } catch (const util::Error& e) {
      return e.what();
    }
    return "";
  };
  VoodbConfig cfg;
  cfg.shards = 2;
  cfg.Validate();
  // A non-synthetic source is named with its value; trace is not blamed.
  cfg.workload_source = WorkloadSourceKind::kYcsbZipf;
  std::string m = message(cfg);
  EXPECT_NE(m.find("workload_source=ycsb_zipf"), std::string::npos) << m;
  EXPECT_NE(m.find("only the synthetic generator runs sharded"),
            std::string::npos)
      << m;
  EXPECT_EQ(m.find("trace"), std::string::npos) << m;
  // Recording names trace_record.
  cfg.workload_source = WorkloadSourceKind::kSynthetic;
  cfg.trace_record = true;
  cfg.trace_path = "run.trace";
  m = message(cfg);
  EXPECT_NE(m.find("trace_record"), std::string::npos) << m;
  EXPECT_EQ(m.find("workload_source"), std::string::npos) << m;
}

TEST(SystemCatalog, O2MatchesTable4) {
  const VoodbConfig o2 = SystemCatalog::O2();
  o2.Validate();
  EXPECT_EQ(o2.system_class, SystemClass::kPageServer);
  EXPECT_LE(o2.network_throughput_mbps, 0.0);  // +inf
  EXPECT_EQ(o2.page_size, 4096u);
  EXPECT_EQ(o2.buffer_pages, 3840u);
  EXPECT_EQ(o2.page_replacement, storage::ReplacementPolicy::kLru);
  EXPECT_EQ(o2.prefetch, PrefetchPolicy::kNone);
  EXPECT_DOUBLE_EQ(o2.disk.search_ms, 6.3);
  EXPECT_DOUBLE_EQ(o2.disk.latency_ms, 2.99);
  EXPECT_DOUBLE_EQ(o2.disk.transfer_ms, 0.7);
  EXPECT_EQ(o2.multiprogramming_level, 10u);
  EXPECT_DOUBLE_EQ(o2.get_lock_ms, 0.5);
  EXPECT_EQ(o2.num_users, 1u);
  EXPECT_FALSE(o2.use_virtual_memory);
  EXPECT_GT(o2.storage_overhead, 1.0);
}

TEST(SystemCatalog, TexasMatchesTable4) {
  const VoodbConfig texas = SystemCatalog::Texas();
  texas.Validate();
  EXPECT_EQ(texas.system_class, SystemClass::kCentralized);
  EXPECT_EQ(texas.page_size, 4096u);
  EXPECT_DOUBLE_EQ(texas.disk.search_ms, 7.4);
  EXPECT_DOUBLE_EQ(texas.disk.latency_ms, 4.3);
  EXPECT_DOUBLE_EQ(texas.disk.transfer_ms, 0.5);
  EXPECT_EQ(texas.multiprogramming_level, 1u);
  EXPECT_DOUBLE_EQ(texas.get_lock_ms, 0.0);
  EXPECT_DOUBLE_EQ(texas.release_lock_ms, 0.0);
  EXPECT_TRUE(texas.use_virtual_memory);
  EXPECT_TRUE(texas.vm_reserve_references);
  EXPECT_TRUE(texas.vm_dirty_on_load);
}

TEST(SystemCatalog, MemorySweepsScaleFrames) {
  const VoodbConfig t8 = SystemCatalog::TexasWithMemory(8.0);
  const VoodbConfig t64 = SystemCatalog::TexasWithMemory(64.0);
  EXPECT_LT(t8.buffer_pages, t64.buffer_pages);
  EXPECT_NEAR(static_cast<double>(t64.buffer_pages) / t8.buffer_pages, 8.0,
              0.1);
  const VoodbConfig o8 = SystemCatalog::O2WithCache(8.0);
  const VoodbConfig o16 = SystemCatalog::O2WithCache(16.0);
  EXPECT_EQ(o8.buffer_pages * 2, o16.buffer_pages);
  EXPECT_THROW(SystemCatalog::TexasWithMemory(0.0), util::Error);
  EXPECT_THROW(SystemCatalog::O2WithCache(-1.0), util::Error);
}

TEST(Names, ToStringCoverage) {
  EXPECT_STREQ(ToString(SystemClass::kCentralized), "CENTRALIZED");
  EXPECT_STREQ(ToString(SystemClass::kObjectServer), "OBJECT_SERVER");
  EXPECT_STREQ(ToString(SystemClass::kPageServer), "PAGE_SERVER");
  EXPECT_STREQ(ToString(SystemClass::kDbServer), "DB_SERVER");
  EXPECT_STREQ(ToString(PrefetchPolicy::kNone), "NONE");
  EXPECT_STREQ(ToString(PrefetchPolicy::kSequential), "SEQUENTIAL");
}

}  // namespace
}  // namespace voodb::core
