/// \file test_trace.cpp
/// \brief Tests for the access-trace subsystem: format round-trips,
/// corrupt/truncated input rejection, deterministic replay, Mattson MRC
/// exactness against real buffer simulations, and trace-as-workload
/// replay through the DES.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "desp/random.hpp"
#include "emu/o2_emulator.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "storage/buffer_manager.hpp"
#include "trace/mrc.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/replayer.hpp"
#include "trace/workload.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"
#include "voodb/system.hpp"

namespace voodb::trace {
namespace {

std::stringstream BinaryStream() {
  return std::stringstream(std::ios::in | std::ios::out | std::ios::binary);
}

Header SmallHeader() {
  Header h;
  h.page_size = 4096;
  h.buffer_pages = 64;
  h.replacement_policy =
      static_cast<uint8_t>(storage::ReplacementPolicy::kLru);
  h.num_classes = 10;
  h.num_objects = 1000;
  h.num_pages = 400;
  h.seed = 7;
  return h;
}

TEST(TraceFormat, WriterReaderRoundTripIsBitIdentical) {
  // A stream exercising every record kind, multi-chunk lengths, and ids
  // that stress the zigzag delta coding (big jumps in both directions).
  std::vector<Record> original;
  desp::RandomStream rng(99);
  for (int t = 0; t < 40; ++t) {
    original.push_back({RecordKind::kTxnBegin,
                        static_cast<uint64_t>(t % 6), false});
    const int accesses = 1 + static_cast<int>(rng.UniformInt(0, 400));
    for (int a = 0; a < accesses; ++a) {
      const auto oid = static_cast<uint64_t>(rng.UniformInt(0, 999));
      const bool write = rng.Bernoulli(0.3);
      original.push_back({RecordKind::kObject, oid, write});
      original.push_back({RecordKind::kPage, oid * 37 % 4001, write});
    }
    // Every fourth attempt ends in a concurrency-control abort (v3).
    original.push_back(
        {t % 4 == 3 ? RecordKind::kTxnAbort : RecordKind::kTxnEnd, 0, false});
  }
  ASSERT_GT(original.size(), kChunkRecords)  // forces multiple chunks
      << "test stream too short to cover chunk boundaries";

  std::stringstream ss = BinaryStream();
  Writer writer(&ss, SmallHeader());
  Recorder recorder(&writer);
  for (const Record& r : original) {
    switch (r.kind) {
      case RecordKind::kTxnBegin:
        recorder.OnTxnBegin(r.id);
        break;
      case RecordKind::kTxnEnd:
        recorder.OnTxnEnd();
        break;
      case RecordKind::kTxnAbort:
        recorder.OnTxnAbort();
        break;
      case RecordKind::kObject:
        recorder.OnObject(r.id, r.write);
        break;
      case RecordKind::kPage:
        recorder.OnPage(r.id, r.write);
        break;
    }
  }
  recorder.Flush();
  TraceCounters counters;
  counters.accesses = 123;
  counters.hits = 45;
  writer.Finish(counters);

  Reader reader(&ss);
  EXPECT_EQ(reader.header().num_records, original.size());
  EXPECT_EQ(reader.header().counters.accesses, 123u);
  EXPECT_EQ(reader.header().counters.hits, 45u);
  EXPECT_EQ(reader.header().page_size, 4096u);
  std::vector<Record> decoded;
  Record r;
  while (reader.Next(r)) decoded.push_back(r);
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(static_cast<int>(decoded[i].kind),
              static_cast<int>(original[i].kind))
        << i;
    EXPECT_EQ(decoded[i].id, original[i].id) << i;
    EXPECT_EQ(decoded[i].write, original[i].write) << i;
  }

  // Rewind replays the identical stream.
  reader.Rewind();
  size_t again = 0;
  while (reader.Next(r)) {
    EXPECT_EQ(r.id, decoded[again].id);
    ++again;
  }
  EXPECT_EQ(again, original.size());
}

TEST(TraceFormat, RejectsCorruptAndTruncatedInput) {
  // A valid finished trace to mutate.
  std::stringstream ss = BinaryStream();
  Writer writer(&ss, SmallHeader());
  Recorder recorder(&writer);
  for (int i = 0; i < 100; ++i) {
    recorder.OnPage(static_cast<uint64_t>(i % 17), false);
  }
  recorder.Flush();
  writer.Finish(TraceCounters{});
  const std::string good = ss.str();

  {  // Truncated header.
    std::stringstream s = BinaryStream();
    s.str(good.substr(0, sizeof(Header) / 2));
    EXPECT_THROW(Reader r(&s), util::Error);
  }
  {  // Bad magic.
    std::string bytes = good;
    bytes[0] = 'X';
    std::stringstream s = BinaryStream();
    s.str(bytes);
    EXPECT_THROW(Reader r(&s), util::Error);
  }
  {  // Unsupported version.
    std::string bytes = good;
    bytes[4] = static_cast<char>(99);
    std::stringstream s = BinaryStream();
    s.str(bytes);
    EXPECT_THROW(Reader r(&s), util::Error);
  }
  {  // Unfinished recording (flags bit cleared).
    std::string bytes = good;
    bytes[8] = 0;
    std::stringstream s = BinaryStream();
    s.str(bytes);
    EXPECT_THROW(Reader r(&s), util::Error);
  }
  {  // Truncated mid-chunk: header is intact, payload is cut short.
    std::stringstream s = BinaryStream();
    s.str(good.substr(0, good.size() - 20));
    Reader reader(&s);
    Record r;
    EXPECT_THROW(
        while (reader.Next(r)) {
        },
        util::Error);
  }
}

TEST(TraceReplay, ReproducesRecordedEmulatorCountersBitExactly) {
  ocb::OcbParameters params;
  params.num_classes = 10;
  params.num_objects = 2000;
  params.p_update = 0.2;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(params);

  for (const auto policy : {storage::ReplacementPolicy::kLru,
                            storage::ReplacementPolicy::kClock,
                            storage::ReplacementPolicy::kRandom}) {
    emu::O2Config cfg;
    cfg.cache_pages = 128;
    cfg.replacement = policy;
    std::stringstream ss = BinaryStream();
    emu::O2Emulator o2(cfg, &base, /*seed=*/11);
    {
      Writer writer(&ss, [&] {
        Header h = SmallHeader();
        h.buffer_pages = cfg.cache_pages;
        h.replacement_policy = static_cast<uint8_t>(policy);
        h.num_pages = o2.NumPages();
        h.seed = 11;
        return h;
      }());
      Recorder recorder(&writer);
      o2.SetRecorder(&recorder);
      ocb::WorkloadGenerator gen(&base, desp::RandomStream(11));
      o2.RunTransactions(gen, 300);
      recorder.Flush();
      writer.Finish(o2.TraceCountersNow());
    }
    Reader reader(&ss);
    const ReplayStats stats = ReplayPages(reader);
    EXPECT_TRUE(stats.Matches(reader.header().counters))
        << "policy " << ToString(policy) << ": replayed " << stats.hits
        << " hits vs recorded " << reader.header().counters.hits;
  }
}

TEST(TraceReplay, ReproducesRecordedSimulationCountersBitExactly) {
  ocb::OcbParameters params;
  params.num_classes = 10;
  params.num_objects = 1500;
  params.p_update = 0.3;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(params);

  const std::string path = "test_trace_sim.vtrc";
  core::VoodbConfig cfg;
  cfg.system_class = core::SystemClass::kCentralized;
  cfg.buffer_pages = 150;
  cfg.trace_record = true;
  cfg.trace_path = path;
  trace::TraceCounters recorded;
  {
    core::VoodbSystem sys(cfg, &base, nullptr, /*seed=*/5);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5).Derive(1));
    sys.RunTransactions(gen, 200);
    recorded = sys.buffering_manager().TraceCountersNow();
    sys.FinishTrace();
    // The system stays usable after finalizing the trace: FinishTrace
    // detaches the recorder, so further phases neither throw nor append.
    sys.RunTransactions(gen, 200);
  }
  Reader reader(path);
  EXPECT_TRUE(reader.header().counters.accesses > 0);
  EXPECT_EQ(reader.header().counters.accesses, recorded.accesses);
  const ReplayStats stats = ReplayPages(reader);
  EXPECT_TRUE(stats.Matches(recorded))
      << "replayed " << stats.hits << "/" << stats.misses
      << " vs recorded " << recorded.hits << "/" << recorded.misses;
  std::remove(path.c_str());
}

TEST(TraceReplay, FlushOnCommitRecordingsAreMarkedNotVerifiable) {
  // flush_on_commit writes dirty pages back at commit — buffer events a
  // bare page-stream replay cannot see — so such recordings carry a
  // header flag that verification surfaces refuse.
  ocb::OcbParameters params;
  params.num_classes = 5;
  params.num_objects = 500;
  params.p_update = 0.5;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(params);
  const std::string path = "test_trace_flush.vtrc";
  core::VoodbConfig cfg;
  cfg.system_class = core::SystemClass::kCentralized;
  cfg.buffer_pages = 64;
  cfg.flush_on_commit = true;
  cfg.trace_record = true;
  cfg.trace_path = path;
  {
    core::VoodbSystem sys(cfg, &base, nullptr, /*seed=*/3);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(3).Derive(1));
    sys.RunTransactions(gen, 50);
  }
  Reader reader(path);
  EXPECT_NE(reader.header().flags & kFlagCommitFlush, 0u);
  EXPECT_FALSE(ReplayVerifiable(reader.header().flags));
  // A plain recording stays verifiable.
  EXPECT_TRUE(ReplayVerifiable(kFlagFinished));
  EXPECT_FALSE(ReplayVerifiable(kFlagFinished | kFlagVirtualMemory));
  EXPECT_FALSE(ReplayVerifiable(kFlagFinished | kFlagCrashHazard));
  std::remove(path.c_str());
}

TEST(TraceReplay, BufferDropDuringRecordingDisqualifiesVerification) {
  // A mid-recording buffer drop (clustering reorganization, an explicit
  // cold restart between phases) empties the cache outside the page
  // stream; the finished header must say so.
  ocb::OcbParameters params;
  params.num_classes = 5;
  params.num_objects = 500;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(params);
  const std::string path = "test_trace_drop.vtrc";
  core::VoodbConfig cfg;
  cfg.system_class = core::SystemClass::kCentralized;
  cfg.buffer_pages = 64;
  cfg.trace_record = true;
  cfg.trace_path = path;
  {
    core::VoodbSystem sys(cfg, &base, nullptr, /*seed=*/4);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(4).Derive(1));
    sys.RunTransactions(gen, 30);
    sys.DropBuffer();
    sys.RunTransactions(gen, 30);
  }
  Reader reader(path);
  EXPECT_NE(reader.header().flags & kFlagBufferDrop, 0u);
  EXPECT_FALSE(ReplayVerifiable(reader.header().flags));
  std::remove(path.c_str());
}

TEST(TraceMrc, MatchesBufferManagerLruSimulationAtEverySize) {
  // A Zipf-skewed synthetic page stream with enough reuse structure to
  // exercise the Fenwick compaction, checked against real LRU buffers.
  desp::RandomStream rng(3);
  std::vector<uint64_t> pages;
  for (int i = 0; i < 30000; ++i) {
    pages.push_back(static_cast<uint64_t>(rng.Zipf(1200, 0.8)));
  }

  MrcAnalyzer analyzer;
  for (const uint64_t p : pages) analyzer.OnPage(p);
  const MrcResult mrc = analyzer.Finish();
  EXPECT_EQ(mrc.page_accesses, pages.size());

  for (const uint64_t capacity : {1ull, 2ull, 7ull, 32ull, 100ull, 375ull,
                                  1199ull, 1200ull, 5000ull}) {
    storage::BufferManager buffer(capacity,
                                  storage::ReplacementPolicy::kLru);
    std::vector<storage::PageIo> ios;
    for (const uint64_t p : pages) {
      ios.clear();
      buffer.AccessInto(p, false, ios);
    }
    EXPECT_EQ(mrc.HitsAt(capacity), buffer.stats().hits)
        << "capacity " << capacity;
    EXPECT_EQ(mrc.MissesAt(capacity), buffer.stats().misses)
        << "capacity " << capacity;
  }
  // The histogram accounts for every access: reuses + cold misses.
  uint64_t reuses = 0;
  for (size_t d = 1; d < mrc.reuse_histogram.size(); ++d) {
    reuses += mrc.reuse_histogram[d];
  }
  EXPECT_EQ(reuses + mrc.working_set_pages, mrc.page_accesses);
}

TEST(TraceWorkload, ReplaysRecordedTransactionsThroughTheSimulation) {
  ocb::OcbParameters params;
  params.num_classes = 8;
  params.num_objects = 1000;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(params);
  const std::string path = "test_trace_workload.vtrc";

  core::VoodbConfig record_cfg;
  record_cfg.system_class = core::SystemClass::kCentralized;
  record_cfg.buffer_pages = 100;
  record_cfg.trace_record = true;
  record_cfg.trace_path = path;
  core::PhaseMetrics recorded;
  {
    core::VoodbSystem sys(record_cfg, &base, nullptr, /*seed=*/9);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(9).Derive(1));
    recorded = sys.RunTransactions(gen, 120);
  }

  // Re-run the DES with workload_source=trace: the replay draws the
  // recorded transactions, so the phase metrics reproduce bit-exactly.
  core::VoodbConfig replay_cfg;
  replay_cfg.system_class = core::SystemClass::kCentralized;
  replay_cfg.buffer_pages = 100;
  replay_cfg.workload_source = core::WorkloadSourceKind::kTrace;
  replay_cfg.trace_path = path;
  {
    core::VoodbSystem sys(replay_cfg, &base, nullptr, /*seed=*/9);
    ocb::WorkloadGenerator unused(&base, desp::RandomStream(1234));
    const core::PhaseMetrics replayed = sys.RunTransactions(unused, 120);
    EXPECT_EQ(replayed.transactions, recorded.transactions);
    EXPECT_EQ(replayed.object_accesses, recorded.object_accesses);
    EXPECT_EQ(replayed.total_ios, recorded.total_ios);
    EXPECT_EQ(replayed.buffer_hits, recorded.buffer_hits);
    EXPECT_EQ(replayed.buffer_requests, recorded.buffer_requests);
  }

  // A different buffer size replays the same logical workload with a
  // different hit pattern — record once, sweep anywhere.
  replay_cfg.buffer_pages = 10;
  {
    core::VoodbSystem sys(replay_cfg, &base, nullptr, /*seed=*/9);
    ocb::WorkloadGenerator unused(&base, desp::RandomStream(1234));
    const core::PhaseMetrics replayed = sys.RunTransactions(unused, 120);
    EXPECT_EQ(replayed.object_accesses, recorded.object_accesses);
    EXPECT_LT(replayed.buffer_hits, recorded.buffer_hits);
  }
  std::remove(path.c_str());
}

TEST(TraceWorkload, WrapsAroundWhenReplayOutlivesTheRecording) {
  std::stringstream ss = BinaryStream();
  {
    Writer writer(&ss, SmallHeader());
    Recorder recorder(&writer);
    for (int t = 0; t < 3; ++t) {
      recorder.OnTxnBegin(
          static_cast<uint64_t>(ocb::TransactionKind::kSimpleTraversal));
      recorder.OnObject(static_cast<uint64_t>(t), false);
      recorder.OnTxnEnd();
    }
    recorder.Flush();
    writer.Finish(TraceCounters{});
  }
  TraceWorkload workload(&ss);
  for (int i = 0; i < 8; ++i) {
    const ocb::Transaction txn = workload.Next();
    ASSERT_EQ(txn.accesses.size(), 1u);
    EXPECT_EQ(txn.accesses[0].oid, static_cast<ocb::Oid>(i % 3));
    EXPECT_EQ(txn.root, static_cast<ocb::Oid>(i % 3));
  }
  EXPECT_EQ(workload.transactions_replayed(), 8u);
}

TEST(TraceWorkload, RejectsTracesWithoutTransactionRecords) {
  std::stringstream ss = BinaryStream();
  {
    Writer writer(&ss, SmallHeader());
    Recorder recorder(&writer);
    recorder.OnPage(1, false);
    recorder.Flush();
    writer.Finish(TraceCounters{});
  }
  EXPECT_THROW(TraceWorkload workload(&ss), util::Error);
}

// --- Format v2: per-user transaction markers --------------------------------

TEST(TraceFormat, TxnMarkersCarryUserIdsAndNormalizeOnRead) {
  std::stringstream ss = BinaryStream();
  {
    Writer writer(&ss, SmallHeader());
    Recorder recorder(&writer);
    recorder.OnTxnBegin(3);  // default user = 0 (serial recordings)
    recorder.OnTxnEnd();
    recorder.OnTxnBegin(5, /*user=*/41);
    recorder.OnObject(7, true);
    recorder.OnTxnEnd();
    recorder.OnTxnBegin(2, /*user=*/70000);  // ids beyond 16 bits survive
    recorder.OnTxnEnd();
    recorder.Flush();
    writer.Finish(TraceCounters{});
  }
  Reader reader(&ss);
  EXPECT_EQ(reader.header().version, kFormatVersion);
  std::vector<Record> records;
  Record r;
  while (reader.Next(r)) records.push_back(r);
  ASSERT_EQ(records.size(), 7u);
  // The reader unpacks (user << 8 | kind): id is always the bare kind.
  EXPECT_EQ(records[0].id, 3u);
  EXPECT_EQ(records[0].user, 0u);
  EXPECT_EQ(records[2].id, 5u);
  EXPECT_EQ(records[2].user, 41u);
  EXPECT_EQ(records[3].id, 7u);     // non-marker records keep raw ids
  EXPECT_EQ(records[3].user, 0u);   // ... and carry no user
  EXPECT_EQ(records[5].id, 2u);
  EXPECT_EQ(records[5].user, 70000u);
}

TEST(TraceFormat, ReaderStillAcceptsVersion1Traces) {
  // A v1 trace is byte-identical to a v2 trace whose markers all carry
  // user 0, except for the header's version field — craft one by
  // patching it.
  std::stringstream ss = BinaryStream();
  {
    Writer writer(&ss, SmallHeader());
    Recorder recorder(&writer);
    recorder.OnTxnBegin(4);
    recorder.OnObject(11, false);
    recorder.OnTxnEnd();
    recorder.Flush();
    writer.Finish(TraceCounters{});
  }
  std::string bytes = ss.str();
  const uint32_t v1 = 1;
  std::memcpy(&bytes[offsetof(Header, version)], &v1, sizeof(v1));
  std::stringstream patched = BinaryStream();
  patched.str(bytes);
  Reader reader(&patched);
  EXPECT_EQ(reader.header().version, 1u);
  std::vector<Record> records;
  Record r;
  while (reader.Next(r)) records.push_back(r);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, RecordKind::kTxnBegin);
  EXPECT_EQ(records[0].id, 4u);
  EXPECT_EQ(records[0].user, 0u);
  // An unsupported future version is still rejected.
  const uint32_t v99 = 99;
  std::memcpy(&bytes[offsetof(Header, version)], &v99, sizeof(v99));
  std::stringstream future = BinaryStream();
  future.str(bytes);
  EXPECT_THROW(Reader bad(&future), util::Error);
}

TEST(TraceFormat, ConcurrentRecordingAttributesMarkersToUsers) {
  // A multi-user DES run interleaves markers; v2 makes each one carry
  // its issuing user so the interleaving is recoverable.
  core::VoodbConfig cfg;
  cfg.page_size = 1024;
  cfg.buffer_pages = 16;
  cfg.num_users = 3;
  cfg.multiprogramming_level = 3;
  const std::string path = "test_trace_users.vtrc";
  cfg.trace_record = true;
  cfg.trace_path = path;
  ocb::OcbParameters wl;
  wl.num_classes = 8;
  wl.num_objects = 200;
  wl.max_refs_per_class = 3;
  wl.base_instance_size = 50;
  wl.seed = 5;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  {
    core::VoodbSystem sys(cfg, &base, nullptr, /*seed=*/21);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(21).Derive(1));
    sys.RunTransactions(gen, 30);
    sys.FinishTrace();
  }
  Reader reader(path);
  std::vector<uint32_t> users_seen;
  Record r;
  while (reader.Next(r)) {
    if (r.kind == RecordKind::kTxnBegin) users_seen.push_back(r.user);
  }
  ASSERT_EQ(users_seen.size(), 30u);
  // All three users issued transactions, ids within [0, num_users).
  std::set<uint32_t> distinct(users_seen.begin(), users_seen.end());
  EXPECT_EQ(distinct.size(), 3u);
  for (const uint32_t user : users_seen) EXPECT_LT(user, 3u);
  std::remove(path.c_str());
}

// --- Format v3: abort markers -----------------------------------------------

TEST(TraceFormat, TxnAbortMarkersRoundTripAndReplayKeepsCommittedAttempt) {
  std::stringstream ss = BinaryStream();
  {
    Writer writer(&ss, SmallHeader());
    Recorder recorder(&writer);
    // One logical transaction, restarted once by concurrency control:
    // the first attempt touches {10, 11}, aborts, and the retry that
    // eventually commits touches {20, 21, 22}.
    recorder.OnTxnBegin(
        static_cast<uint64_t>(ocb::TransactionKind::kSimpleTraversal),
        /*user=*/7);
    recorder.OnObject(10, true);
    recorder.OnObject(11, false);
    recorder.OnTxnAbort();
    recorder.OnObject(20, false);
    recorder.OnObject(21, true);
    recorder.OnObject(22, false);
    recorder.OnTxnEnd();
    recorder.Flush();
    writer.Finish(TraceCounters{});
  }
  const std::string bytes = ss.str();

  {  // Reader pass: the marker survives the round trip, normalized.
    std::stringstream in = BinaryStream();
    in.str(bytes);
    Reader reader(&in);
    EXPECT_EQ(reader.header().version, kFormatVersion);
    std::vector<Record> records;
    Record r;
    while (reader.Next(r)) records.push_back(r);
    ASSERT_EQ(records.size(), 8u);
    EXPECT_EQ(records[0].kind, RecordKind::kTxnBegin);
    EXPECT_EQ(records[0].user, 7u);
    EXPECT_EQ(records[3].kind, RecordKind::kTxnAbort);
    EXPECT_EQ(records[3].id, 0u);    // markers carry no payload ...
    EXPECT_EQ(records[3].user, 0u);  // ... and no user field
    EXPECT_EQ(records[7].kind, RecordKind::kTxnEnd);
  }

  {  // Replay pass: only the committed attempt's accesses survive.
    std::stringstream in = BinaryStream();
    in.str(bytes);
    TraceWorkload workload(&in);
    const ocb::Transaction txn = workload.Next();
    ASSERT_EQ(txn.accesses.size(), 3u);
    EXPECT_EQ(txn.root, 20u);
    EXPECT_EQ(txn.accesses[0].oid, 20u);
    EXPECT_FALSE(txn.accesses[0].is_write);
    EXPECT_EQ(txn.accesses[1].oid, 21u);
    EXPECT_TRUE(txn.accesses[1].is_write);
    EXPECT_EQ(txn.accesses[2].oid, 22u);
    EXPECT_EQ(workload.transactions_replayed(), 1u);
  }
}

}  // namespace
}  // namespace voodb::trace
