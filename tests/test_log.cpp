// Unit + integration tests for the durability subsystem (src/log/):
// plan-codec round trips, the segmented group-commit log, batch-boundary
// checkpoints, and the crash-point recovery matrix — kill after the batch
// record, kill before the commit record, torn tail, mid-checkpoint crash —
// each asserting recovered state equals an uninterrupted run's.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "core/engine.hpp"
#include "harness/runner.hpp"
#include "log/checkpoint.hpp"
#include "log/log_writer.hpp"
#include "log/plan_codec.hpp"
#include "log/recovery.hpp"
#include "protocols/iface.hpp"
#include "protocols/session.hpp"
#include "test_util.hpp"
#include "workload/bank.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

namespace fs = std::filesystem;

using testutil::temp_dir;

wl::ycsb_config small_ycsb() {
  wl::ycsb_config w;
  w.table_size = 1024;
  w.partitions = 4;
  w.zipf_theta = 0.4;
  return w;
}

common::config small_engine_cfg() {
  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 2;
  cfg.partitions = 4;
  return cfg;
}

/// State hash after running the first `batches` batches of the stream
/// (seed/batch_size fixed) on a fresh database — the uninterrupted
/// reference every recovery scenario compares against.
std::uint64_t reference_hash(std::uint32_t batches, std::uint32_t batch_size,
                             std::uint64_t seed) {
  wl::ycsb w(small_ycsb());
  storage::database db;
  w.load(db);
  core::quecc_engine eng(db, small_engine_cfg());
  common::rng r(seed);
  common::run_metrics m;
  for (std::uint32_t i = 0; i < batches; ++i) {
    txn::batch b = w.make_batch(r, batch_size, i);
    eng.run_batch(b, m);
  }
  return db.state_hash();
}

// --- plan codec -------------------------------------------------------------

TEST(PlanCodec, RoundTripPreservesEveryPlanField) {
  wl::ycsb_config wcfg = small_ycsb();
  wcfg.dependent_ops = true;  // exercise input_mask / output_slot encoding
  wcfg.abort_ratio = 0.2;     // and abortable fragments
  wl::ycsb w(wcfg);
  common::rng r(3);
  txn::batch b = w.make_batch(r, 64, /*batch_id=*/9);

  std::vector<std::byte> buf;
  log::encode_batch(b, buf);
  txn::batch d = log::decode_batch(buf, log::resolver_for(w));

  ASSERT_EQ(d.id(), b.id());
  ASSERT_EQ(d.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const txn::txn_desc& x = b.at(i);
    const txn::txn_desc& y = d.at(i);
    EXPECT_EQ(y.seq, x.seq);
    EXPECT_EQ(y.id, x.id);
    EXPECT_EQ(y.proc, x.proc);  // resolver rebinds to the same instance
    EXPECT_EQ(y.args, x.args);
    ASSERT_EQ(y.frags.size(), x.frags.size());
    for (std::size_t f = 0; f < x.frags.size(); ++f) {
      const txn::fragment& a = x.frags[f];
      const txn::fragment& c = y.frags[f];
      EXPECT_EQ(c.table, a.table);
      EXPECT_EQ(c.part, a.part);
      EXPECT_EQ(c.key, a.key);
      EXPECT_EQ(c.kind, a.kind);
      EXPECT_EQ(c.abortable, a.abortable);
      EXPECT_EQ(c.idx, a.idx);
      EXPECT_EQ(c.logic, a.logic);
      EXPECT_EQ(c.output_slot, a.output_slot);
      EXPECT_EQ(c.input_mask, a.input_mask);
      EXPECT_EQ(c.aux, a.aux);
    }
  }

  // The decoded plan is executable: replaying both serially from identical
  // databases produces identical state.
  auto db1 = testutil::make_loaded_db(w);
  auto db2 = db1->clone();
  testutil::replay_in_seq_order(*db1, b);
  testutil::replay_in_seq_order(*db2, d);
  EXPECT_EQ(db1->state_hash(), db2->state_hash());
}

TEST(PlanCodec, UnknownProcedureAndTruncationThrow) {
  wl::ycsb w(small_ycsb());
  common::rng r(1);
  txn::batch b = w.make_batch(r, 4);
  std::vector<std::byte> buf;
  log::encode_batch(b, buf);

  const log::proc_resolver nobody = [](const std::string&) {
    return static_cast<const txn::procedure*>(nullptr);
  };
  EXPECT_THROW(log::decode_batch(buf, nobody), log::codec_error);

  std::span<const std::byte> chopped(buf.data(), buf.size() - 5);
  EXPECT_THROW(log::decode_batch(chopped, log::resolver_for(w)),
               log::codec_error);
}

TEST(PlanCodec, CommitInfoRoundTrip) {
  log::commit_info c;
  c.batch_id = 7;
  c.txn_count = 128;
  c.committed = 120;
  c.aborted = 8;
  c.stream_pos = 9001;
  c.state_hash = 0xabcdef0123456789ull;
  std::vector<std::byte> buf;
  log::encode_commit(c, buf);
  const log::commit_info d = log::decode_commit(buf);
  EXPECT_EQ(d.batch_id, c.batch_id);
  EXPECT_EQ(d.txn_count, c.txn_count);
  EXPECT_EQ(d.committed, c.committed);
  EXPECT_EQ(d.aborted, c.aborted);
  EXPECT_EQ(d.stream_pos, c.stream_pos);
  EXPECT_EQ(d.state_hash, c.state_hash);
}

// --- log writer -------------------------------------------------------------

std::vector<std::byte> bytes_of(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

TEST(LogWriter, AppendThenScanRoundTrips) {
  temp_dir dir;
  {
    log::log_writer w(dir.path, {});
    w.append(log::record_type::batch, bytes_of("plan-0"));
    w.append(log::record_type::commit, bytes_of("commit-0"));
    w.append(log::record_type::batch, bytes_of("plan-1"));
  }  // destructor: final fsync + close
  std::vector<log::scanned_record> recs;
  EXPECT_TRUE(
      log::scan_segment(dir.path + "/" + log::segment_name(0), recs));
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].type, log::record_type::batch);
  EXPECT_EQ(recs[0].payload, bytes_of("plan-0"));
  EXPECT_EQ(recs[1].type, log::record_type::commit);
  EXPECT_EQ(recs[1].payload, bytes_of("commit-0"));
  EXPECT_EQ(recs[2].payload, bytes_of("plan-1"));
}

TEST(LogWriter, TornTailIsDetectedAndDropped) {
  temp_dir dir;
  {
    log::log_writer w(dir.path, {});
    w.append(log::record_type::batch, bytes_of("intact-record"));
    w.append(log::record_type::commit, bytes_of("gets-torn"));
  }
  const std::string seg = dir.path + "/" + log::segment_name(0);
  fs::resize_file(seg, fs::file_size(seg) - 3);  // tear the last record

  std::vector<log::scanned_record> recs;
  EXPECT_FALSE(log::scan_segment(seg, recs));  // torn tail reported...
  ASSERT_EQ(recs.size(), 1u);                  // ...intact prefix kept
  EXPECT_EQ(recs[0].payload, bytes_of("intact-record"));
}

TEST(LogWriter, RefusesDirectoryWithExistingSegments) {
  temp_dir dir;
  { log::log_writer w(dir.path, {}); }
  EXPECT_THROW(log::log_writer(dir.path, {}), std::runtime_error);
}

TEST(LogWriter, GroupCommitCoalescesFsyncs) {
  temp_dir dir;
  log::writer_options opts;
  opts.group_commit_micros = 60'000'000;  // no timer tick during the test
  log::log_writer w(dir.path, opts);
  log::log_writer::lsn_t last = 0;
  for (int i = 0; i < 100; ++i) {
    last = w.append(log::record_type::batch, bytes_of("r"));
  }
  EXPECT_EQ(w.durable_lsn(), 0u);  // nothing synced yet: no ack requested
  w.wait_durable(last);
  EXPECT_GE(w.durable_lsn(), last);
  // All 100 appends shared one group-commit fsync.
  EXPECT_EQ(w.fsyncs(), 1u);
}

TEST(LogWriter, SizeRotationSplitsSegments) {
  temp_dir dir;
  log::writer_options opts;
  opts.segment_bytes = 256;  // force frequent rotation
  {
    log::log_writer w(dir.path, opts);
    for (int i = 0; i < 20; ++i) {
      w.append(log::record_type::batch, bytes_of("padding-padding-padding"));
    }
    EXPECT_GT(w.segment_index(), 0u);
  }
  const auto segs = log::list_segments(dir.path, 0);
  ASSERT_GT(segs.size(), 1u);
  // Scanning all segments in order recovers every record.
  std::vector<log::scanned_record> recs;
  for (std::uint32_t n : segs) {
    EXPECT_TRUE(
        log::scan_segment(dir.path + "/" + log::segment_name(n), recs));
  }
  EXPECT_EQ(recs.size(), 20u);
}

// --- checkpoints ------------------------------------------------------------

TEST(Checkpoint, RestoreDrivesTableToExactSnapshotContents) {
  // Source database: keys 0..9. Target before restore: keys 5..14 with
  // different payloads. Restore must erase 10..14, overwrite 5..9, and
  // re-insert 0..4.
  const storage::schema s({{"A", storage::col_type::u64, 8}});
  storage::database src;
  auto& t1 = src.create_table("t", s, 32);
  std::vector<std::byte> p(8);
  for (key_t k = 0; k < 10; ++k) {
    storage::write_u64(std::span<std::byte>(p), 0, k * 3 + 1);
    t1.insert(k, p);
  }

  temp_dir dir;
  log::checkpointer ck(dir.path);
  const auto meta = ck.take(src, /*batch_id=*/4, /*stream_pos=*/1234,
                            /*segment_base=*/1);
  EXPECT_EQ(meta.state_hash, src.state_hash());

  storage::database dst;
  auto& t2 = dst.create_table("t", s, 32);
  for (key_t k = 5; k < 15; ++k) {
    storage::write_u64(std::span<std::byte>(p), 0, 777);
    t2.insert(k, p);
  }
  const auto restored =
      log::restore_checkpoint(dir.path + "/" + meta.file, dst);
  EXPECT_EQ(restored.batch_id, 4u);
  EXPECT_EQ(restored.stream_pos, 1234u);
  EXPECT_EQ(dst.state_hash(), src.state_hash());

  // And the manifest round-trips the same metadata.
  const auto manifest = log::read_manifest(dir.path);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->batch_id, 4u);
  EXPECT_EQ(manifest->stream_pos, 1234u);
  EXPECT_EQ(manifest->state_hash, src.state_hash());
  EXPECT_EQ(manifest->segment_base, 1u);
  EXPECT_EQ(manifest->file, meta.file);
}

// Sharded storage (per-partition arenas): the v2 checkpoint records rows
// per arena, so restore must put every row back into the arena it came
// from — the database state hash cannot catch misrouting (it ignores
// shard layout by design), but per-shard live counts do.
TEST(Checkpoint, ShardedRestoreRebuildsEachArena) {
  const storage::schema s({{"A", storage::col_type::u64, 8}});
  storage::database src;
  auto& t1 = src.create_table("t", s, 64, /*shards=*/4);
  std::vector<std::byte> p(8);
  for (key_t k = 0; k < 20; ++k) {
    storage::write_u64(std::span<std::byte>(p), 0, k * 3 + 1);
    t1.insert(k, p, static_cast<part_id_t>(k % 4));
  }

  temp_dir dir;
  log::checkpointer ck(dir.path);
  const auto meta = ck.take(src, 1, 1, 1);

  // Target starts with different contents in the wrong arenas.
  storage::database dst;
  auto& t2 = dst.create_table("t", s, 64, 4);
  for (key_t k = 30; k < 40; ++k) {
    storage::write_u64(std::span<std::byte>(p), 0, 777);
    t2.insert(k, p, static_cast<part_id_t>(k % 4));
  }
  log::restore_checkpoint(dir.path + "/" + meta.file, dst);
  EXPECT_EQ(dst.state_hash(), src.state_hash());
  for (part_id_t sh = 0; sh < 4; ++sh) {
    EXPECT_EQ(t2.live_rows_in(sh), t1.live_rows_in(sh));
  }

  // A shard-count mismatch (partition config changed between the logging
  // run and recovery) must fail loudly, not scatter rows across arenas.
  storage::database wrong;
  wrong.create_table("t", s, 64, /*shards=*/2);
  EXPECT_THROW(log::restore_checkpoint(dir.path + "/" + meta.file, wrong),
               std::runtime_error);
}

TEST(Checkpoint, CorruptFileFailsItsCrc) {
  const storage::schema s({{"A", storage::col_type::u64, 8}});
  storage::database src;
  auto& t = src.create_table("t", s, 8);
  std::vector<std::byte> p(8);
  t.insert(1, p);

  temp_dir dir;
  log::checkpointer ck(dir.path);
  const auto meta = ck.take(src, 0, 1, 1);
  const std::string path = dir.path + "/" + meta.file;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\x5a');  // flip a byte inside the table image
  }
  storage::database dst;
  dst.create_table("t", s, 8);
  EXPECT_THROW(log::restore_checkpoint(path, dst), std::runtime_error);
}

// --- crash-point recovery matrix -------------------------------------------
//
// Each scenario builds a log exactly as a crashed process would have left
// it, recovers into a fresh database, and asserts state-hash equality with
// an uninterrupted run over the same deterministic stream.

constexpr std::uint32_t kBatches = 4;
constexpr std::uint32_t kBatchSize = 96;
constexpr std::uint64_t kSeed = 11;

/// Hand-build a log: batch records for batches [0, produced), commit
/// records only for [0, committed). `committed < produced` is the "crash
/// after batch record, before commit record" window.
void build_log(const std::string& dir, std::uint32_t produced,
               std::uint32_t committed) {
  wl::ycsb w(small_ycsb());
  common::rng r(kSeed);
  log::log_writer lw(dir, {});
  std::uint64_t stream_pos = 0;
  for (std::uint32_t i = 0; i < produced; ++i) {
    txn::batch b = w.make_batch(r, kBatchSize, i);
    std::vector<std::byte> plan;
    log::encode_batch(b, plan);
    lw.append(log::record_type::batch, plan);
    stream_pos += b.size();
    if (i < committed) {
      log::commit_info c;
      c.batch_id = i;
      c.txn_count = static_cast<std::uint32_t>(b.size());
      c.committed = c.txn_count;
      c.stream_pos = stream_pos;
      std::vector<std::byte> commit;
      log::encode_commit(c, commit);
      lw.append(log::record_type::commit, commit);
    }
  }
  lw.wait_durable(lw.appended_lsn());
}

struct recovered {
  log::recovery_result res;
  std::uint64_t hash;
};

recovered recover_fresh(const std::string& dir) {
  wl::ycsb w(small_ycsb());
  storage::database db;
  w.load(db);
  core::quecc_engine eng(db, small_engine_cfg());
  recovered out{log::recover(dir, db, eng, log::resolver_for(w)),
                db.state_hash()};
  EXPECT_EQ(out.res.state_hash, out.hash);
  return out;
}

// Crash matrix, sharded edition: checkpoint a sharded (4-arena) database
// mid-run, "kill", recover into a freshly loaded database, and require
// per-partition allocation counts — not just the state hash — to equal
// the uninterrupted run's: restore routes every row to its recorded
// arena and replay re-executes the tail deterministically.
TEST(Recovery, ShardedRunRecoversPerPartitionArenaCounts) {
  temp_dir dir;
  wl::ycsb w(small_ycsb());

  // Uninterrupted reference run, keeping the database for shard counts.
  storage::database ref;
  w.load(ref);
  {
    core::quecc_engine eng(ref, small_engine_cfg());
    common::rng r(kSeed);
    common::run_metrics m;
    for (std::uint32_t i = 0; i < 8; ++i) {
      txn::batch b = w.make_batch(r, kBatchSize, i);
      eng.run_batch(b, m);
    }
  }

  // Durable run of the same stream with a mid-run checkpoint, then "kill".
  {
    wl::ycsb w2(small_ycsb());
    storage::database db;
    w2.load(db);
    common::config cfg = small_engine_cfg();
    cfg.durable = true;
    cfg.log_dir = dir.path;
    cfg.checkpoint_interval_batches = 3;
    core::quecc_engine eng(db, cfg);
    common::rng r(kSeed);
    common::run_metrics m;
    for (std::uint32_t i = 0; i < 8; ++i) {
      txn::batch b = w2.make_batch(r, kBatchSize, i);
      eng.run_batch(b, m);
      eng.sync_durable();
    }
  }

  // Recover into a fresh database; the restore path goes through the
  // sharded checkpoint (batches 0..5) + replay (6, 7).
  wl::ycsb w3(small_ycsb());
  storage::database rec;
  w3.load(rec);
  core::quecc_engine eng(rec, small_engine_cfg());
  const auto res = log::recover(dir.path, rec, eng, log::resolver_for(w3));
  EXPECT_TRUE(res.checkpoint_loaded);
  EXPECT_EQ(rec.state_hash(), ref.state_hash());

  const auto& rt = rec.at(0);
  const auto& ft = ref.at(0);
  ASSERT_EQ(rt.shard_count(), ft.shard_count());
  ASSERT_EQ(rt.shard_count(), 4u);
  for (part_id_t s = 0; s < rt.shard_count(); ++s) {
    EXPECT_EQ(rt.live_rows_in(s), ft.live_rows_in(s)) << "shard " << s;
    EXPECT_EQ(rt.allocated_rows_in(s), ft.allocated_rows_in(s))
        << "shard " << s;
  }
}

TEST(Recovery, ReplaysExactlyTheCommittedPrefix) {
  temp_dir dir;
  build_log(dir.path, /*produced=*/kBatches, /*committed=*/kBatches);
  const auto rec = recover_fresh(dir.path);
  EXPECT_EQ(rec.res.batches_replayed, kBatches);
  EXPECT_EQ(rec.res.batches_skipped, 0u);
  EXPECT_FALSE(rec.res.torn_tail);
  EXPECT_EQ(rec.res.txns_applied, std::uint64_t{kBatches} * kBatchSize);
  EXPECT_EQ(rec.res.next_batch_id, kBatches);
  EXPECT_EQ(rec.hash, reference_hash(kBatches, kBatchSize, kSeed));
}

// Crash window 1: after the batch record, before the commit record. The
// batch was never acknowledged — recovery must skip it, landing on the
// state of the committed prefix.
TEST(Recovery, SkipsBatchWithoutCommitRecord) {
  temp_dir dir;
  build_log(dir.path, /*produced=*/kBatches, /*committed=*/kBatches - 1);
  const auto rec = recover_fresh(dir.path);
  EXPECT_EQ(rec.res.batches_replayed, kBatches - 1);
  EXPECT_EQ(rec.res.batches_skipped, 1u);
  EXPECT_EQ(rec.res.txns_applied,
            std::uint64_t{kBatches - 1} * kBatchSize);
  EXPECT_EQ(rec.hash, reference_hash(kBatches - 1, kBatchSize, kSeed));
}

// Crash window 2: mid-write — the log ends in a truncated record. The torn
// tail is dropped; everything intact before it recovers.
TEST(Recovery, TornTailDroppedDuringRecovery) {
  temp_dir dir;
  build_log(dir.path, kBatches, kBatches);
  const std::string seg = dir.path + "/" + log::segment_name(0);
  // Tear into the final commit record: batch kBatches-1 loses its commit.
  fs::resize_file(seg, fs::file_size(seg) - 8);
  const auto rec = recover_fresh(dir.path);
  EXPECT_TRUE(rec.res.torn_tail);
  EXPECT_EQ(rec.res.batches_replayed, kBatches - 1);
  EXPECT_EQ(rec.res.batches_skipped, 1u);
  EXPECT_EQ(rec.hash, reference_hash(kBatches - 1, kBatchSize, kSeed));
}

// Crash window 3: the kill lands inside open_segment (startup of a fresh
// segment at rotation), leaving a segment file shorter than its 8-byte
// header. That is a torn tail — everything before it must still recover,
// and recovery must not throw.
TEST(Recovery, PartialSegmentHeaderIsATornTail) {
  temp_dir dir;
  build_log(dir.path, kBatches, kBatches);
  {  // a 3-byte segment-1: open_segment died mid-header-write
    std::ofstream stub(dir.path + "/" + log::segment_name(1),
                       std::ios::binary);
    stub << "QLO";
  }
  const auto rec = recover_fresh(dir.path);
  EXPECT_TRUE(rec.res.torn_tail);
  EXPECT_EQ(rec.res.batches_replayed, kBatches);
  EXPECT_EQ(rec.hash, reference_hash(kBatches, kBatchSize, kSeed));
}

// Resuming after recovery completes the stream: recovered prefix + the
// regenerated remainder equals an uninterrupted full run. This is the
// kill -9 contract queccctl --recover implements.
TEST(Recovery, ResumeAfterPartialRecoveryMatchesUninterruptedRun) {
  temp_dir dir;
  build_log(dir.path, kBatches, /*committed=*/2);

  wl::ycsb w(small_ycsb());
  storage::database db;
  w.load(db);
  core::quecc_engine eng(db, small_engine_cfg());
  const auto res = log::recover(dir.path, db, eng, log::resolver_for(w));
  EXPECT_EQ(res.batches_replayed, 2u);
  EXPECT_EQ(res.batches_skipped, 2u);

  // Regenerate the stream, skip what recovery applied, run the rest.
  common::rng r(kSeed);
  for (std::uint64_t i = 0; i < res.txns_applied; ++i) (void)w.make_txn(r);
  common::run_metrics m;
  std::uint32_t id = res.next_batch_id;
  for (std::uint64_t done = res.txns_applied;
       done < std::uint64_t{kBatches} * kBatchSize; done += kBatchSize) {
    txn::batch b = w.make_batch(r, kBatchSize, id++);
    eng.run_batch(b, m);
  }
  EXPECT_EQ(db.state_hash(), reference_hash(kBatches, kBatchSize, kSeed));
}

// --- end-to-end through the durable engine ----------------------------------

TEST(Recovery, DurableClosedLoopRunRecoversToIdenticalHash) {
  temp_dir dir;
  wl::ycsb w(small_ycsb());
  std::uint64_t live_hash = 0;
  {
    storage::database db;
    w.load(db);
    common::config cfg = small_engine_cfg();
    cfg.durable = true;
    cfg.log_dir = dir.path;
    cfg.checkpoint_interval_batches = 3;  // exercise truncation mid-run
    cfg.log_verify_hash = true;           // recovery verifies every batch
    core::quecc_engine eng(db, cfg);

    harness::run_options opts;
    opts.batches = 8;
    opts.batch_size = kBatchSize;
    opts.seed = kSeed;
    opts.durability = true;
    const auto res = harness::run_workload(eng, w, db, opts);
    live_hash = res.final_state_hash;
    EXPECT_EQ(res.metrics.committed + res.metrics.aborted,
              opts.total_txns());
  }
  // Checkpoints at batches 2 and 5 truncated segments 0 and 1.
  EXPECT_EQ(log::list_segments(dir.path, 0).front(), 2u);

  const auto rec = recover_fresh(dir.path);
  EXPECT_TRUE(rec.res.checkpoint_loaded);
  EXPECT_EQ(rec.res.checkpoint_batch, 5u);
  EXPECT_EQ(rec.res.batches_replayed, 2u);  // 6 and 7
  EXPECT_EQ(rec.res.txns_applied, 8u * kBatchSize);
  EXPECT_EQ(rec.hash, live_hash);
}

// A garbage half-written checkpoint from a crashed attempt (tmp never
// renamed, or a renamed file the manifest never adopted) must not derail
// recovery: the manifest still names the last good checkpoint.
TEST(Recovery, MidCheckpointCrashLeftoversAreIgnored) {
  temp_dir dir;
  wl::ycsb w(small_ycsb());
  std::uint64_t live_hash = 0;
  {
    storage::database db;
    w.load(db);
    common::config cfg = small_engine_cfg();
    cfg.durable = true;
    cfg.log_dir = dir.path;
    cfg.checkpoint_interval_batches = 2;
    core::quecc_engine eng(db, cfg);
    harness::run_options opts;
    opts.batches = 5;
    opts.batch_size = kBatchSize;
    opts.seed = kSeed;
    opts.durability = true;
    live_hash = harness::run_workload(eng, w, db, opts).final_state_hash;
  }
  // Simulate a crash mid-checkpoint: a torn tmp and a garbage snapshot the
  // manifest does not reference.
  std::ofstream(dir.path + "/checkpoint-99.qck.tmp") << "half-written";
  std::ofstream(dir.path + "/checkpoint-99.qck") << "garbage";

  const auto rec = recover_fresh(dir.path);
  EXPECT_TRUE(rec.res.checkpoint_loaded);
  EXPECT_EQ(rec.res.checkpoint_batch, 3u);  // the last *published* one
  EXPECT_EQ(rec.hash, live_hash);
}

// Open-loop (session) path: Poisson arrivals through proto::session with a
// durable engine — tickets resolve only after the commit record is synced
// — and the log recovers to the identical final hash. Batch boundaries
// differ from any closed-loop run (deadline-formed), which recovery must
// not care about.
TEST(Recovery, DurableOpenLoopSessionRunRecoversToIdenticalHash) {
  temp_dir dir;
  wl::ycsb w(small_ycsb());
  std::uint64_t live_hash = 0;
  {
    storage::database db;
    w.load(db);
    common::config cfg = small_engine_cfg();
    cfg.durable = true;
    cfg.log_dir = dir.path;
    cfg.log_verify_hash = true;
    core::quecc_engine eng(db, cfg);

    harness::run_options opts;
    opts.mode = harness::arrival_mode::open_loop;
    opts.batches = 3;
    opts.batch_size = 64;
    opts.seed = kSeed;
    opts.offered_load_tps = 40'000;
    opts.batch_deadline_micros = 500;
    opts.durability = true;
    const auto res = harness::run_workload(eng, w, db, opts);
    live_hash = res.final_state_hash;
    EXPECT_EQ(res.metrics.committed + res.metrics.aborted,
              opts.total_txns());
  }
  const auto rec = recover_fresh(dir.path);
  EXPECT_EQ(rec.res.txns_applied, 3u * 64u);
  EXPECT_EQ(rec.res.batches_skipped, 0u);
  EXPECT_EQ(rec.hash, live_hash);
}

// Durable ticket acks: by the time wait() returns, the engine's log must
// report the commit record durable (ticket resolution happens after
// sync_durable in the session's completer).
TEST(Session, TicketResolvesOnlyAfterCommitRecordIsDurable) {
  temp_dir dir;
  wl::ycsb w(small_ycsb());
  storage::database db;
  w.load(db);
  common::config cfg = small_engine_cfg();
  cfg.durable = true;
  cfg.log_dir = dir.path;
  cfg.batch_deadline_micros = 500;
  core::quecc_engine eng(db, cfg);
  {
    proto::session s(eng, cfg);
    common::rng r(2);
    auto t = s.submit(w.make_txn(r));
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(t.wait().status, txn::txn_status::committed);
    ASSERT_NE(eng.wal(), nullptr);
    EXPECT_GE(eng.wal()->durable_lsn(), eng.wal()->appended_lsn());
    s.close();
  }
}

// Bank workload end-to-end: aborts (insufficient balance) replay
// deterministically and the conserved-total invariant survives recovery.
TEST(Recovery, BankAbortsReplayDeterministically) {
  temp_dir dir;
  wl::bank_config bcfg;
  bcfg.accounts = 512;
  wl::bank w(bcfg);
  std::uint64_t live_hash = 0;
  {
    storage::database db;
    w.load(db);
    common::config cfg = small_engine_cfg();
    cfg.durable = true;
    cfg.log_dir = dir.path;
    cfg.log_verify_hash = true;
    core::quecc_engine eng(db, cfg);
    harness::run_options opts;
    opts.batches = 4;
    opts.batch_size = 128;
    opts.seed = 23;
    opts.durability = true;
    const auto res = harness::run_workload(eng, w, db, opts);
    live_hash = res.final_state_hash;
    EXPECT_GT(res.metrics.aborted, 0u);  // the scenario needs real aborts
  }
  wl::bank w2(bcfg);
  storage::database db;
  w2.load(db);
  core::quecc_engine eng(db, small_engine_cfg());
  const auto res = log::recover(dir.path, db, eng, log::resolver_for(w2));
  EXPECT_EQ(res.state_hash, live_hash);
  EXPECT_EQ(w2.total_balance(db), bcfg.accounts * bcfg.initial_balance);
}

// --- pipelined durability ---------------------------------------------------

/// Every commit record in `dir`, in physical append order across segments.
std::vector<log::commit_info> scan_commits(const std::string& dir) {
  std::vector<log::scanned_record> records;
  for (std::uint32_t n : log::list_segments(dir, 0)) {
    log::scan_segment(dir + "/" + log::segment_name(n), records);
  }
  std::vector<log::commit_info> commits;
  for (const auto& rec : records) {
    if (rec.type == log::record_type::commit) {
      commits.push_back(log::decode_commit(rec.payload));
    }
  }
  return commits;
}

TEST(PipelinedLog, CommitRecordsRetainBatchOrderAcrossOverlappingSlots) {
  // At depth >= 2 batch records of later batches interleave between
  // earlier batches' commit records, but the commit records themselves —
  // appended in the epilogue — must stay in batch-id order with a monotone
  // stream position: recovery's "committed prefix" notion depends on it.
  // This must hold with the third pipeline stage both off (commit records
  // appended by the drain caller) and on (appended by the epilogue worker
  // while the group-commit fsync of batch i overlaps batch i+1's exec).
  for (const bool stage3 : {false, true}) {
    temp_dir dir;
    wl::ycsb w(small_ycsb());
    storage::database db;
    w.load(db);
    common::config cfg = small_engine_cfg();
    cfg.pipeline_depth = 3;
    cfg.async_epilogue = stage3;
    cfg.durable = true;
    cfg.log_dir = dir.path;
    {
      core::quecc_engine eng(db, cfg);
      common::rng r(kSeed);
      common::run_metrics m;
      std::deque<txn::batch> inflight;
      for (std::uint32_t i = 0; i < 8; ++i) {
        inflight.push_back(w.make_batch(r, kBatchSize, i));
        eng.submit_batch(inflight.back(), m);
      }
      while (eng.drain_batch()) {
      }
      eng.sync_durable();
    }
    const auto commits = scan_commits(dir.path);
    ASSERT_EQ(commits.size(), 8u);
    for (std::uint32_t i = 0; i < commits.size(); ++i) {
      EXPECT_EQ(commits[i].batch_id, i) << "stage3=" << stage3;
      EXPECT_EQ(commits[i].stream_pos, std::uint64_t{i + 1} * kBatchSize)
          << "stage3=" << stage3;
    }
  }
}

TEST(PipelinedLog, ThreeStageDurableRunRecoversToLockstepHash) {
  // Depth-3 with the async epilogue: group-commit fsyncs of batch i run
  // concurrently with batch i+1's execution, and checkpoints still land at
  // the quiescent point. Recovery must reproduce the lockstep hash.
  temp_dir dir;
  wl::ycsb w(small_ycsb());
  storage::database db;
  w.load(db);
  common::config cfg = small_engine_cfg();
  cfg.pipeline_depth = 3;
  cfg.async_epilogue = true;
  cfg.durable = true;
  cfg.log_dir = dir.path;
  cfg.checkpoint_interval_batches = 3;
  cfg.log_verify_hash = true;
  cfg.group_commit_micros = 500;  // wide window: fsync waits really overlap
  {
    core::quecc_engine eng(db, cfg);
    harness::run_options opts;
    opts.batches = 8;
    opts.batch_size = kBatchSize;
    opts.seed = kSeed;
    opts.durability = true;
    const auto res = harness::run_workload(eng, w, db, opts);
    EXPECT_EQ(res.final_state_hash, reference_hash(8, kBatchSize, kSeed));
  }
  const auto rec = recover_fresh(dir.path);
  EXPECT_TRUE(rec.res.checkpoint_loaded);
  EXPECT_EQ(rec.res.txns_applied, 8u * kBatchSize);
  EXPECT_EQ(rec.hash, reference_hash(8, kBatchSize, kSeed));
}

TEST(PipelinedLog, PipelinedDurableRunRecoversToLockstepHash) {
  // Depth-2 durable run (checkpoints mid-pipeline included) must recover
  // to exactly the hash of an uninterrupted lockstep run.
  temp_dir dir;
  wl::ycsb w(small_ycsb());
  storage::database db;
  w.load(db);
  common::config cfg = small_engine_cfg();
  cfg.pipeline_depth = 2;
  cfg.durable = true;
  cfg.log_dir = dir.path;
  cfg.checkpoint_interval_batches = 3;
  cfg.log_verify_hash = true;
  {
    core::quecc_engine eng(db, cfg);
    harness::run_options opts;
    opts.batches = 8;
    opts.batch_size = kBatchSize;
    opts.seed = kSeed;
    opts.durability = true;
    const auto res = harness::run_workload(eng, w, db, opts);
    EXPECT_EQ(res.final_state_hash, reference_hash(8, kBatchSize, kSeed));
  }
  const auto rec = recover_fresh(dir.path);
  EXPECT_TRUE(rec.res.checkpoint_loaded);
  EXPECT_EQ(rec.res.txns_applied, 8u * kBatchSize);
  EXPECT_EQ(rec.hash, reference_hash(8, kBatchSize, kSeed));
}

// --- resumed durable logging (log_writer resume mode) -----------------------

TEST(LogWriter, ResumeTruncatesTornTailAndContinuesInFreshSegment) {
  temp_dir dir;
  {
    log::log_writer lw(dir.path, {});
    std::vector<std::byte> payload(32, std::byte{7});
    lw.append(log::record_type::batch, payload);
    lw.wait_durable(lw.appended_lsn());
  }
  // Simulate a crash mid-append: garbage bytes after the intact record.
  {
    std::ofstream out(dir.path + "/" + log::segment_name(0),
                      std::ios::binary | std::ios::app);
    out.write("torn!", 5);
  }
  {
    std::vector<log::scanned_record> recs;
    EXPECT_FALSE(
        log::scan_segment(dir.path + "/" + log::segment_name(0), recs));
  }
  {
    log::writer_options opts;
    opts.resume = true;
    log::log_writer lw(dir.path, opts);
    EXPECT_EQ(lw.segment_index(), 1u);  // appends continue past segment 0
    std::vector<std::byte> payload(16, std::byte{9});
    lw.append(log::record_type::batch, payload);
    lw.wait_durable(lw.appended_lsn());
  }
  // The pre-crash segment now scans clean (tail truncated), so a scan of
  // the whole chain sees both records.
  std::vector<log::scanned_record> recs;
  EXPECT_TRUE(log::scan_segment(dir.path + "/" + log::segment_name(0), recs));
  EXPECT_TRUE(log::scan_segment(dir.path + "/" + log::segment_name(1), recs));
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].payload.size(), 32u);
  EXPECT_EQ(recs[1].payload.size(), 16u);
}

TEST(LogWriter, ResumeRemovesSegmentWithTornHeader) {
  temp_dir dir;
  { log::log_writer lw(dir.path, {}); }
  // Crash inside open_segment of segment 1: only 3 header bytes landed.
  {
    std::ofstream out(dir.path + "/" + log::segment_name(1),
                      std::ios::binary);
    out.write("QLO", 3);
  }
  log::writer_options opts;
  opts.resume = true;
  log::log_writer lw(dir.path, opts);
  EXPECT_EQ(lw.segment_index(), 2u);
  EXPECT_FALSE(fs::exists(dir.path + "/" + log::segment_name(1)));
}

TEST(Recovery, ResumedEngineContinuesDurableLoggingInPlace) {
  // The full --recover story: durable run dies after 4 of 8 batches; a
  // recovery replays them; a *resumed durable* engine (log_resume) appends
  // batches 4..7 to the same log; a second recovery of that log — with no
  // resume step left — lands on the uninterrupted 8-batch hash. Both queue
  // engines run it: they share one stage driver, durability included.
  for (const char* engine : {"quecc", "dist-quecc"}) {
    SCOPED_TRACE(engine);
    temp_dir dir;
    wl::ycsb w(small_ycsb());
    common::config base = small_engine_cfg();
    if (std::string_view(engine) == "dist-quecc") base.nodes = 2;

    {  // original durable run: first 4 batches, then "crash" (clean stop)
      storage::database db;
      w.load(db);
      common::config cfg = base;
      cfg.durable = true;
      cfg.log_dir = dir.path;
      auto eng = proto::make_engine(engine, db, cfg);
      common::rng r(kSeed);
      common::run_metrics m;
      for (std::uint32_t i = 0; i < 4; ++i) {
        txn::batch b = w.make_batch(r, kBatchSize, i);
        eng->run_batch(b, m);
      }
      eng->sync_durable();
    }

    {  // recover, then resume durably in place for the remaining 4 batches
      storage::database db;
      w.load(db);
      log::recovery_result rec;
      {
        auto replay_eng = proto::make_engine(engine, db, base);
        rec = log::recover(dir.path, db, *replay_eng, log::resolver_for(w));
      }
      EXPECT_EQ(rec.batches_replayed, 4u);
      EXPECT_EQ(rec.txns_applied, 4u * kBatchSize);

      common::config cfg = base;
      cfg.durable = true;
      cfg.log_dir = dir.path;
      cfg.log_resume = true;
      cfg.log_resume_stream_pos = rec.txns_applied;
      auto eng = proto::make_engine(engine, db, cfg);
      common::rng r(kSeed);
      for (std::uint64_t i = 0; i < rec.txns_applied; ++i) {
        (void)w.make_txn(r);  // advance the deterministic generator
      }
      common::run_metrics m;
      std::uint32_t id = rec.next_batch_id;
      for (std::uint32_t i = 0; i < 4; ++i) {
        txn::batch b = w.make_batch(r, kBatchSize, id++);
        eng->run_batch(b, m);
      }
      eng->sync_durable();
      EXPECT_EQ(db.state_hash(), reference_hash(8, kBatchSize, kSeed));
    }

    // The resumed log is a complete, recoverable history of all 8 batches.
    const auto rec2 = recover_fresh(dir.path);
    EXPECT_EQ(rec2.res.txns_applied, 8u * kBatchSize);
    EXPECT_EQ(rec2.hash, reference_hash(8, kBatchSize, kSeed));
    const auto commits = scan_commits(dir.path);
    ASSERT_EQ(commits.size(), 8u);
    EXPECT_EQ(commits.back().stream_pos, 8u * kBatchSize);
  }
}

TEST(Recovery, ResumedLogReplansUnacknowledgedBatchLastRecordWins) {
  // Crash window: batch 2's record landed but not its commit record. The
  // resumed run re-plans the same stream slice under the same batch id;
  // recovery must replay the *resumed* (committed) copy exactly once.
  temp_dir dir;
  build_log(dir.path, /*produced=*/3, /*committed=*/2);

  wl::ycsb w(small_ycsb());
  storage::database db;
  w.load(db);
  log::recovery_result rec;
  {
    core::quecc_engine replay_eng(db, small_engine_cfg());
    rec = log::recover(dir.path, db, replay_eng, log::resolver_for(w));
  }
  EXPECT_EQ(rec.batches_replayed, 2u);
  EXPECT_EQ(rec.batches_skipped, 1u);

  common::config cfg = small_engine_cfg();
  cfg.durable = true;
  cfg.log_dir = dir.path;
  cfg.log_resume = true;
  cfg.log_resume_stream_pos = rec.txns_applied;
  core::quecc_engine eng(db, cfg);
  common::rng r(kSeed);
  for (std::uint64_t i = 0; i < rec.txns_applied; ++i) (void)w.make_txn(r);
  common::run_metrics m;
  std::uint32_t id = rec.next_batch_id;  // == 2: re-plans the skipped batch
  for (std::uint32_t i = 2; i < kBatches; ++i) {
    txn::batch b = w.make_batch(r, kBatchSize, id++);
    eng.run_batch(b, m);
  }
  eng.sync_durable();
  EXPECT_EQ(db.state_hash(), reference_hash(kBatches, kBatchSize, kSeed));

  const auto rec2 = recover_fresh(dir.path);
  EXPECT_EQ(rec2.res.txns_applied, std::uint64_t{kBatches} * kBatchSize);
  EXPECT_EQ(rec2.hash, reference_hash(kBatches, kBatchSize, kSeed));
}

}  // namespace
}  // namespace quecc
