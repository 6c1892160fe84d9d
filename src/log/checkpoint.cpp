#include "log/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "log/io.hpp"
#include "log/plan_codec.hpp"
#include "log/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quecc::log {

namespace fs = std::filesystem;

using wire::put_u16;
using wire::put_u32;
using wire::put_u64;

namespace {

constexpr std::uint32_t kCkptMagic = 0x504B4351u;  // "QCKP" little-endian
// v2: rows are recorded per table *shard* (one section per per-partition
// arena, see storage/table.hpp) so restore rebuilds each arena's rows —
// and therefore its allocation counts and rid assignment — exactly.
// v3: each table records its index backend kind; restore rejects a
// mismatch (an ordered arena restored into a hash table would silently
// lose its scan capability, and the recorded row order — the backend's
// visit contract — would no longer describe the rebuilt index). Ordered
// arenas serialize in ascending key order, and since skip-list structure
// is a pure function of the key set (storage/ordered_index.hpp), restore
// rebuilds the index bit-identically.
constexpr std::uint32_t kCkptVersion = 3;

/// Write `bytes` to `path` atomically: tmp file, fsync, rename, fsync dir.
void atomic_write(const std::string& dir, const std::string& name,
                  std::span<const std::byte> bytes) {
  const std::string tmp = dir + "/" + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("checkpoint: cannot open '" + tmp +
                             "': " + std::strerror(errno));
  }
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("checkpoint: write failed");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  checked_fsync(fd, "checkpoint file");
  ::close(fd);
  fs::rename(tmp, final_path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    checked_fsync(dfd, "checkpoint directory");
    ::close(dfd);
  }
}

}  // namespace

checkpoint_meta checkpointer::take(const storage::database& db,
                                   std::uint32_t batch_id,
                                   std::uint64_t stream_pos,
                                   std::uint32_t segment_base) {
  const std::uint64_t t0 = common::now_nanos();
  checkpoint_meta meta;
  meta.batch_id = batch_id;
  meta.stream_pos = stream_pos;
  meta.state_hash = db.state_hash();
  meta.file = "checkpoint-" + std::to_string(batch_id) + ".qck";
  meta.segment_base = segment_base;

  std::vector<std::byte> out;
  put_u32(out, kCkptMagic);
  put_u32(out, kCkptVersion);
  put_u32(out, batch_id);
  put_u64(out, stream_pos);
  put_u64(out, meta.state_hash);
  put_u32(out, static_cast<std::uint32_t>(db.table_count()));
  for (table_id_t id = 0; id < db.table_count(); ++id) {
    const storage::table& t = db.at(id);
    put_u16(out, static_cast<std::uint16_t>(t.name().size()));
    for (char c : t.name()) out.push_back(static_cast<std::byte>(c));
    const std::size_t row_size = t.layout().row_size();
    put_u32(out, static_cast<std::uint32_t>(row_size));
    out.push_back(static_cast<std::byte>(t.index()));  // v3: index backend
    put_u16(out, t.shard_count());
    for (part_id_t s = 0; s < t.shard_count(); ++s) {
      put_u64(out, t.live_rows_in(s));
      t.for_each_live_in(s, [&](key_t key, storage::row_id_t rid) {
        put_u64(out, key);
        const auto row = t.row(rid);
        out.insert(out.end(), row.begin(), row.end());
      });
    }
  }
  put_u32(out, crc32(out));

  atomic_write(dir_, meta.file, out);
  write_manifest(dir_, meta);
  // The manifest now points at the new checkpoint; older snapshots (and
  // any stale .tmp from a crashed attempt) are dead weight.
  for (const auto& e : fs::directory_iterator(dir_)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 && name != meta.file) {
      fs::remove(e.path());
    }
  }

  std::uint64_t rows = 0;
  for (table_id_t id = 0; id < db.table_count(); ++id) {
    const storage::table& t = db.at(id);
    for (part_id_t s = 0; s < t.shard_count(); ++s) rows += t.live_rows_in(s);
  }
  const std::uint64_t t1 = common::now_nanos();
  static const obs::counter taken("checkpoint.taken_total");
  static const obs::counter rows_ctr("checkpoint.rows_total");
  static const obs::counter bytes_ctr("checkpoint.bytes_total");
  static const obs::histogram dur("checkpoint.duration_nanos");
  taken.inc();
  rows_ctr.inc(rows);
  bytes_ctr.inc(out.size());
  dur.record_nanos(t1 - t0);
  obs::record_span(obs::trace_stage::checkpoint, t0, t1 - t0, batch_id);
  return meta;
}

std::optional<checkpoint_meta> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  if (!in) return std::nullopt;
  std::string header;
  std::getline(in, header);
  if (header != "quecc-manifest v1") {
    throw std::runtime_error("log: malformed MANIFEST header");
  }
  checkpoint_meta m;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "checkpoint") {
      ls >> m.file >> m.batch_id >> m.stream_pos >> std::hex >> m.state_hash;
      if (!ls) throw std::runtime_error("log: malformed MANIFEST checkpoint");
    } else if (key == "segment_base") {
      ls >> m.segment_base;
      if (!ls) throw std::runtime_error("log: malformed MANIFEST segment_base");
    }
  }
  return m;
}

void write_manifest(const std::string& dir, const checkpoint_meta& m) {
  std::ostringstream os;
  os << "quecc-manifest v1\n";
  os << "checkpoint " << m.file << ' ' << m.batch_id << ' ' << m.stream_pos
     << ' ' << std::hex << m.state_hash << std::dec << '\n';
  os << "segment_base " << m.segment_base << '\n';
  const std::string s = os.str();
  atomic_write(dir, "MANIFEST",
               {reinterpret_cast<const std::byte*>(s.data()), s.size()});
}

checkpoint_meta restore_checkpoint(const std::string& path,
                                   storage::database& db) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (bytes.size() < 4 + 4 + 4) {
    throw std::runtime_error("checkpoint: truncated file");
  }
  const std::span<const std::byte> body(bytes.data(), bytes.size() - 4);
  wire::reader tail(std::span<const std::byte>(bytes).subspan(bytes.size() - 4),
                    "checkpoint");
  if (crc32(body) != tail.u32()) {
    throw std::runtime_error("checkpoint: CRC mismatch in '" + path + "'");
  }

  wire::reader r(body, "checkpoint");
  if (r.u32() != kCkptMagic || r.u32() != kCkptVersion) {
    throw std::runtime_error("checkpoint: bad magic/version in '" + path + "'");
  }
  checkpoint_meta meta;
  meta.batch_id = r.u32();
  meta.stream_pos = r.u64();
  meta.state_hash = r.u64();
  meta.file = fs::path(path).filename().string();

  const std::uint32_t tables = r.u32();
  for (std::uint32_t i = 0; i < tables; ++i) {
    const std::string name = r.str(r.u16());
    const std::uint32_t row_size = r.u32();
    const auto index = static_cast<storage::index_kind>(r.u8());
    storage::table& t = db.by_name(name);
    if (t.layout().row_size() != row_size) {
      throw std::runtime_error("checkpoint: row size mismatch for table '" +
                               name + "'");
    }
    if (t.index() != index) {
      throw std::runtime_error(
          "checkpoint: index backend mismatch for table '" + name + "': " +
          storage::index_kind_name(index) + " recorded, " +
          storage::index_kind_name(t.index()) +
          " loaded (index configuration changed?)");
    }
    const std::uint16_t shards = r.u16();
    if (shards != t.shard_count()) {
      throw std::runtime_error(
          "checkpoint: shard count mismatch for table '" + name + "': " +
          std::to_string(shards) + " recorded, " +
          std::to_string(t.shard_count()) +
          " loaded (partition configuration changed?)");
    }
    // Drive each arena to exactly the snapshot contents: overwrite or
    // insert every snapshot row into its recorded shard, erase live keys
    // the snapshot lacks. Shard indexes double as the partition hint
    // (home_shard(s) == s), so rows land in the arena they came from.
    for (part_id_t s = 0; s < shards; ++s) {
      const std::uint64_t rows = r.u64();
      // Apply the overwrite/insert pass in *recorded file order*, never in
      // hash order: inserts allocate slab slots, so the application order
      // decides rid assignment and therefore the slab order the *next*
      // checkpoint of this arena serializes. The file order is itself the
      // slab order at take() time, which also makes restore rebuild the
      // original rid assignment. The map exists only for the erase-pass
      // membership test, where iteration order never leaks.
      std::vector<std::pair<key_t, std::span<const std::byte>>> snap_rows;
      snap_rows.reserve(rows);
      std::unordered_map<key_t, std::size_t> snap;
      snap.reserve(rows);
      for (std::uint64_t k = 0; k < rows; ++k) {
        const key_t key = r.u64();
        snap_rows.emplace_back(key, r.bytes(row_size));
        snap.emplace(key, k);
      }
      std::vector<key_t> to_erase;
      t.for_each_live_in(s, [&](key_t key, storage::row_id_t) {
        if (snap.find(key) == snap.end()) to_erase.push_back(key);
      });
      for (key_t key : to_erase) t.erase(key, s);
      for (const auto& [key, payload] : snap_rows) {
        const storage::row_id_t rid = t.lookup(key, s);
        if (rid != storage::kNoRow) {
          std::memcpy(t.row(rid).data(), payload.data(), row_size);
        } else if (t.insert(key, payload, s) == storage::kNoRow) {
          throw std::runtime_error("checkpoint: insert failed for table '" +
                                   name + "'");
        }
      }
    }
  }

  const std::uint64_t got = db.state_hash();
  if (got != meta.state_hash) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016" PRIx64 " != %016" PRIx64, got,
                  meta.state_hash);
    throw std::runtime_error(std::string("checkpoint: state hash mismatch "
                                         "after restore: ") + buf);
  }
  return meta;
}

}  // namespace quecc::log
