#include "log/log_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/mutex.hpp"
#include "common/stats.hpp"
#include "common/thread_util.hpp"
#include "log/io.hpp"
#include "log/plan_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quecc::log {

namespace {
// Fsync accounting shared by the three fsync sites (group-commit flusher,
// size rotation, checkpoint rotation).
const obs::counter& fsyncs_total() {
  static const obs::counter c("log.fsyncs_total");
  return c;
}
}  // namespace

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kSegmentMagic = 0x474F4C51u;  // "QLOG" little-endian
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::size_t kFrameHeader = 4 + 4 + 1;  // len + crc + type

void put_u32_le(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

std::uint32_t get_u32_le(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

void write_all(int fd, const std::byte* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("log_writer: write failed: ") +
                               std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

std::string segment_name(std::uint32_t n) {
  return "segment-" + std::to_string(n) + ".qlog";
}

std::vector<std::uint32_t> list_segments(const std::string& dir,
                                         std::uint32_t base) {
  std::vector<std::uint32_t> out;
  if (!fs::exists(dir)) return out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("segment-", 0) != 0) continue;
    const auto dot = name.find(".qlog");
    if (dot == std::string::npos) continue;
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::strtoul(name.c_str() + 8, nullptr, 10));
    if (n >= base) out.push_back(n);
  }
  std::sort(out.begin(), out.end());
  return out;
}

log_writer::log_writer(std::string dir, writer_options opts)
    : dir_(std::move(dir)), opts_(opts) {
  fs::create_directories(dir_);
  const auto existing = list_segments(dir_, 0);
  std::uint32_t first = 0;
  if (!existing.empty()) {
    if (!opts_.resume) {
      throw std::runtime_error(
          "log_writer: '" + dir_ +
          "' already holds log segments — recover or clear it first");
    }
    // Resume after recovery: keep every existing segment (their committed
    // batches are the recovered history), drop the newest one's torn tail
    // so the segment chain scans cleanly, and continue in a new segment.
    truncate_torn_tail(dir_ + "/" + segment_name(existing.back()));
    first = existing.back() + 1;
  }
  {
    // No concurrency yet (the flusher starts below), but open_segment
    // REQUIRES(mu_), and taking it here keeps the contract unconditional.
    common::mutex_lock lk(mu_);
    open_segment(first);
  }
  flusher_ = std::thread([this] { flusher_main(); });
}

log_writer::~log_writer() {
  {
    common::mutex_lock lk(mu_);
    stop_ = true;
  }
  flush_cv_.notify_all();
  flusher_.join();
  common::mutex_lock lk(mu_);
  if (fd_ >= 0) {
    checked_fsync(fd_, "log_writer close");
    ::close(fd_);
    fd_ = -1;
  }
}

void log_writer::open_segment(std::uint32_t index) {
  const std::string path = dir_ + "/" + segment_name(index);
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    throw std::runtime_error("log_writer: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  std::byte header[8];
  put_u32_le(header, kSegmentMagic);
  put_u32_le(header + 4, kSegmentVersion);
  write_all(fd, header, sizeof header);
  fd_ = fd;
  segment_ = index;
  segment_bytes_written_ = sizeof header;
}

log_writer::lsn_t log_writer::append(record_type type,
                                     std::span<const std::byte> payload) {
  std::vector<std::byte> frame(kFrameHeader + payload.size());
  put_u32_le(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32_le(frame.data() + 4, crc32(payload));
  frame[8] = static_cast<std::byte>(type);
  std::memcpy(frame.data() + kFrameHeader, payload.data(), payload.size());

  static const obs::counter appends("log.appends_total");
  static const obs::counter bytes("log.appended_bytes_total");
  appends.inc();
  bytes.inc(frame.size());

  common::mutex_lock lk(mu_);
  if (segment_bytes_written_ >= opts_.segment_bytes) {
    // Size rotation: the old segment's bytes become durable here, so the
    // flusher only ever needs to fsync the current fd.
    checked_fsync(fd_, "log_writer size rotation");
    ++fsyncs_;
    fsyncs_total().inc();
    static const obs::counter rotations("log.segment_rotations_total");
    rotations.inc();
    ::close(fd_);
    open_segment(segment_ + 1);
  }
  write_all(fd_, frame.data(), frame.size());
  segment_bytes_written_ += frame.size();
  appended_ += frame.size();
  return appended_;
}

void log_writer::request_flush() {
  {
    common::mutex_lock lk(mu_);
    flush_requested_ = true;
  }
  flush_cv_.notify_one();
}

void log_writer::wait_durable(lsn_t lsn) {
  common::mutex_lock lk(mu_);
  if (durable_ >= lsn) return;
  flush_requested_ = true;
  flush_cv_.notify_one();
  while (durable_ < lsn) durable_cv_.wait(lk);
}

log_writer::lsn_t log_writer::appended_lsn() const {
  common::mutex_lock lk(mu_);
  return appended_;
}

log_writer::lsn_t log_writer::durable_lsn() const {
  common::mutex_lock lk(mu_);
  return durable_;
}

std::uint32_t log_writer::segment_index() const {
  common::mutex_lock lk(mu_);
  return segment_;
}

std::uint64_t log_writer::fsyncs() const {
  common::mutex_lock lk(mu_);
  return fsyncs_;
}

std::uint32_t log_writer::rotate_and_truncate() {
  common::mutex_lock lk(mu_);
  checked_fsync(fd_, "log_writer checkpoint rotation");
  ++fsyncs_;
  fsyncs_total().inc();
  ::close(fd_);
  const std::uint32_t old = segment_;
  open_segment(old + 1);
  durable_ = appended_;  // everything written so far was just fsynced
  lk.unlock();
  durable_cv_.notify_all();
  for (std::uint32_t n : list_segments(dir_, 0)) {
    if (n <= old) fs::remove(dir_ + "/" + segment_name(n));
  }
  return old + 1;
}

void log_writer::flusher_main() {
  common::name_self("quecc-wal-sync");
  common::mutex_lock lk(mu_);
  for (;;) {
    // Group commit: park for at most one window, or until someone asks.
    // Every record appended while we slept shares the next fsync.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(opts_.group_commit_micros);
    while (!(stop_ || flush_requested_)) {
      if (flush_cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
    flush_requested_ = false;
    if (durable_ < appended_) {
      const lsn_t target = appended_;
      // Snapshot fd_ and fsync it unlocked. If a size rotation swaps the
      // segment meanwhile, the stale fd still names the *old* segment —
      // which the rotation itself fsyncs before closing — so advancing
      // durable_ to `target` below stays correct (benign stale-fd race).
      const int fd = fd_;
      const lsn_t durable_before = durable_;
      lk.unlock();
      const std::uint64_t t0 = common::now_nanos();
      checked_fsync(fd, "log_writer group commit");
      const std::uint64_t t1 = common::now_nanos();
      static const obs::histogram fsync_hist("log.fsync_nanos");
      fsync_hist.record_nanos(t1 - t0);
      // Group-commit coalescing: every byte between the last durable LSN
      // and the flush target shares this one fsync.
      static const obs::counter synced("log.fsynced_bytes_total");
      synced.inc(target - durable_before);
      obs::record_span(obs::trace_stage::fsync, t0, t1 - t0);
      lk.lock();
      ++fsyncs_;
      fsyncs_total().inc();
      // A rotation may have advanced durable_ past target meanwhile.
      if (durable_ < target) durable_ = target;
      lk.unlock();
      durable_cv_.notify_all();
      lk.lock();
    }
    if (stop_ && durable_ >= appended_) return;
  }
}

bool truncate_torn_tail(const std::string& path) {
  std::vector<scanned_record> records;
  if (scan_segment(path, records)) return false;  // clean end, keep as is
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size < 8) {
    // Even the 8-byte header is torn: the segment never held a durable
    // record, so the file itself is the tail.
    fs::remove(path);
    return true;
  }
  std::uintmax_t keep = 8;
  for (const auto& r : records) keep += kFrameHeader + r.payload.size();
  fs::resize_file(path, keep);
  return true;
}

bool scan_segment(const std::string& path, std::vector<scanned_record>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("log: cannot open '" + path + "'");
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  // A crash inside open_segment can leave the newest segment with a
  // partial header (the 8 header bytes are one write, so any partial
  // prefix is a prefix of the correct header). That is a torn tail, not
  // corruption — report it recoverable. A full header with the wrong
  // magic, by contrast, cannot come from a crash: the caller pointed at
  // something that is not a quecc log.
  if (bytes.size() < 8) return false;
  if (get_u32_le(bytes.data()) != kSegmentMagic ||
      get_u32_le(bytes.data() + 4) != kSegmentVersion) {
    throw std::runtime_error("log: '" + path + "' is not a quecc log segment");
  }
  std::size_t pos = 8;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeader) return false;  // torn header
    const std::uint32_t len = get_u32_le(bytes.data() + pos);
    const std::uint32_t crc = get_u32_le(bytes.data() + pos + 4);
    const auto type = static_cast<record_type>(bytes[pos + 8]);
    if (bytes.size() - pos - kFrameHeader < len) return false;  // torn body
    std::span<const std::byte> payload(bytes.data() + pos + kFrameHeader, len);
    if (crc32(payload) != crc) return false;  // corrupt frame
    if (type != record_type::batch && type != record_type::commit) {
      return false;  // unknown type: treat like corruption, drop the tail
    }
    out.push_back({type, {payload.begin(), payload.end()}});
    pos += kFrameHeader + len;
  }
  return true;
}

}  // namespace quecc::log
