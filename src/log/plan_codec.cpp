#include "log/plan_codec.hpp"

#include <array>

#include "log/wire.hpp"
#include "txn/procedure.hpp"

namespace quecc::log {

using wire::put_u16;
using wire::put_u32;
using wire::put_u64;
using wire::put_u8;

void encode_batch(const txn::batch& b, std::vector<std::byte>& out) {
  put_u32(out, kCodecVersion);
  put_u32(out, b.id());
  put_u32(out, static_cast<std::uint32_t>(b.size()));
  for (const auto& tp : b) {
    const txn::txn_desc& t = *tp;
    const std::string& name = t.proc->name();
    put_u16(out, static_cast<std::uint16_t>(name.size()));
    for (char c : name) put_u8(out, static_cast<std::uint8_t>(c));
    put_u32(out, static_cast<std::uint32_t>(t.args.size()));
    for (std::uint64_t a : t.args) put_u64(out, a);
    put_u32(out, static_cast<std::uint32_t>(t.frags.size()));
    for (const txn::fragment& f : t.frags) {
      put_u16(out, f.table);
      put_u16(out, f.part);
      put_u64(out, f.key);
      put_u64(out, f.key_hi);  // v2: scan upper bound (0 for point kinds)
      put_u8(out, static_cast<std::uint8_t>(f.kind));
      put_u8(out, f.abortable ? 1 : 0);
      put_u16(out, f.idx);
      put_u16(out, f.logic);
      put_u16(out, f.output_slot);
      put_u64(out, f.input_mask);
      put_u64(out, f.aux);
    }
  }
}

txn::batch decode_batch(std::span<const std::byte> in,
                        const proc_resolver& procs) {
  wire::reader r(in, "plan_codec");
  if (r.u32() != kCodecVersion) {
    throw codec_error("plan_codec: unsupported version");
  }
  const std::uint32_t batch_id = r.u32();
  const std::uint32_t txn_count = r.u32();
  txn::batch b(batch_id);
  for (std::uint32_t i = 0; i < txn_count; ++i) {
    auto t = std::make_unique<txn::txn_desc>();
    const std::string name = r.str(r.u16());
    t->proc = procs ? procs(name) : nullptr;
    if (t->proc == nullptr) {
      throw codec_error("plan_codec: unknown procedure '" + name + "'");
    }
    const std::uint32_t args = r.u32();
    t->args.reserve(args);
    for (std::uint32_t a = 0; a < args; ++a) t->args.push_back(r.u64());
    const std::uint32_t frags = r.u32();
    if (frags > 1u << 20) throw codec_error("plan_codec: fragment count");
    t->frags.reserve(frags);
    for (std::uint32_t fi = 0; fi < frags; ++fi) {
      txn::fragment f;
      f.table = r.u16();
      f.part = r.u16();
      f.key = r.u64();
      f.key_hi = r.u64();
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(txn::op_kind::scan)) {
        throw codec_error("plan_codec: bad op_kind");
      }
      f.kind = static_cast<txn::op_kind>(kind);
      f.abortable = r.u8() != 0;
      f.idx = r.u16();
      f.logic = r.u16();
      f.output_slot = r.u16();
      f.input_mask = r.u64();
      f.aux = r.u64();
      t->frags.push_back(f);
    }
    b.add(std::move(t));
  }
  if (!r.exhausted()) throw codec_error("plan_codec: trailing bytes");
  try {
    b.validate();
  } catch (const std::logic_error& e) {
    throw codec_error(std::string("plan_codec: invalid plan: ") + e.what());
  }
  return b;
}

void encode_commit(const commit_info& c, std::vector<std::byte>& out) {
  put_u32(out, kCodecVersion);
  put_u32(out, c.batch_id);
  put_u32(out, c.txn_count);
  put_u32(out, c.committed);
  put_u32(out, c.aborted);
  put_u64(out, c.stream_pos);
  put_u64(out, c.state_hash);
}

commit_info decode_commit(std::span<const std::byte> in) {
  wire::reader r(in, "plan_codec");
  if (r.u32() != kCodecVersion) {
    throw codec_error("plan_codec: unsupported commit version");
  }
  commit_info c;
  c.batch_id = r.u32();
  c.txn_count = r.u32();
  c.committed = r.u32();
  c.aborted = r.u32();
  c.stream_pos = r.u64();
  c.state_hash = r.u64();
  if (!r.exhausted()) throw codec_error("plan_codec: trailing commit bytes");
  return c;
}

namespace {

/// Slicing-by-8 tables for CRC-32 (IEEE 802.3, reflected polynomial
/// 0xEDB88320). Table 0 is the classic byte-wise table; table k advances a
/// CRC over a byte followed by k zero bytes, so eight lookups fold eight
/// input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

/// Four bytes as a little-endian word, whatever the host byte order.
std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  const auto& t = kCrcTables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n != 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace quecc::log
