#include "dist/framing.h"

#include <algorithm>
#include <cstring>

namespace dist {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kIngestBatch: return "ingest_batch";
    case MsgType::kIngestAck: return "ingest_ack";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatAck: return "heartbeat_ack";
    case MsgType::kSnapshotReq: return "snapshot_req";
    case MsgType::kSnapshotResp: return "snapshot_resp";
    case MsgType::kRestoreReq: return "restore_req";
    case MsgType::kRestoreAck: return "restore_ack";
    case MsgType::kSwapEngine: return "swap_engine";
    case MsgType::kSwapAck: return "swap_ack";
    case MsgType::kFlushReq: return "flush_req";
    case MsgType::kFlushAck: return "flush_ack";
    case MsgType::kStop: return "stop";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

void Writer::str(const std::string& s) {
  if (s.size() > 0xFFFF) throw FramingError("string exceeds u16 length");
  u16(static_cast<std::uint16_t>(s.size()));
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void Writer::blob(const std::vector<std::uint8_t>& b) {
  if (b.size() > kMaxMessageBytes) throw FramingError("blob exceeds bound");
  u32(static_cast<std::uint32_t>(b.size()));
  bytes(b.data(), b.size());
}

void Reader::need(std::size_t n) const {
  if (static_cast<std::size_t>(end_ - p_) < n)
    throw FramingError("truncated payload");
}

std::uint8_t Reader::u8() {
  need(1);
  return *p_++;
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(p_[0]) |
                    static_cast<std::uint16_t>(p_[1]) << 8;
  p_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  const std::uint32_t v = load_u32(p_);
  p_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = load_u64(p_);
  p_ += 8;
  return v;
}

std::string Reader::str() {
  const std::size_t n = u16();
  need(n);
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

std::vector<std::uint8_t> Reader::blob() {
  const std::size_t n = u32();
  if (n > kMaxMessageBytes) throw FramingError("blob length exceeds bound");
  need(n);
  std::vector<std::uint8_t> b(p_, p_ + n);
  p_ += n;
  return b;
}

void Reader::skip_blob() {
  const std::size_t n = u32();
  if (n > kMaxMessageBytes) throw FramingError("blob length exceeds bound");
  take(n);
}

const std::uint8_t* Reader::take(std::size_t n) {
  need(n);
  const std::uint8_t* at = p_;
  p_ += n;
  return at;
}

void Reader::expect_end() const {
  if (p_ != end_) throw FramingError("trailing bytes after payload");
}

namespace {

void write_egress(Writer& w, const std::vector<EgressRecord>& egress) {
  w.u32(static_cast<std::uint32_t>(egress.size()));
  for (const EgressRecord& e : egress) {
    w.u64(e.seq);
    w.blob(e.bytes);
  }
}

// The egress section's one parser: validates it, then views it in place.
EgressView read_egress_view(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > kMaxMessageBytes / 8) throw FramingError("egress count exceeds bound");
  const std::uint8_t* first = r.pos();
  for (std::uint32_t i = 0; i < n; ++i) {
    r.u64();
    r.skip_blob();
  }
  return EgressView(first, n);
}

std::vector<EgressRecord> egress_records(const EgressView& view) {
  std::vector<EgressRecord> out;
  out.reserve(view.size());
  for (const EgressRef& e : view)
    out.push_back(EgressRecord{e.seq, {e.data, e.data + e.len}});
  return out;
}

// Payload bytes write_slot_states adds, so an encoder can reserve them.
std::size_t slot_states_size(const std::vector<SlotState>& slots) {
  std::size_t size = 4;
  for (const SlotState& s : slots) size += 16 + s.state.size();
  return size;
}

void write_slot_states(Writer& w, const std::vector<SlotState>& slots) {
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const SlotState& s : slots) {
    w.u32(s.slot);
    w.u64(s.applied_seq);
    w.blob(s.state);
  }
}

std::vector<SlotState> read_slot_states(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > kMaxMessageBytes / 8) throw FramingError("slot count exceeds bound");
  std::vector<SlotState> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SlotState s;
    s.slot = r.u32();
    s.applied_seq = r.u64();
    s.state = r.blob();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

std::vector<EgressRecord> read_egress(Reader& r) {
  return egress_records(read_egress_view(r));
}

IngestBatchView view_ingest_batch(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  const std::uint32_t count = r.u32();
  if (count > kMaxMessageBytes / 8)
    throw FramingError("frame count exceeds bound");
  const std::uint8_t* first = r.pos();
  for (std::uint32_t i = 0; i < count; ++i) {
    r.u64();
    r.u32();
    r.skip_blob();
  }
  r.expect_end();
  return IngestBatchView(first, count);
}

IngestAckView view_ingest_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  IngestAckView v;
  const std::uint32_t count = r.u32();
  if (count > kMaxMessageBytes / 8)
    throw FramingError("ack count exceeds bound");
  const std::uint8_t* statuses = r.take(9 * static_cast<std::size_t>(count));
  for (std::uint32_t i = 0; i < count; ++i)
    if (statuses[9 * i + 8] >
        static_cast<std::uint8_t>(FrameStatus::kRejectBadValue))
      throw FramingError("unknown frame status");
  v.statuses = RecordRange<StatusRef>(statuses, count);
  v.egress = read_egress_view(r);
  r.expect_end();
  return v;
}

IngestAckWriter::IngestAckWriter(std::vector<std::uint8_t>& out,
                                 std::size_t frames, std::size_t egress,
                                 std::size_t egress_bytes)
    : egress_at_(4 + 9 * frames), egress_left_(egress) {
  const std::size_t size =
      egress_at_ + egress_section_bytes(egress, egress_bytes);
  if (size > kMaxMessageBytes) throw FramingError("ingest ack exceeds bound");
  out.resize(size);
  std::uint8_t* base = out.data();
  store_u32(base, static_cast<std::uint32_t>(frames));
  store_u32(base + egress_at_, static_cast<std::uint32_t>(egress));
  status_ = base + 4;
  status_end_ = base + egress_at_;
  egress_ = status_end_ + 4;
  end_ = base + size;
}

void IngestAckWriter::status(std::uint64_t seq, FrameStatus s) {
  if (status_ == status_end_) throw FramingError("ingest ack: extra status");
  store_u64(status_, seq);
  status_[8] = static_cast<std::uint8_t>(s);
  status_ += 9;
}

std::uint8_t* IngestAckWriter::egress(std::uint64_t seq, std::size_t len) {
  if (egress_left_ == 0 ||
      static_cast<std::size_t>(end_ - egress_) < 12 + len)
    throw FramingError("ingest ack: egress beyond its sized section");
  --egress_left_;
  store_u64(egress_, seq);
  store_u32(egress_ + 8, static_cast<std::uint32_t>(len));
  std::uint8_t* bytes = egress_ + 12;
  egress_ = bytes + len;
  return bytes;
}

std::vector<std::uint8_t> encode_hello(const Hello& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(m.version);
  w.str(m.algorithm);
  w.u32(m.num_slots);
  w.u32(m.header_bytes);
  return out;
}

Hello decode_hello(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  Hello m;
  m.version = r.u32();
  m.algorithm = r.str();
  m.num_slots = r.u32();
  m.header_bytes = r.u32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(m.num_slots);
  w.u8(m.engine);
  return out;
}

HelloAck decode_hello_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  HelloAck m;
  m.num_slots = r.u32();
  m.engine = r.u8();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_ingest_batch(const IngestBatch& m) {
  std::vector<std::uint8_t> out;
  encode_ingest_frames(
      m.frames.begin(), m.frames.end(),
      [](const FrameRecord& r) {
        return FrameRef{r.seq, r.slot, r.bytes.data(), r.bytes.size()};
      },
      out);
  return out;
}

IngestBatch decode_ingest_batch(const std::uint8_t* p, std::size_t n) {
  const IngestBatchView view = view_ingest_batch(p, n);
  IngestBatch m;
  m.frames.reserve(view.size());
  for (const FrameRef& f : view)
    m.frames.push_back(FrameRecord{f.seq, f.slot, {f.data, f.data + f.len}});
  return m;
}

std::vector<std::uint8_t> encode_ingest_ack(const IngestAck& m) {
  if (m.seqs.size() != m.statuses.size())
    throw FramingError("ingest ack: seqs/statuses size mismatch");
  std::size_t egress_bytes = 0;
  for (const EgressRecord& e : m.egress) egress_bytes += e.bytes.size();
  std::vector<std::uint8_t> out;
  IngestAckWriter w(out, m.seqs.size(), m.egress.size(), egress_bytes);
  for (std::size_t i = 0; i < m.seqs.size(); ++i)
    w.status(m.seqs[i], m.statuses[i]);
  for (const EgressRecord& e : m.egress) {
    std::uint8_t* dst = w.egress(e.seq, e.bytes.size());
    if (!e.bytes.empty()) std::memcpy(dst, e.bytes.data(), e.bytes.size());
  }
  return out;
}

IngestAck decode_ingest_ack(const std::uint8_t* p, std::size_t n) {
  const IngestAckView view = view_ingest_ack(p, n);
  IngestAck m;
  m.seqs.reserve(view.statuses.size());
  m.statuses.reserve(view.statuses.size());
  for (const StatusRef& s : view.statuses) {
    m.seqs.push_back(s.seq);
    m.statuses.push_back(s.status);
  }
  m.egress = egress_records(view.egress);
  return m;
}

std::vector<std::uint8_t> encode_heartbeat(const Heartbeat& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u64(m.nonce);
  return out;
}

Heartbeat decode_heartbeat(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  Heartbeat m;
  m.nonce = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_heartbeat_ack(const HeartbeatAck& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u64(m.nonce);
  w.u64(m.delivered);
  write_egress(w, m.egress);
  return out;
}

HeartbeatAck decode_heartbeat_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  HeartbeatAck m;
  m.nonce = r.u64();
  m.delivered = r.u64();
  m.egress = read_egress(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_snapshot_req(const SnapshotReq& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(m.slots.size()));
  for (std::uint32_t s : m.slots) w.u32(s);
  return out;
}

SnapshotReq decode_snapshot_req(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SnapshotReq m;
  const std::uint32_t count = r.u32();
  if (count > kMaxMessageBytes / 4)
    throw FramingError("slot list exceeds bound");
  m.slots.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m.slots.push_back(r.u32());
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_snapshot_resp(const SnapshotResp& m) {
  std::vector<std::uint8_t> out;
  out.reserve(slot_states_size(m.slots) + 4);
  Writer w(out);
  write_slot_states(w, m.slots);
  write_egress(w, m.egress);
  return out;
}

SnapshotResp decode_snapshot_resp(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SnapshotResp m;
  m.slots = read_slot_states(r);
  m.egress = read_egress(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_restore_req(const RestoreReq& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  write_slot_states(w, m.slots);
  return out;
}

RestoreReq decode_restore_req(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  RestoreReq m;
  m.slots = read_slot_states(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_swap_engine(const SwapEngine& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u8(m.engine);
  return out;
}

SwapEngine decode_swap_engine(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SwapEngine m;
  m.engine = r.u8();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_swap_ack(const SwapAck& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u8(m.active_engine);
  return out;
}

SwapAck decode_swap_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SwapAck m;
  m.active_engine = r.u8();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_flush_ack(const FlushAck& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  write_egress(w, m.egress);
  return out;
}

FlushAck decode_flush_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  FlushAck m;
  m.egress = read_egress(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& m) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.str(m.message);
  return out;
}

ErrorMsg decode_error(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  ErrorMsg m;
  m.message = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> serialize_state_store(const banzai::StateStore& s) {
  std::vector<std::pair<std::string, const banzai::StateVar*>> vars;
  vars.reserve(s.vars().size());
  for (const auto& [name, var] : s.vars()) vars.emplace_back(name, &var);
  std::sort(vars.begin(), vars.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::size_t size = 4;
  for (const auto& [name, var] : vars)
    size += 2 + name.size() + 1 + 4 + 4 * var->size();
  std::vector<std::uint8_t> out;
  out.reserve(size);
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(vars.size()));
  for (const auto& [name, var] : vars) {
    w.str(name);
    w.u8(var->is_scalar() ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(var->size()));
    const std::size_t at = out.size();
    out.resize(at + 4 * var->size());
    std::uint8_t* cell = out.data() + at;
    for (banzai::Value v : var->cells()) {
      const auto u = static_cast<std::uint32_t>(v);
      cell[0] = static_cast<std::uint8_t>(u);
      cell[1] = static_cast<std::uint8_t>(u >> 8);
      cell[2] = static_cast<std::uint8_t>(u >> 16);
      cell[3] = static_cast<std::uint8_t>(u >> 24);
      cell += 4;
    }
  }
  return out;
}

banzai::StateStore deserialize_state_store(const std::uint8_t* p,
                                           std::size_t n) {
  Reader r(p, n);
  banzai::StateStore store;
  const std::uint32_t nvars = r.u32();
  if (nvars > kMaxMessageBytes / 8)
    throw FramingError("state var count exceeds bound");
  for (std::uint32_t i = 0; i < nvars; ++i) {
    const std::string name = r.str();
    if (name.empty()) throw FramingError("state var with empty name");
    const bool scalar = r.u8() != 0;
    const std::uint32_t ncells = r.u32();
    if (ncells == 0 || ncells > kMaxMessageBytes / 4)
      throw FramingError("state var cell count out of range");
    if (scalar && ncells != 1)
      throw FramingError("scalar state var with more than one cell");
    if (store.contains(name)) throw FramingError("duplicate state var name");
    // One bounds check for all cells, before the variable is allocated.
    const std::uint8_t* cells = r.take(4 * static_cast<std::size_t>(ncells));
    store.declare(name, ncells, scalar);
    banzai::Value* dst = store.var(name).data();
    for (std::uint32_t c = 0; c < ncells; ++c, cells += 4)
      dst[c] = static_cast<banzai::Value>(
          static_cast<std::uint32_t>(cells[0]) |
          static_cast<std::uint32_t>(cells[1]) << 8 |
          static_cast<std::uint32_t>(cells[2]) << 16 |
          static_cast<std::uint32_t>(cells[3]) << 24);
  }
  r.expect_end();
  return store;
}

}  // namespace dist
