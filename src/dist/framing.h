// Inter-process frame format for the distributed fleet (src/dist/).
//
// Every message on a front-tier <-> worker connection is length-prefixed:
//
//   u32 payload_len (LE) | u8 type | payload bytes ...
//
// and every payload is built from the same little-endian primitives, so the
// format is identical across hosts (the PR 7 wire codecs already made packet
// *contents* a validated byte format; this layer does the same for the RPC
// envelope around them).  Decoding is as paranoid as wire::WireCodec::parse:
// every read is bounds-checked, a malformed payload raises FramingError
// before any state is touched, and messages above kMaxMessageBytes are
// rejected outright so a corrupt length prefix can never drive a
// multi-gigabyte allocation.
//
// StateStore serialization (the live-migration payload) is canonical:
// variables are emitted sorted by name, so two snapshots of equal stores are
// byte-identical and the digests in tests can compare blobs directly.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "banzai/state.h"

namespace dist {

// Protocol version, checked in the HELLO exchange; bump on any change to the
// message encodings below or their semantics (v2: an empty RestoreReq state
// blob means "reset the slot to pristine initial state"; v3: pipelined
// ingest, see kMaxInflight).
constexpr std::uint32_t kProtocolVersion = 3;

// Ingest window: the front tier keeps up to this many INGEST_BATCH requests
// outstanding per connection, and sends any other request only once every
// outstanding ack is in.  Replies arrive in request order, so a worker that
// receives request n knows every reply up to n - kMaxInflight arrived, and
// holds the egress of the later ones as unconfirmed until then.  Both sides
// must agree on it, hence a protocol constant and not a config field.
constexpr std::size_t kMaxInflight = 4;

// Upper bound on one message's payload: a full-fleet snapshot of corpus-sized
// state is well under a megabyte, so 64 MiB is generous headroom while still
// rejecting garbage length prefixes immediately.
constexpr std::size_t kMaxMessageBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,         // front -> worker: version, algorithm, slot count
  kHelloAck = 2,      // worker -> front: accepted, echoes its configuration
  kIngestBatch = 3,   // front -> worker: (seq, slot, frame bytes) records
  kIngestAck = 4,     // worker -> front: per-frame status + egress piggyback
  kHeartbeat = 5,     // front -> worker: liveness probe (nonce)
  kHeartbeatAck = 6,  // worker -> front: nonce echo + egress piggyback
  kSnapshotReq = 7,   // front -> worker: checkpoint barrier (flush + state)
  kSnapshotResp = 8,  // worker -> front: per-slot blobs + settled egress
  kRestoreReq = 9,    // front -> worker: install slot state (migration)
  kRestoreAck = 10,   // worker -> front: accepted
  kSwapEngine = 11,   // front -> worker: drain + rebuild on another engine
  kSwapAck = 12,      // worker -> front: accepted, reports active engine
  kFlushReq = 13,     // front -> worker: settle everything accepted so far
  kFlushAck = 14,     // worker -> front: done + egress piggyback
  kStop = 15,         // front -> worker: exit the serve loop (graceful)
  kError = 16,        // worker -> front: typed failure, state untouched
};

const char* to_string(MsgType t);

// Raised on any malformed payload (truncated read, trailing bytes, length
// bound exceeded).  The decoder throws before mutating anything.
class FramingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---- little-endian primitives ----------------------------------------------

// Unchecked little-endian stores and loads; the callers bounds-check first.
inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Append-only writer over a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) { store_u32(grow(4), v); }
  void u64(std::uint64_t v) { store_u64(grow(8), v); }
  void bytes(const std::uint8_t* p, std::size_t n) {
    if (n != 0) std::memcpy(grow(n), p, n);
  }
  void str(const std::string& s);    // u16 length + bytes
  void blob(const std::vector<std::uint8_t>& b);  // u32 length + bytes

 private:
  // Appends n bytes and returns where they start.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }
  std::vector<std::uint8_t>& out_;
};

// Bounds-checked reader; every accessor throws FramingError on underrun.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), end_(data + len) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  std::vector<std::uint8_t> blob();
  // Checks and skips what blob() would read, without copying it.
  void skip_blob();
  // Bounds-checks n bytes once and returns them for the caller to decode.
  const std::uint8_t* take(std::size_t n);

  const std::uint8_t* pos() const { return p_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  // Decoders call this last: trailing bytes mean a version mismatch or
  // corruption, both of which must be loud.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// ---- message payload structs -----------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string algorithm;     // corpus algorithm name; must match the worker
  std::uint32_t num_slots = 0;
  std::uint32_t header_bytes = 0;  // wire codec header size, cross-checked
};

struct HelloAck {
  std::uint32_t num_slots = 0;
  std::uint8_t engine = 0;  // banzai::ExecEngine the worker runs on
};

struct FrameRecord {
  std::uint64_t seq = 0;   // front-tier global sequence number
  std::uint32_t slot = 0;  // flow-hash slot (the migration unit)
  std::vector<std::uint8_t> bytes;
};

struct IngestBatch {
  std::vector<FrameRecord> frames;
};

// Per-frame verdict in an IngestAck.  kDuplicate is the at-least-once path
// working as designed: a replayed or duplicated frame whose seq the worker
// already applied for that slot.
enum class FrameStatus : std::uint8_t {
  kAccepted = 0,
  kDuplicate = 1,
  kRejectTruncated = 2,
  kRejectOversized = 3,
  kRejectBadValue = 4,
};

struct EgressRecord {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> bytes;
};

struct IngestAck {
  std::vector<std::uint64_t> seqs;        // parallel to statuses
  std::vector<FrameStatus> statuses;
  std::vector<EgressRecord> egress;       // settled egress, seq-tagged
};

struct Heartbeat {
  std::uint64_t nonce = 0;
};

struct HeartbeatAck {
  std::uint64_t nonce = 0;
  std::uint64_t delivered = 0;            // worker-side delivered counter
  std::vector<EgressRecord> egress;
};

struct SnapshotReq {
  std::vector<std::uint32_t> slots;  // empty = all slots
};

struct SlotState {
  std::uint32_t slot = 0;
  std::uint64_t applied_seq = 0;     // highest global seq applied to the slot
  std::vector<std::uint8_t> state;   // serialize_state_store blob
};

struct SnapshotResp {
  std::vector<SlotState> slots;
  std::vector<EgressRecord> egress;  // settled by the snapshot barrier
};

struct RestoreReq {
  std::vector<SlotState> slots;
};

struct SwapEngine {
  std::uint8_t engine = 0;  // banzai::ExecEngine
};

struct SwapAck {
  std::uint8_t active_engine = 0;
};

struct FlushAck {
  std::vector<EgressRecord> egress;
};

struct ErrorMsg {
  std::string message;
};

// ---- in-place views of the ingest exchange ----------------------------------
//
// INGEST_BATCH and its ack carry every frame, so their hot path neither
// copies frames into owned records nor builds ack vectors.  view_* validates
// a WHOLE payload up front — throwing FramingError before the caller touches
// any state — and returns ranges that then walk it unchecked, yielding
// pointers into it (the payload must outlive the view).  IngestAckWriter is
// the ack's one writer.  decode_ingest_batch, decode_ingest_ack and
// encode_ingest_ack are owning adapters over these, so each message keeps a
// single parser and a single writer.

struct FrameRef {  // one INGEST_BATCH record: u64 seq, u32 slot, blob
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  static FrameRef read(const std::uint8_t*& p) {
    FrameRef f;
    f.seq = load_u64(p);
    f.slot = load_u32(p + 8);
    f.len = load_u32(p + 12);
    f.data = p + 16;
    p += 16 + f.len;
    return f;
  }
};

struct StatusRef {  // one ack status: u64 seq, u8 FrameStatus
  std::uint64_t seq = 0;
  FrameStatus status = FrameStatus::kAccepted;
  static StatusRef read(const std::uint8_t*& p) {
    StatusRef s;
    s.seq = load_u64(p);
    s.status = static_cast<FrameStatus>(p[8]);
    p += 9;
    return s;
  }
};

struct EgressRef {  // one egress record: u64 seq, blob
  std::uint64_t seq = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  static EgressRef read(const std::uint8_t*& p) {
    EgressRef e;
    e.seq = load_u64(p);
    e.len = load_u32(p + 8);
    e.data = p + 12;
    p += 12 + e.len;
    return e;
  }
};

// A forward range over `count` already-validated records of type Rec.
template <typename Rec>
class RecordRange {
 public:
  class iterator {
   public:
    iterator(const std::uint8_t* p, std::size_t left) : p_(p), left_(left) {
      load();
    }
    const Rec& operator*() const { return rec_; }
    iterator& operator++() {
      --left_;
      load();
      return *this;
    }
    bool operator!=(const iterator& o) const { return left_ != o.left_; }

   private:
    void load() {
      if (left_ != 0) rec_ = Rec::read(p_);
    }
    const std::uint8_t* p_;
    std::size_t left_;
    Rec rec_;
  };

  RecordRange() = default;
  RecordRange(const std::uint8_t* first, std::size_t count)
      : first_(first), count_(count) {}
  iterator begin() const { return {first_, count_}; }
  iterator end() const { return {nullptr, 0}; }
  std::size_t size() const { return count_; }

 private:
  const std::uint8_t* first_ = nullptr;
  std::size_t count_ = 0;
};

using IngestBatchView = RecordRange<FrameRef>;
using EgressView = RecordRange<EgressRef>;

struct IngestAckView {
  RecordRange<StatusRef> statuses;
  EgressView egress;
};

IngestBatchView view_ingest_batch(const std::uint8_t* p, std::size_t n);
IngestAckView view_ingest_ack(const std::uint8_t* p, std::size_t n);
// Decodes the egress section (u32 count + records) that ends every
// egress-carrying reply from `r` into owned records.
std::vector<EgressRecord> read_egress(Reader& r);

// Bytes one egress section of `count` records carrying `frame_bytes` frame
// bytes in all occupies.
constexpr std::size_t egress_section_bytes(std::size_t count,
                                           std::size_t frame_bytes) {
  return 4 + 12 * count + frame_bytes;
}

// Writes an INGEST_ACK payload straight into `out`: the constructor sizes it
// once for `frames` statuses and `egress` egress records of `egress_bytes`
// frame bytes in all, then status() and egress() fill the two sections (each
// in its own order; the sections are independent).  Writing past the counts
// given throws FramingError instead of running off the buffer.  The payload
// replaces out's contents, and `out` must not be resized while in use.
class IngestAckWriter {
 public:
  IngestAckWriter(std::vector<std::uint8_t>& out, std::size_t frames,
                  std::size_t egress, std::size_t egress_bytes);

  void status(std::uint64_t seq, FrameStatus s);
  // Writes one record's (seq, len) header and returns where its len frame
  // bytes go.
  std::uint8_t* egress(std::uint64_t seq, std::size_t len);

  // Offset of the egress section in the payload.
  std::size_t egress_offset() const { return egress_at_; }

 private:
  std::size_t egress_at_;
  std::uint8_t* status_;      // next status
  std::uint8_t* status_end_;  // = the egress section
  std::uint8_t* egress_;      // next egress record
  std::uint8_t* end_;
  std::size_t egress_left_;
};

// ---- encoders / decoders ---------------------------------------------------
//
// encode_* produce the payload only; the (length, type) envelope is written
// by rpc::Conn::send_msg.  decode_* consume the payload and throw
// FramingError on any malformation.

std::vector<std::uint8_t> encode_hello(const Hello& m);
Hello decode_hello(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_hello_ack(const HelloAck& m);
HelloAck decode_hello_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_ingest_batch(const IngestBatch& m);
// INGEST_BATCH's one writer: the payload of the frames [first, last), where
// ref(*it) names each frame as a FrameRef, written straight from wherever
// the bytes live.  The payload replaces out's contents, so a caller that
// keeps `out` across batches reuses its capacity.
template <typename It, typename ToRef>
void encode_ingest_frames(It first, It last, ToRef ref,
                          std::vector<std::uint8_t>& out) {
  std::size_t size = 4, count = 0;
  for (It it = first; it != last; ++it, ++count) {
    const std::size_t len = ref(*it).len;
    if (len > kMaxMessageBytes) throw FramingError("blob exceeds bound");
    size += 16 + len;
  }
  out.resize(size);
  std::uint8_t* p = out.data();
  store_u32(p, static_cast<std::uint32_t>(count));
  p += 4;
  for (It it = first; it != last; ++it) {
    const FrameRef f = ref(*it);
    store_u64(p, f.seq);
    store_u32(p + 8, f.slot);
    store_u32(p + 12, static_cast<std::uint32_t>(f.len));
    if (f.len != 0) std::memcpy(p + 16, f.data, f.len);
    p += 16 + f.len;
  }
}
IngestBatch decode_ingest_batch(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_ingest_ack(const IngestAck& m);
IngestAck decode_ingest_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_heartbeat(const Heartbeat& m);
Heartbeat decode_heartbeat(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_heartbeat_ack(const HeartbeatAck& m);
HeartbeatAck decode_heartbeat_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_snapshot_req(const SnapshotReq& m);
SnapshotReq decode_snapshot_req(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_snapshot_resp(const SnapshotResp& m);
SnapshotResp decode_snapshot_resp(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_restore_req(const RestoreReq& m);
RestoreReq decode_restore_req(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_swap_engine(const SwapEngine& m);
SwapEngine decode_swap_engine(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_swap_ack(const SwapAck& m);
SwapAck decode_swap_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_flush_ack(const FlushAck& m);
FlushAck decode_flush_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_error(const ErrorMsg& m);
ErrorMsg decode_error(const std::uint8_t* p, std::size_t n);

// ---- StateStore <-> bytes (the migration payload) --------------------------
//
// Canonical encoding: u32 var count, then per variable (sorted by name)
// u16 name length + name, u8 scalar flag, u32 cell count, cells as u32 LE.
// deserialize_state_store validates the whole blob (throws FramingError)
// before returning, so a caller that then shape-checks against its live
// store (StateStore::same_shape / restore) can guarantee the corrupt-payload
// contract: reject cleanly, store untouched.
std::vector<std::uint8_t> serialize_state_store(const banzai::StateStore& s);
banzai::StateStore deserialize_state_store(const std::uint8_t* p,
                                           std::size_t n);

}  // namespace dist
