#include "dist/worker.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace dist {

namespace {

FrameStatus reject_status(wire::ParseStatus s) {
  switch (s) {
    case wire::ParseStatus::kTruncated: return FrameStatus::kRejectTruncated;
    case wire::ParseStatus::kOversized: return FrameStatus::kRejectOversized;
    default: return FrameStatus::kRejectBadValue;
  }
}

}  // namespace

WorkerServer::WorkerServer(const banzai::Machine& prototype,
                           std::shared_ptr<const wire::WireCodec> rx,
                           std::shared_ptr<const wire::WireCodec> tx,
                           WorkerConfig cfg)
    : proto_(prototype.clone()),
      rx_(std::move(rx)),
      tx_(std::move(tx)),
      cfg_(std::move(cfg)),
      initial_state_(proto_.snapshot_state()) {
  for (const auto& name : cfg_.flow_key)
    flow_key_.push_back(proto_.fields().id_of(name));
  reset_state();
}

WorkerServer::~WorkerServer() { stop(); }

std::unique_ptr<banzai::ShardCore> WorkerServer::make_core() const {
  return std::make_unique<banzai::ShardCore>(proto_, cfg_.num_slots,
                                             /*num_shards=*/1, cfg_.batch_size,
                                             flow_key_);
}

void WorkerServer::reset_state() {
  core_ = make_core();
  applied_seq_.assign(cfg_.num_slots, 0);
  out_egress_.clear();
  unconfirmed_.clear();
}

void WorkerServer::start() {
  if (running()) return;
  listener_.listen(port_ != 0 ? port_ : cfg_.port);
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  wake_.clear();
  running_.store(true, std::memory_order_release);
  server_ = std::thread([this] { serve_loop(); });
}

void WorkerServer::stop() {
  stopping_.store(true, std::memory_order_release);
  wake_.signal();
  listener_.shutdown();
  if (server_.joinable()) server_.join();
  listener_.close();
  running_.store(false, std::memory_order_release);
}

void WorkerServer::kill() {
  stop();
  {
    // A killed process loses its memory: fresh slots, zeroed dedup table,
    // no buffered egress.  Whatever it had applied since the last checkpoint
    // exists nowhere but in the front tier's resend buffer.
    std::lock_guard<std::mutex> lock(mu_);
    reset_state();
  }
}

void WorkerServer::restart() {
  if (running()) return;
  start();
}

void WorkerServer::serve_forever() {
  if (!listener_.valid()) {
    listener_.listen(port_ != 0 ? port_ : cfg_.port);
    port_ = listener_.port();
  }
  stopping_.store(false, std::memory_order_release);
  wake_.clear();
  running_.store(true, std::memory_order_release);
  serve_loop();
  running_.store(false, std::memory_order_release);
}

WorkerStats WorkerServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WorkerServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Conn conn;
    try {
      conn = listener_.accept(Clock::now() + Millis(200));
    } catch (const RpcTimeout&) {
      continue;  // periodic stopping_ check
    } catch (const RpcError&) {
      break;  // listener shut down
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++conns_seen_;
      if (conns_seen_ > 1) ++stats_.reconnects;
    }
    serve_connection(conn);
  }
}

void WorkerServer::serve_connection(Conn& conn) {
  {
    // A fresh connection means the previous one died, and its unconfirmed
    // replies may have died with it: re-queue their egress, in order, ahead
    // of the rest so the next ack redelivers it (the front tier dedups what
    // did arrive).
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<EgressRecord> requeue;
    for (const Unconfirmed& held : unconfirmed_) {
      if (held.bytes.empty()) continue;
      Reader r(held.bytes.data() + held.egress_at,
               held.bytes.size() - held.egress_at);
      for (EgressRecord& rec : read_egress(r))
        requeue.push_back(std::move(rec));
    }
    for (auto& rec : out_egress_) requeue.push_back(std::move(rec));
    out_egress_.swap(requeue);
    unconfirmed_.clear();
  }
  // After stop() or kill(), requests the front already sent are still
  // answered — at most its window of kMaxInflight — so it reads their acks
  // and a clean EOF instead of a reset.
  std::size_t after_stop = 0;
  for (;;) {
    Message req;
    try {
      if (!conn.wait_readable(wake_)) return;  // stopped, nothing in flight
      if (stopping_.load(std::memory_order_acquire) &&
          ++after_stop > kMaxInflight)
        return;
      req = conn.recv_msg(Clock::now() + cfg_.io_timeout);
    } catch (const RpcError&) {
      // Disconnect (or a mid-message stall, which leaves the stream in an
      // undefined position — same remedy): drop the connection and go back
      // to accept().  The front tier reconnects and re-sends; seq dedup
      // absorbs anything we already applied.
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
      // Request n proves replies up to n - kMaxInflight arrived: their
      // egress is now safely the front's problem.  The reply to this request
      // opens the newest unconfirmed entry.
      while (unconfirmed_.size() >= kMaxInflight) {
        std::vector<std::uint8_t>& confirmed = unconfirmed_.front().bytes;
        if (confirmed.capacity() > spare_ack_.capacity())
          spare_ack_.swap(confirmed);
        unconfirmed_.pop_front();
      }
      unconfirmed_.emplace_back();
    }
    try {
      if (!handle(conn, req)) return;
    } catch (const FramingError& e) {
      reply_error(conn, std::string("bad payload: ") + e.what());
    } catch (const RpcError&) {
      return;  // reply failed: connection is gone
    }
  }
}

bool WorkerServer::handle(Conn& conn, const Message& req) {
  switch (req.type) {
    case MsgType::kHello:
      handle_hello(conn, req);
      return true;
    case MsgType::kIngestBatch:
      handle_ingest(conn, req);
      return true;
    case MsgType::kHeartbeat:
      handle_heartbeat(conn, req);
      return true;
    case MsgType::kSnapshotReq:
      handle_snapshot(conn, req);
      return true;
    case MsgType::kRestoreReq:
      handle_restore(conn, req);
      return true;
    case MsgType::kSwapEngine:
      handle_swap(conn, req);
      return true;
    case MsgType::kFlushReq:
      handle_flush(conn);
      return true;
    case MsgType::kStop:
      stopping_.store(true, std::memory_order_release);
      return false;
    default:
      reply_error(conn, std::string("unexpected message type: ") +
                            to_string(req.type));
      return true;
  }
}

void WorkerServer::reply(Conn& conn, MsgType type,
                         const std::vector<std::uint8_t>& payload) {
  conn.send_msg(type, payload, Clock::now() + cfg_.io_timeout);
}

void WorkerServer::reply_error(Conn& conn, const std::string& what) {
  try {
    reply(conn, MsgType::kError, encode_error(ErrorMsg{what}));
  } catch (const RpcError&) {
    // Connection already gone; the serve loop notices on the next read.
  }
}

std::vector<EgressRecord> WorkerServer::take_egress() {
  std::vector<EgressRecord> out;
  out.reserve(out_egress_.size());
  for (EgressRecord& rec : out_egress_) out.push_back(std::move(rec));
  out_egress_.clear();
  return out;
}

void WorkerServer::hold_unconfirmed(const std::vector<std::uint8_t>& payload,
                                    const std::vector<EgressRecord>& egress) {
  stats_.egress_returned += egress.size();
  if (egress.empty()) return;
  std::size_t frame_bytes = 0;
  for (const EgressRecord& rec : egress) frame_bytes += rec.bytes.size();
  const std::size_t section = egress_section_bytes(egress.size(), frame_bytes);
  // The entry serve_connection opened for this request.
  unconfirmed_.back().bytes.assign(payload.end() - section, payload.end());
}

void WorkerServer::handle_hello(Conn& conn, const Message& req) {
  const Hello hello = decode_hello(req.payload.data(), req.payload.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (hello.version != kProtocolVersion) {
    reply_error(conn, "protocol version mismatch");
    return;
  }
  if (!cfg_.algorithm.empty() && hello.algorithm != cfg_.algorithm) {
    reply_error(conn, "algorithm mismatch: worker runs " + cfg_.algorithm);
    return;
  }
  if (hello.num_slots != cfg_.num_slots) {
    reply_error(conn, "slot count mismatch");
    return;
  }
  if (hello.header_bytes != rx_->header_bytes()) {
    reply_error(conn, "wire header size mismatch");
    return;
  }
  HelloAck ack;
  ack.num_slots = static_cast<std::uint32_t>(cfg_.num_slots);
  ack.engine = static_cast<std::uint8_t>(proto_.active_engine());
  reply(conn, MsgType::kHelloAck, encode_hello_ack(ack));
}

FrameStatus WorkerServer::verdict(const FrameRef& f,
                                  banzai::Packet& pkt) const {
  const wire::ParseResult pr = rx_->parse_exact(f.data, f.len, pkt);
  if (!pr.ok()) return reject_status(pr.status);
  // The front keys dedup on the slot it declares; the state a frame mutates
  // is the slot its flow key hashes to here.  They must agree, or a frame
  // would move one slot's watermark while it mutates another slot's state.
  if (core_->slot_of(pkt) != f.slot) return FrameStatus::kRejectBadValue;
  return FrameStatus::kAccepted;
}

void WorkerServer::handle_ingest(Conn& conn, const Message& req) {
  // Validates the whole payload before any slot is touched.
  const IngestBatchView batch =
      view_ingest_batch(req.payload.data(), req.payload.size());
  const std::vector<std::uint8_t>* payload = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t num_fields = rx_->num_table_fields();
    std::size_t n = 0;  // accepted so far: batch_in_[0, n) is their packets
    for (const FrameRef& f : batch) {
      FrameStatus st = FrameStatus::kRejectBadValue;
      if (f.slot < applied_seq_.size()) {
        if (n == batch_in_.size()) batch_in_.emplace_back(num_fields);
        banzai::Packet& pkt = batch_in_[n];
        // A reused packet must be indistinguishable from a fresh one: parse
        // writes only header fields, and a fresh packet's others are 0.
        if (pkt.num_fields() == num_fields)
          std::fill(pkt.data(), pkt.data() + num_fields, 0);
        else
          pkt = banzai::Packet(num_fields);
        st = verdict(f, pkt);
        // At or below the slot's watermark is a retry or a network
        // duplicate: the at-least-once channel meeting the exactly-once
        // state machine.  Only an APPLIED frame dedups to kDuplicate.  A
        // REJECTED frame never advanced applied_seq_, but once a later
        // frame in the slot did, its retry (after a lost ack) lands here
        // too, and answering it kDuplicate would be fatal: the front only
        // tombstones reject statuses, so the seq would never settle.  The
        // verdict is deterministic on identical bytes, so it is simply
        // recomputed.
        if (st == FrameStatus::kAccepted && f.seq <= applied_seq_[f.slot])
          st = FrameStatus::kDuplicate;
        if (st == FrameStatus::kAccepted) {
          batch_slots_.push_back(f.slot);
          batch_seqs_.push_back(f.seq);
          applied_seq_[f.slot] = f.seq;
          ++n;
        }
      }
      batch_status_.push_back(st);
      if (st == FrameStatus::kAccepted)
        ++stats_.frames_accepted;
      else if (st == FrameStatus::kDuplicate)
        ++stats_.frames_duplicate;
      else
        ++stats_.frames_rejected;
    }

    if (batch_out_.size() < n) batch_out_.resize(n);
    core_->drain(0, batch_slots_.data(), batch_in_.data(), n,
                 batch_out_.data());

    // The ack, written in place: every status, then redelivery owed from a
    // lost connection, then this request's own egress in arrival order.
    const std::size_t header = tx_->header_bytes();
    std::size_t owed_bytes = 0;
    for (const EgressRecord& rec : out_egress_) owed_bytes += rec.bytes.size();
    const std::size_t egress = out_egress_.size() + n;
    std::vector<std::uint8_t> ack = std::move(spare_ack_);
    IngestAckWriter w(ack, batch.size(), egress, owed_bytes + n * header);
    std::size_t i = 0;
    for (const FrameRef& f : batch) w.status(f.seq, batch_status_[i++]);
    for (const EgressRecord& rec : out_egress_) {
      std::uint8_t* dst = w.egress(rec.seq, rec.bytes.size());
      if (!rec.bytes.empty())
        std::memcpy(dst, rec.bytes.data(), rec.bytes.size());
    }
    for (i = 0; i < n; ++i)
      tx_->deparse_into(batch_out_[i], w.egress(batch_seqs_[i], header));
    out_egress_.clear();
    stats_.egress_returned += egress;
    // The drained packets go back to batch_in_, so their field storage
    // serves the next request.
    for (i = 0; i < n; ++i) std::swap(batch_in_[i], batch_out_[i]);
    batch_status_.clear();
    batch_slots_.clear();
    batch_seqs_.clear();
    // Held before it is sent, so a failed send still redelivers.
    Unconfirmed& held = unconfirmed_.back();  // opened for this request
    held.bytes = std::move(ack);
    held.egress_at = w.egress_offset();
    payload = &held.bytes;
    ++ingest_count_;
  }
  if (cfg_.stall_every != 0 && ingest_count_ % cfg_.stall_every == 0) {
    // Chaos knob: the frames above are APPLIED but the ack is late — the
    // front tier times out, retries, and must see kDuplicate. Sleeping
    // outside mu_ keeps kill()/stats() responsive.
    std::this_thread::sleep_for(cfg_.stall_for);
  }
  // Only this thread changes unconfirmed_ while it serves, and the next
  // request is what confirms (and may drop) this entry.
  reply(conn, MsgType::kIngestAck, *payload);
}

void WorkerServer::handle_heartbeat(Conn& conn, const Message& req) {
  const Heartbeat hb = decode_heartbeat(req.payload.data(), req.payload.size());
  HeartbeatAck ack;
  ack.nonce = hb.nonce;
  std::lock_guard<std::mutex> lock(mu_);
  // Every accepted frame ran to completion inside its own request.
  ack.delivered = stats_.frames_accepted;
  ack.egress = take_egress();
  const auto payload = encode_heartbeat_ack(ack);
  hold_unconfirmed(payload, ack.egress);
  reply(conn, MsgType::kHeartbeatAck, payload);
}

void WorkerServer::handle_flush(Conn& conn) {
  // Nothing is in flight between requests: a flush only hands back egress
  // queued for redelivery.
  FlushAck ack;
  std::lock_guard<std::mutex> lock(mu_);
  ack.egress = take_egress();
  const auto payload = encode_flush_ack(ack);
  hold_unconfirmed(payload, ack.egress);
  reply(conn, MsgType::kFlushAck, payload);
}

void WorkerServer::handle_snapshot(Conn& conn, const Message& req) {
  const SnapshotReq snap_req =
      decode_snapshot_req(req.payload.data(), req.payload.size());
  SnapshotResp resp;
  std::lock_guard<std::mutex> lock(mu_);
  // Checkpoint barrier for free: every accepted frame already ran to
  // completion, so each slot's live state and applied_seq_ agree exactly.
  std::vector<std::uint32_t> slots = snap_req.slots;
  if (slots.empty())
    for (std::uint32_t s = 0; s < cfg_.num_slots; ++s) slots.push_back(s);
  resp.slots.reserve(slots.size());
  for (std::uint32_t s : slots) {
    if (s >= cfg_.num_slots) {
      reply_error(conn, "snapshot: slot out of range");
      return;
    }
    SlotState st;
    st.slot = s;
    st.applied_seq = applied_seq_[s];
    st.state = serialize_state_store(core_->slot_machine(s).state());
    resp.slots.push_back(std::move(st));
  }
  resp.egress = take_egress();
  const auto payload = encode_snapshot_resp(resp);
  hold_unconfirmed(payload, resp.egress);
  reply(conn, MsgType::kSnapshotResp, payload);
}

void WorkerServer::handle_restore(Conn& conn, const Message& req) {
  const RestoreReq restore =
      decode_restore_req(req.payload.data(), req.payload.size());
  std::lock_guard<std::mutex> lock(mu_);
  // Validate the WHOLE payload before touching ANY slot: decode every blob
  // and shape-check it against the live store.  A corrupt migration payload
  // must reject cleanly with the worker's state untouched — this is the
  // guard tests/dist_test.cc pins.
  std::vector<banzai::StateStore> stores;
  stores.reserve(restore.slots.size());
  for (const SlotState& s : restore.slots) {
    if (s.slot >= cfg_.num_slots) {
      ++stats_.restore_rejects;
      reply_error(conn, "restore: slot out of range");
      return;
    }
    banzai::StateStore store;
    if (s.state.empty()) {
      // The explicit "start from scratch" restore: the front has no
      // checkpoint for the slot and orders a reset to the prototype's
      // initial state, so the target starts from a known point even if it
      // silently kept stale state for the slot (it trivially matches the
      // live shape — it IS the live shape).
      store = initial_state_;
    } else {
      try {
        store = deserialize_state_store(s.state.data(), s.state.size());
      } catch (const FramingError& e) {
        ++stats_.restore_rejects;
        reply_error(conn, std::string("restore: corrupt state blob: ") +
                              e.what());
        return;
      }
      if (!store.same_shape(core_->slot_machine(s.slot).state())) {
        ++stats_.restore_rejects;
        reply_error(conn, "restore: state shape mismatch");
        return;
      }
    }
    stores.push_back(std::move(store));
  }
  for (std::size_t i = 0; i < restore.slots.size(); ++i) {
    const SlotState& s = restore.slots[i];
    core_->slot_machine(s.slot).restore_state(stores[i]);
    applied_seq_[s.slot] = s.applied_seq;
    ++stats_.restores;
  }
  reply(conn, MsgType::kRestoreAck, {});
}

void WorkerServer::handle_swap(Conn& conn, const Message& req) {
  const SwapEngine swap =
      decode_swap_engine(req.payload.data(), req.payload.size());
  if (swap.engine > static_cast<std::uint8_t>(banzai::ExecEngine::kNative)) {
    reply_error(conn, "swap: unknown engine");
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Cutover between requests: snapshot every slot, rebuild the core on the
  // new engine, restore.  The same move a recompiled pipeline would use to
  // hot-swap mid-stream.
  const std::vector<banzai::StateStore> snap = core_->snapshot_state();
  proto_.set_engine(static_cast<banzai::ExecEngine>(swap.engine));
  core_ = make_core();
  core_->restore_state(snap);
  ++stats_.engine_swaps;
  SwapAck ack;
  ack.active_engine = static_cast<std::uint8_t>(proto_.active_engine());
  reply(conn, MsgType::kSwapAck, encode_swap_ack(ack));
}

}  // namespace dist
