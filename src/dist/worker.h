// WorkerServer: one process (or in-process harness instance) of the
// distributed fleet.  It owns a banzai::ShardCore built from a compiled
// machine, listens on a TCP port, and serves the front tier's RPC protocol
// (dist/framing.h): byte-frame ingest with per-slot sequence dedup, egress
// return tagged with the front tier's global sequence numbers, snapshot /
// restore of whole slots (the live-migration payload), engine hot-swap, and
// heartbeats.
//
// Run to completion: each request executes entirely on the serve thread
// before its reply is written.  An INGEST_BATCH is validated, deduped,
// parsed, drained through the ShardCore, deparsed and acknowledged — and the
// ack carries the egress of its own accepted frames.  That path allocates
// nothing per frame: frames are parsed in place from the request payload
// into reused packets, and egress is deparsed straight into the ack.  The core has one shard, so
// the accepted frames drain in a single call, in arrival order, and egress i
// is frame i's.  No frame is ever in flight between requests, so snapshot,
// restore, flush and engine swap are plain reads and writes of slot state:
// no barrier stops or restarts a thread.
//
// Robustness contracts this side enforces:
//   * At-least-once ingest, exactly-once apply: the front tier may re-send
//     any frame (retry after a timeout, replay after a migration).  The
//     worker tracks the highest applied sequence number per slot; a frame
//     with seq <= applied_seq[slot] never touches slot state.  Per-slot
//     frames arrive in sequence order, so the monotonic check is an exact
//     dedup, not a heuristic.  An APPLIED frame at-or-below the watermark is
//     acknowledged kDuplicate; a REJECTED one (which never advanced the
//     watermark) is re-answered its original reject status — parsing is
//     deterministic on identical bytes, so re-parsing reconstructs the
//     verdict exactly and the front's tombstone stays redeliverable even
//     after a later frame in the slot moved the watermark past it.
//   * The declared slot is checked: a frame whose FrameRecord::slot is not
//     the slot its own flow key hashes to is rejected kRejectBadValue, so
//     the watermark a frame moves and the state it mutates are always the
//     same slot's.
//   * Corrupt migration payloads reject cleanly: a RestoreReq is fully
//     validated (framing decode, state-shape check against the live store,
//     slot bounds) BEFORE any slot is touched; on any failure the worker
//     answers kError and keeps serving with its state untouched.  An EMPTY
//     state blob is the one exception to "blob must decode": it is the
//     front's explicit "start from scratch" order, resetting the slot to
//     the prototype's initial state (and applied_seq to the given value) so
//     a target that silently kept stale state for the slot — e.g. a
//     partitioned-but-alive worker being re-admitted — starts from the same
//     known point a pristine worker would.
//   * A lost connection is not a crash: the serve loop returns to accept(),
//     so a front tier that reconnects (with a fresh HELLO) resumes against
//     the same state and the same dedup table.
//   * Event-driven: the serve loop blocks in one poll on the connection and
//     a wake fd, so a request is served the moment it lands, and stop() /
//     kill() interrupt an idle connection at once.
//
// kill() simulates a process crash for in-process chaos tests: the
// connection drops (once the requests already sent are answered, as if the
// crash came a moment later) and ALL slot state is discarded (a SIGKILL'd
// process loses its memory) — recovery must come from the front tier's
// checkpoint + replay, which is exactly what the chaos suite verifies.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "banzai/fleet.h"
#include "banzai/machine.h"
#include "banzai/packet.h"
#include "banzai/state.h"
#include "dist/framing.h"
#include "dist/rpc.h"
#include "wire/codec.h"

namespace dist {

struct WorkerConfig {
  std::uint16_t port = 0;        // 0 = ephemeral (read back from port())
  std::string algorithm;         // corpus algorithm name (HELLO validation)
  std::size_t num_slots = 16;    // global slot table size (fleet-wide)
  // Unused: every request drains on the serve thread alone.  Splitting a
  // request's frames over helper threads measured no faster (EXPERIMENTS.md,
  // "Distributed — run-to-completion worker").  Kept so existing callers
  // still build.
  std::size_t num_shards = 2;
  std::size_t batch_size = 64;
  std::vector<std::string> flow_key;  // field names, resolved per machine
  // Deadline for any single send/recv on the serve connection.
  Millis io_timeout{2000};
  // Chaos knob: stall (sleep) before answering every Nth ingest request,
  // long enough to blow the front tier's RPC deadline — drives the
  // timeout -> retry -> duplicate-ack path deterministically.  0 = off.
  std::uint32_t stall_every = 0;
  Millis stall_for{0};
};

struct WorkerStats {
  std::uint64_t requests = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_duplicate = 0;  // deduped by the per-slot seq guard
  std::uint64_t frames_rejected = 0;   // parse rejections (typed, counted)
  std::uint64_t egress_returned = 0;
  std::uint64_t restores = 0;          // slots installed via RestoreReq
  std::uint64_t restore_rejects = 0;   // corrupt payloads refused
  std::uint64_t engine_swaps = 0;
  std::uint64_t reconnects = 0;        // accepted front-tier connections - 1
};

class WorkerServer {
 public:
  // The machine prototype must carry the algorithm's compiled pipeline; rx
  // parses ingress frames, tx deparses egress (built with the compiler's
  // output_map).  The slots start on the prototype's engine.
  WorkerServer(const banzai::Machine& prototype,
               std::shared_ptr<const wire::WireCodec> rx,
               std::shared_ptr<const wire::WireCodec> tx, WorkerConfig cfg);
  ~WorkerServer();
  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  // Binds the port and spawns the serve thread.  Throws RpcError on bind
  // failure.
  void start();

  // Graceful shutdown: unblocks the serve loop and joins it.  Idempotent.
  void stop();

  // Crash simulation: drop connections and DISCARD all slot state (fresh
  // slots, zeroed dedup table), as a killed process would.  The listener
  // stays closed until restart().
  void kill();

  // Brings a killed worker back on the same port with fresh state — the
  // "restarted process" half of a chaos schedule.
  void restart();

  // Serves requests on the calling thread until kStop or kill()/stop() —
  // the worker-main entry point for real processes (examples/dist_worker).
  void serve_forever();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  WorkerStats stats() const;

 private:
  void serve_loop();
  void serve_connection(Conn& conn);
  // Handles one request; returns false when the connection should close.
  bool handle(Conn& conn, const Message& req);
  void reply(Conn& conn, MsgType type,
             const std::vector<std::uint8_t>& payload);
  void reply_error(Conn& conn, const std::string& what);

  // Moves every queued egress record (redelivery after a reconnect) into a
  // response.
  std::vector<EgressRecord> take_egress();
  // Holds a control reply's egress (the section that ends `payload`) until
  // a later request confirms the reply arrived.
  void hold_unconfirmed(const std::vector<std::uint8_t>& payload,
                        const std::vector<EgressRecord>& egress);

  // The verdict on one frame's bytes for its declared slot: a typed parse
  // reject, kRejectBadValue when the flow key hashes to another slot, else
  // kAccepted.  Parses into pkt, which must be zeroed.
  FrameStatus verdict(const FrameRef& f, banzai::Packet& pkt) const;

  void handle_ingest(Conn& conn, const Message& req);
  void handle_snapshot(Conn& conn, const Message& req);
  void handle_restore(Conn& conn, const Message& req);
  void handle_swap(Conn& conn, const Message& req);
  void handle_flush(Conn& conn);
  void handle_hello(Conn& conn, const Message& req);
  void handle_heartbeat(Conn& conn, const Message& req);

  // A fresh ShardCore on the prototype's current engine.
  std::unique_ptr<banzai::ShardCore> make_core() const;
  // Discards all slot state, the dedup table and queued egress.
  void reset_state();

  banzai::Machine proto_;
  std::shared_ptr<const wire::WireCodec> rx_, tx_;
  WorkerConfig cfg_;
  std::vector<banzai::FieldId> flow_key_;
  // The prototype's pristine state: the restore point an empty-blob
  // RestoreReq resets a slot to.  Captured once; engine swaps don't touch it.
  banzai::StateStore initial_state_;

  // Everything below mu_ is touched by the serve thread and by the control
  // surface (kill/restart/stats) — coarse lock, zero contention in steady
  // state because control calls are rare.
  mutable std::mutex mu_;
  std::unique_ptr<banzai::ShardCore> core_;
  std::vector<std::uint64_t> applied_seq_;  // per slot, 0 = nothing applied
  std::deque<EgressRecord> out_egress_;     // queued for the next reply
  // Egress of the most recent replies, one entry per reply, oldest first,
  // kept encoded: `bytes` from `egress_at` on is the reply's egress section
  // (an ingest ack's whole payload is moved in; a control reply keeps only
  // its section; no egress leaves `bytes` empty).  The front keeps at most
  // kMaxInflight requests outstanding, so request n on the same connection
  // proves replies up to n - kMaxInflight arrived (confirmed -> dropped); a
  // NEW connection instead means any of the rest may have died with the old
  // one, so their sections decode back onto out_egress_.  The front tier's
  // window dedups the ones that did arrive.
  struct Unconfirmed {
    std::vector<std::uint8_t> bytes;
    std::size_t egress_at = 0;
  };
  std::deque<Unconfirmed> unconfirmed_;
  // A confirmed ack's payload buffer, reused for the next ack.
  std::vector<std::uint8_t> spare_ack_;
  WorkerStats stats_;
  std::uint64_t conns_seen_ = 0;
  std::uint32_t ingest_count_ = 0;          // for the stall_every knob

  // One ingest request's verdicts, and its accepted frames in arrival order:
  // their slots, parsed and processed packets, and global seqs.  Reused
  // across requests: batch_in_ keeps every packet it ever held (the drained
  // ones swap back in), so steady-state ingest allocates no packet.
  std::vector<FrameStatus> batch_status_;
  std::vector<std::size_t> batch_slots_;
  std::vector<banzai::Packet> batch_in_, batch_out_;
  std::vector<std::uint64_t> batch_seqs_;

  Listener listener_;
  Waker wake_;  // signalled by stop()/kill() to end an idle serve_connection
  std::uint16_t port_ = 0;
  std::thread server_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace dist
