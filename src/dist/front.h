// FrontTier: the client half of the distributed fleet.  It hashes every
// ingress frame to a slot (the same chained-SplitMix64 flow hash the workers
// use internally), routes the slot to its owning worker over the dist RPC
// protocol, and reassembles a single, globally ordered, exactly-once egress
// stream out of whatever the workers return — through retries, duplicated
// frames, worker deaths and live slot migrations.
//
// The machinery, end to end:
//
//   offer(bytes) ──hash──► slot ──► per-slot resend log: the one copy of
//                                   the bytes (records + byte arena)
//                                        │ record pointers
//                   owner table ──► per-worker outbox ──► INGEST_BATCH,
//                                   encoded from the log in place
//                                   (batched RPC, kMaxInflight deep)
//                                                      │
//   EgressWindow ◄── seq-tagged egress piggybacked on every ack
//   (dedup + global order + tombstones for rejects; a frame that arrives
//   in order with nothing buffered skips the window)
//
// Ingest is pipelined: a full batch goes out without waiting for earlier
// acks, up to kMaxInflight (dist/framing.h) INGEST_BATCH requests per
// worker.  Acks settle in FIFO order and only then pop their frames from the
// outbox, so after any failure the outbox front is exactly what must be
// re-sent.  Every other RPC first settles all outstanding acks, which keeps
// flush, checkpoint and migration barriers exact.
//
// Fault model and the invariant it preserves: any RPC may time out or the
// connection may die at any point.  The front then retries the same frames
// after bounded-exponential backoff (the worker's per-slot seq dedup makes
// the resend idempotent), and the per-worker FailureDetector escalates
// healthy -> suspect -> dead.  On death, the dead worker's slots are
// restored onto survivors from the last checkpoint (RestoreReq carrying the
// snapshot blobs + applied seqs) and every buffered frame newer than the
// checkpoint is replayed in per-slot seq order.  Because the engines are
// deterministic and the EgressWindow dedups by global seq, the drained
// egress is bit-exact against one sequential Machine::process reference —
// including across a mid-burst kill.  tests/dist_chaos_test.cc pins exactly
// that.
//
// Threading contract: the front tier is caller-driven (one thread pumps
// offer/flush/checkpoint/heartbeat).  That keeps every chaos schedule
// deterministic: no internal threads, no clocks in the control flow.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "banzai/packet.h"
#include "dist/framing.h"
#include "dist/health.h"
#include "dist/rpc.h"
#include "wire/codec.h"

namespace dist {

// A worker refused a RestoreReq at the protocol level (corrupt blob, shape
// mismatch, bad slot).  Retrying cannot help, so restore_to() lets this
// escape instead of treating it as a transport failure — distinct from the
// RpcError/RpcTimeout a dying connection throws, which restore_to absorbs
// and retries.  Still an RpcError subtype so callers that only distinguish
// "the RPC tier gave up" keep working.
class RestoreRejected : public RpcError {
 public:
  using RpcError::RpcError;
};

// The slot a parsed frame belongs to: chained SplitMix64 over its flow-key
// fields, modulo num_slots (slot 0 when num_slots <= 1).  The same map as
// banzai::ShardCore::slot_of, against which a worker checks every declared
// FrameRecord::slot.
std::size_t slot_of_packet(const banzai::Packet& pkt,
                           const std::vector<banzai::FieldId>& flow_key,
                           std::size_t num_slots);

struct FrontConfig {
  std::string algorithm;          // sent in HELLO; workers cross-check
  std::size_t num_slots = 16;     // must match every worker
  std::vector<banzai::FieldId> flow_key;  // resolved against the codec table
  Millis rpc_timeout{1000};
  Millis connect_timeout{1000};
  Millis backoff_base{5};
  Millis backoff_max{200};
  std::uint64_t seed = 1;         // backoff jitter + chaos schedules
  std::uint32_t dead_after = 3;   // consecutive failures before migration
  std::size_t max_batch = 64;     // frames per IngestBatch RPC
  // Resend-log bound: when this many frames are logged fleet-wide, the
  // front forces a checkpoint (which trims every log to the unapplied
  // tail).  At-least-once replay needs the log; the bound keeps it from
  // growing without limit on a checkpoint-shy caller.
  std::size_t resend_limit = 8192;
  // Chaos knob: re-send every Nth ingest batch verbatim after its ack — the
  // workers must answer all-kDuplicate and the egress stream must not care.
  std::uint32_t dup_every = 0;
  // Max consecutive failures (reconnects and RPCs, reset by any settled
  // ack) per flush_worker pass before the worker is declared dead
  // (prevents an unbounded retry loop when dead_after is large and the
  // worker is truly gone).
  std::uint32_t max_attempts = 10;
};

struct FrontStats {
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_sent = 0;      // including retries and replays
  std::uint64_t frames_acked = 0;     // kAccepted acks
  std::uint64_t dup_acks = 0;         // kDuplicate acks (dedup at the worker)
  std::uint64_t rejects = 0;          // typed parse rejects -> tombstones
  std::uint64_t retries = 0;          // RPCs re-issued after timeout/error
  std::uint64_t reconnects = 0;       // successful reconnect handshakes
  std::uint64_t migrations = 0;       // dead-worker slot migrations
  std::uint64_t slot_moves = 0;       // slots moved (migration + rebalance)
  std::uint64_t checkpoints = 0;
  std::uint64_t replays = 0;          // frames replayed from resend logs
  std::uint64_t egress_frames = 0;    // settled egress drained so far
  std::uint64_t egress_duplicates = 0;  // dropped by the window dedup
  // Ack/egress seqs outside the issued range [1, next_seq): a corrupted (but
  // well-framed) worker reply; dropped before they can touch the window.
  std::uint64_t egress_corrupt = 0;
  std::uint64_t heartbeats = 0;
  // Gauges: frames and frame bytes held in the resend logs right now.
  // resend_frames stays at or below resend_limit while checkpoints succeed.
  std::uint64_t resend_frames = 0;
  std::uint64_t resend_bytes = 0;
};

struct WorkerView {
  std::uint16_t port = 0;
  HealthState health = HealthState::kHealthy;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t deaths = 0;
  std::uint64_t recoveries = 0;
  std::size_t slots_owned = 0;
  bool connected = false;
};

// Reorders worker egress into one global exactly-once stream.  Frames arrive
// tagged with the front tier's sequence numbers (possibly duplicated after a
// retry or replay); rejected seqs become tombstones so the watermark never
// stalls on a frame that produced no output.
class EgressWindow {
 public:
  // True when the record was fresh (its bytes are copied in), false when
  // deduped.  A fresh seq that is next in order while nothing is buffered
  // goes straight to the drain queue.
  bool deliver(std::uint64_t seq, const std::uint8_t* data, std::size_t len);
  bool tombstone(std::uint64_t seq);

  std::vector<std::vector<std::uint8_t>> drain();

  // First seq not yet settled; when it reaches the offer counter + 1 every
  // offered frame is accounted for.
  std::uint64_t watermark() const { return next_; }
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  struct Cell {
    enum State : std::uint8_t { kPending, kFilled, kTombstone };
    State state = kPending;
    std::vector<std::uint8_t> bytes;
  };
  // The pending cell for seq, or nullptr (counted) when seq already
  // settled.
  Cell* claim(std::uint64_t seq);
  void advance();

  std::deque<Cell> window_;  // window_[i] holds seq next_ + i
  std::vector<std::vector<std::uint8_t>> ready_;
  std::uint64_t next_ = 1;  // seqs start at 1 (0 = "nothing applied")
  std::uint64_t duplicates_ = 0;
};

class FrontTier {
 public:
  // `rx` parses frames only to compute the flow hash; the original bytes are
  // what travels to the workers.  It must be the same spec the workers parse
  // with, bound against the same field layout.
  FrontTier(std::shared_ptr<const wire::WireCodec> rx, FrontConfig cfg);

  // Registers a worker (must all be added before connect()).  Returns its
  // index.  Initial slot ownership is round-robin: slot s -> worker s % N.
  std::size_t add_worker(std::uint16_t port);

  // Connects + HELLO-handshakes every worker.  Throws RpcError if any worker
  // is unreachable at startup (later failures are handled, not thrown).
  void connect();

  // Offers one ingress frame: assigns the next global seq, appends it to its
  // slot's resend log (the front's only copy of the bytes), routes a
  // pointer to the record to the slot's owner, and flushes any outbox that
  // reached max_batch.  Allocates nothing per frame.  Malformed frames still
  // get a seq (the worker rejects them with a typed status and the window
  // tombstones the seq).
  void offer(const std::uint8_t* data, std::size_t len);
  void offer(const std::vector<std::uint8_t>& frame) {
    offer(frame.data(), frame.size());
  }

  // Sends every buffered frame and runs FlushReq rounds until every offered
  // seq is settled (delivered or tombstoned).  Survives worker deaths
  // mid-flush: migration + replay happen inline.
  void flush();

  // Checkpoint barrier: snapshots every owned slot on every alive worker,
  // stores the blobs as the migration fallback, trims the resend logs.
  void checkpoint();

  // Probes every alive worker (egress piggybacks on the acks); drives the
  // failure detectors for idle periods.
  void heartbeat();

  // Moves one slot to another worker under load: checkpoint the slot on its
  // current owner (drain barrier), restore on the target, replay the
  // unapplied tail.  Works whether the current owner is alive (live
  // rebalance) or dead (the migration path with the *last* checkpoint).  If
  // the owner is alive but the barrier snapshot keeps failing, the move is
  // ABORTED (throws RpcError, ownership unchanged) rather than shipping a
  // stale restore point while the owner holds newer state; if the owner
  // dies during the barrier, the move degrades to the migration path.
  void move_slot(std::size_t slot, std::size_t to_worker);

  // Hot-swaps every worker onto another execution engine mid-stream.
  void swap_engine(std::uint8_t engine);

  // Marks a worker dead immediately and migrates its slots (the caller knows
  // something the detector doesn't, e.g. the chaos harness just killed it).
  void evict(std::size_t worker);

  // Re-admits a worker that was dead (e.g. a restarted process): reconnect +
  // HELLO; the worker starts owning nothing until move_slot hands it work.
  bool readmit(std::size_t worker);

  // Settled egress in global offer order, exactly once.
  std::vector<std::vector<std::uint8_t>> drain_egress();

  bool settled() const { return window_.watermark() == next_seq_; }
  std::size_t num_workers() const { return workers_.size(); }
  std::size_t owner_of(std::size_t slot) const { return owner_.at(slot); }
  FrontStats stats() const;
  WorkerView worker_view(std::size_t w) const;

 private:
  // One INGEST_BATCH awaiting its ack.
  struct Inflight {
    std::size_t frames = 0;
    bool dup = false;                  // dup_every re-send: pops nothing
    std::vector<std::uint8_t> payload;  // kept only when dup_every is on
  };

  // One offered frame in its slot's resend log: its bytes are
  // arena[offset, offset + len) of that log.
  struct LogRecord {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::size_t offset = 0;
    std::size_t len = 0;
  };

  // A slot's frames since its last checkpoint, in seq order.  Outboxes hold
  // pointers into `records`; only push_back and pop_front touch it, and
  // those never move the other elements.
  struct SlotLog {
    std::deque<LogRecord> records;
    std::vector<std::uint8_t> arena;
  };

  struct WorkerLink {
    std::uint16_t port = 0;
    Conn conn;
    FailureDetector detector;
    std::uint32_t attempt = 0;           // reconnect backoff exponent
    // outbox[0, unacked) is in flight, in the batches listed by inflight
    // (oldest first); the rest is not sent yet.
    std::deque<const LogRecord*> outbox;
    std::size_t unacked = 0;
    std::deque<Inflight> inflight;
    std::vector<std::uint8_t> batch;     // INGEST_BATCH payload, reused
    std::uint64_t hb_nonce = 0;
  };

  std::size_t slot_of_frame(const std::uint8_t* data, std::size_t len);
  FrameRef frame_ref(const LogRecord& rec) const;
  void route(const LogRecord& rec);  // outbox only, no log append
  bool ensure_connected(WorkerLink& w);
  void hello(WorkerLink& w);
  // One request/response exchange after settling every outstanding ingest
  // ack; throws RpcTimeout/RpcError/FramingError.
  Message call(WorkerLink& w, MsgType type,
               const std::vector<std::uint8_t>& payload);
  // Closes the connection; the batches in flight on it are forgotten, so the
  // outbox is re-sent from its front.
  void on_rpc_failure(WorkerLink& w, bool timeout);
  // Sends the next unsent outbox frames (up to max_batch) as one
  // INGEST_BATCH without waiting for the ack.
  void send_batch(WorkerLink& w);
  // Receives the oldest outstanding ack, waiting up to rpc_timeout, and
  // settles it in place: statuses, egress, outbox pop.  Throws like call(),
  // and a malformed ack throws before any of it is applied.
  void settle_one(WorkerLink& w);
  // Settles the acks that already arrived, without blocking; returns true if
  // it settled any.  Also surfaces a peer that hung up.
  bool settle_ready(WorkerLink& w);
  void process_status(std::uint64_t seq, FrameStatus status);
  // Delivers each record's bytes to the window.
  void process_egress(const std::vector<EgressRecord>& egress);
  // Sends one worker's outbox in pipelined batches, with retry/backoff;
  // migrates and re-routes if the worker dies.  Without `drain` it sends
  // only full batches and returns with up to kMaxInflight still in flight;
  // with `drain` it sends everything and settles every ack.  Returns false
  // if the worker died.
  bool flush_worker(std::size_t wi, bool drain = true);
  void flush_all_outboxes();
  void migrate(std::size_t dead);
  // Installs slot blobs on `target`, retrying through connection failures
  // (RpcTimeout / RpcError / FramingError all burn an attempt).  Returns
  // false when the target itself ran out of failure budget; throws
  // RestoreRejected when the worker refuses the payload (corrupt blob —
  // retrying cannot help).
  bool restore_to(std::size_t target, const RestoreReq& req);
  void replay_slot(std::size_t slot);
  // Drops `slot`'s log records up to applied_seq (they are baked into a
  // checkpoint) and compacts its arena.  Any of them still in the owner's
  // outbox (applied, but the ack was lost) leave it first.  Call only with
  // nothing in flight to the owner, i.e. right after call() succeeded.
  void trim_resend(std::size_t slot, std::uint64_t applied_seq);
  std::vector<std::size_t> owned_slots(std::size_t wi) const;
  std::size_t pick_survivor(std::size_t excluding, std::size_t salt) const;
  void deliver_tombstone(std::uint64_t seq);
  // True when a worker-reported seq is one the front actually issued;
  // otherwise counts it corrupt.  Gates every seq decoded from a reply
  // before it can reach the window (a huge seq would drive an unbounded
  // window resize).
  bool valid_egress_seq(std::uint64_t seq);
  // The restore payload for handing `slot` to a new owner: the last
  // checkpoint if there is one, else the explicit empty-blob "reset to
  // initial state" order — a target is never left trusting its own
  // (possibly stale) copy of the slot.
  RestoreReq restore_payload(std::size_t slot) const;

  std::shared_ptr<const wire::WireCodec> rx_;
  FrontConfig cfg_;
  Backoff backoff_;
  std::vector<WorkerLink> workers_;
  std::vector<std::size_t> owner_;               // slot -> worker index
  std::vector<SlotLog> resend_;                  // per slot; never resized
  std::map<std::size_t, SlotState> checkpoint_;  // slot -> last checkpoint
  std::size_t resend_total_ = 0;                 // records in all logs
  EgressWindow window_;
  std::uint64_t next_seq_ = 1;
  std::uint32_t batches_sent_ = 0;  // for the dup_every chaos knob
  banzai::Packet scratch_;          // parse target for slot hashing
  FrontStats stats_;
};

}  // namespace dist
