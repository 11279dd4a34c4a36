// FleetService: the always-on streaming form of the sharded engine.
//
// The paper's Banzai machine models a switch that never stops — packets
// arrive continuously and per-flow state persists indefinitely.  FleetService
// keeps a ShardCore (banzai/fleet.h) hot behind a live ingest path:
//
//   ingest thread ──hash──► per-shard SpscRing ──► shard worker ──► ShardCore
//        │                                              │
//        │ (Block: wait for space; DropTail: shed)      ▼
//        └──────────────── drop tombstones ───► OrderedEgress ──► drain()
//
// Every offered packet gets a global sequence number on the ingest thread;
// workers deliver processed packets to the OrderedEgress sink, which releases
// them strictly in arrival order (DropTail losses leave tombstones so the
// order watermark never stalls on a shed packet).
//
// Lifecycle: start() spawns one worker per shard; stop() drains every ring
// and joins (all accepted packets are delivered before stop returns);
// flush() blocks until everything offered so far is delivered or dropped.
// A stopped service can snapshot() its per-slot state, hand it to a service
// with a *different shard count* via restore(), and resume — state migrates
// with its slot (slot = flow_hash % num_slots is shard-count-independent),
// so the resharded service is bit-identical to a fresh one fed the same
// packets.  tests/service_test.cc and tests/service_fuzz_test.cc pin all of
// these contracts differentially against sequential Machine::process.
//
// Threading contract: at most one ingest thread at a time; drain_egress(),
// flush() and stats() may be called from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "banzai/fleet.h"
#include "banzai/spsc_ring.h"
#include "banzai/stats.h"
#include "wire/codec.h"

namespace banzai {

enum class Backpressure {
  kBlock,     // ingest waits for ring space: lossless, applies backpressure
  kDropTail,  // ingest sheds the packet when its shard's ring is full
};

struct ServiceConfig {
  std::size_t num_shards = 1;
  // State granularity: per-flow state lives in one of num_slots replicas, and
  // slots (not shards) are the unit of migration when resharding.  Must be
  // >= num_shards and must be kept identical across snapshot/restore.
  std::size_t num_slots = 64;
  std::size_t batch_size = 256;
  std::size_t ring_capacity = 1024;  // per shard, rounded up to a power of two
  Backpressure backpressure = Backpressure::kBlock;
  // Packet fields hashed together to pick a slot (and thus a shard).  Must be
  // non-empty unless num_slots == 1.
  std::vector<FieldId> flow_key;
  // Entries in the ingest-path heavy-hitter table (stats.h SpaceSaving,
  // keyed by flow_hash).  0 (the default) disables the detector entirely —
  // the ingest path then never touches it.
  std::size_t heavy_hitter_capacity = 0;
};

// Accounting for the byte-stream front end (ingest_frame / egress frames).
// The hardening invariant the wire fuzz suite pins: every offered frame is
// exactly one of parsed or rejected, and the per-status reject counters sum
// to frames_rejected — no frame is silently swallowed.
struct WireStats {
  std::uint64_t frames_parsed = 0;    // parsed clean and offered to ingest
  std::uint64_t frames_rejected = 0;  // sum of the three reject counters
  std::uint64_t reject_truncated = 0;
  std::uint64_t reject_oversized = 0;
  std::uint64_t reject_bad_value = 0;
  std::uint64_t bytes_in = 0;   // bytes of frames parsed clean
  std::uint64_t bytes_out = 0;  // bytes of egress frames deparsed
};

struct ServiceStats {
  std::uint64_t ingested = 0;   // offered = delivered + dropped + in flight
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;    // DropTail sheds
  WireStats wire;               // zero unless the byte path is in use
  double packets_per_sec = 0;   // delivered over wall-clock running time
  // Mean enqueue-to-egress latency where one tick == one subsequently
  // offered packet: a queueing-depth measure that is immune to clock jitter.
  double avg_latency_ticks = 0;
  // Latency quantiles in the same tick unit, from per-shard log2 histograms
  // merged at stats() time (stats.h): the reported value is the containing
  // bucket's upper edge, a conservative estimate within 2x.
  std::uint64_t latency_p50_ticks = 0;
  std::uint64_t latency_p99_ticks = 0;
  std::vector<std::size_t> queue_depth;  // current per-shard ring occupancy
  // Per-stage packets/ops/ns summed over every slot replica.  Exact (not
  // sampled) in -DDOMINO_STAGE_COUNTERS builds — tests/metrics_test.cc pins
  // the totals to a sequential reference per stage; all-zero otherwise.
  std::vector<StageCounterRow> stage_counters;
};

// Per-slot state checkpoint; the unit FleetService migrates on reshard.
struct ServiceSnapshot {
  std::size_t num_slots = 0;
  std::vector<StateStore> slot_state;
};

// Collects processed packets from all shard workers and releases them in
// global arrival (sequence) order.  Dropped sequence numbers are recorded as
// tombstones so the in-order watermark can pass over them.  Sequence numbers
// are dense, so the reorder window is a deque indexed by seq - next_ — O(1)
// per packet with no per-packet node allocation on the delivery hot path.
class OrderedEgress {
 public:
  void deliver(std::uint64_t seq, Packet&& pkt) {
    std::lock_guard<std::mutex> lock(mu_);
    put(seq, Cell::kDelivered, std::move(pkt));
    advance();
  }

  // Delivers n (seq, packet) pairs under one lock; pkts are consumed.
  void deliver_batch(const std::uint64_t* seqs, Packet* pkts, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < n; ++i)
      put(seqs[i], Cell::kDelivered, std::move(pkts[i]));
    advance();
  }

  void drop(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    put(seq, Cell::kDropped, Packet());
    advance();
  }

  // All packets whose order is settled (every earlier sequence number is
  // delivered or dropped), in arrival order; clears them from the sink.
  std::vector<Packet> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Packet> out = std::move(ready_);
    ready_.clear();
    return out;
  }

  // First sequence number not yet accounted for: when this reaches the
  // ingest counter, every offered packet is delivered or dropped.
  std::uint64_t watermark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_;
  }

 private:
  struct Cell {
    enum State : std::uint8_t { kPending, kDelivered, kDropped };
    State state = kPending;
    Packet pkt;
  };

  void put(std::uint64_t seq, Cell::State state, Packet&& pkt) {
    const std::size_t idx = static_cast<std::size_t>(seq - next_);
    if (idx >= window_.size()) window_.resize(idx + 1);
    window_[idx].state = state;
    window_[idx].pkt = std::move(pkt);
  }

  void advance() {
    while (!window_.empty() && window_.front().state != Cell::kPending) {
      if (window_.front().state == Cell::kDelivered)
        ready_.push_back(std::move(window_.front().pkt));
      window_.pop_front();
      ++next_;
    }
  }

  mutable std::mutex mu_;
  std::deque<Cell> window_;  // window_[i] holds sequence number next_ + i
  std::vector<Packet> ready_;
  std::uint64_t next_ = 0;
};

class FleetService {
 public:
  FleetService(const Machine& prototype, ServiceConfig config);
  ~FleetService();
  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  // Spawns one worker thread per shard.  Idempotent while running.
  void start();

  // Drains every ring (all accepted packets are processed), joins the
  // workers and accumulates uptime.  Idempotent; start() may follow.
  void stop();

  // Blocks until every packet offered before the call is delivered or
  // dropped.  Requires a running service when packets are outstanding.
  void flush();

  // Offers one packet.  Returns true if accepted; false if shed (DropTail
  // with a full shard ring).  Under kBlock this waits for ring space and
  // always returns true.  Must not be called concurrently with itself.
  bool ingest(Packet pkt);

  // Offers a whole trace in order; returns how many packets were accepted.
  std::size_t ingest_all(const std::vector<Packet>& pkts);

  // ---- byte-stream front end (parse -> shard-hash -> pipeline -> deparse) --
  //
  // Attach an ingress codec (parses frames into machine packets) and an
  // egress codec (deparses processed packets back to frames; pass the
  // compiler's output_map() as its rename so final field values land on the
  // wire).  tx == nullptr reuses rx for both directions.  Must be called
  // while the service is stopped; both codecs must be bound against the
  // prototype machine's FieldTable.
  void set_wire(std::shared_ptr<const wire::WireCodec> rx,
                std::shared_ptr<const wire::WireCodec> tx = nullptr);

  struct FrameIngest {
    wire::ParseResult parse;
    bool accepted = false;  // false: rejected by parse, or shed by DropTail
  };

  // Offers one frame.  Exact framing (frames are headers: trailing payload
  // is kOversized).  A frame is either parsed and offered to ingest() — so
  // every ingest contract (ordering, backpressure, stats) applies — or
  // rejected with a typed status and counted, leaving no other trace: a
  // malformed frame can never reach a ring, a shard, or the egress window.
  // Same threading contract as ingest(): one caller at a time.
  FrameIngest ingest_frame(const std::uint8_t* data, std::size_t len);

  // Order-settled egress deparsed back to frames (one byte vector each), in
  // arrival order.  Requires set_wire.
  std::vector<std::vector<std::uint8_t>> drain_egress_frames();

  // Order-settled egress so far, in arrival order (see OrderedEgress).
  std::vector<Packet> drain_egress() { return egress_.drain(); }

  ServiceStats stats() const;

  // The top-k flows by offered-packet count, keyed by flow_hash, from the
  // ingest-path space-saving table (see stats.h for the estimate/error
  // guarantees).  Empty unless ServiceConfig::heavy_hitter_capacity > 0.
  // Counts offered load, so DropTail sheds are included — the detector's job
  // is to explain pressure, not delivery.  Any thread.
  std::vector<HeavyHitter> heavy_hitters(std::size_t k) const;

  // Checkpoint / elastic-resharding cycle.  Both require a stopped service;
  // restore additionally requires a matching slot count (resharding changes
  // num_shards, never num_slots).
  ServiceSnapshot snapshot() const;
  void restore(const ServiceSnapshot& snap);

  bool running() const { return running_.load(std::memory_order_acquire); }
  const ServiceConfig& config() const { return config_; }
  std::size_t num_shards() const { return core_.num_shards(); }
  std::size_t num_slots() const { return core_.num_slots(); }
  std::size_t slot_of(const Packet& pkt) const { return core_.slot_of(pkt); }
  std::size_t shard_of(const Packet& pkt) const { return core_.shard_of(pkt); }
  // The slot replica, for differential verification against a reference.
  Machine& slot_machine(std::size_t slot) { return core_.slot_machine(slot); }

 private:
  struct Item {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    Packet pkt;
  };

  struct Shard {
    explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
    SpscRing<Item> ring;
    std::mutex mu;
    std::condition_variable cv;        // worker idle-sleep / wake-up
    std::atomic<bool> sleeping{false};
    std::thread worker;
    // Per-shard latency histogram: the worker records one sample per
    // delivered packet (batched, under lat_mu — uncontended except when
    // stats() merges).  Per-worker accumulation keeps the hot path free of
    // cross-shard sharing; stats() merges across shards.
    std::mutex lat_mu;
    LatencyHistogram lat_hist;
  };

  void worker_loop(std::size_t shard_index);
  void wake(Shard& shard);

  ServiceConfig config_;
  ShardCore core_;
  OrderedEgress egress_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Byte-stream front end.  Codecs are immutable after set_wire (which
  // requires a stopped service); counters are atomics because deparse
  // (drain_egress_frames) may run on a different thread than ingest_frame.
  std::shared_ptr<const wire::WireCodec> wire_rx_, wire_tx_;
  std::atomic<std::uint64_t> frames_parsed_{0};
  std::atomic<std::uint64_t> reject_truncated_{0};
  std::atomic<std::uint64_t> reject_oversized_{0};
  std::atomic<std::uint64_t> reject_bad_value_{0};
  std::atomic<std::uint64_t> wire_bytes_in_{0};
  std::atomic<std::uint64_t> wire_bytes_out_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Ingest calls in flight.  Workers refuse to exit while this is non-zero,
  // closing the race where an ingest that passed the running_ check pushes
  // into a ring whose worker has already shut down (all seq_cst: the
  // increment is ordered before the stopping_ check on the producer, so a
  // worker that reads 0 after stopping_ was set cannot miss a push).
  std::atomic<std::uint64_t> ingest_inflight_{0};
  std::atomic<std::uint64_t> seq_counter_{0};  // ingest clock: offered packets
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> latency_ticks_sum_{0};

  // Heavy-hitter table, fed by the (single) ingest thread and read by
  // heavy_hitters()/metrics threads; null when disabled.  The mutex is off
  // the worker hot path entirely — only ingest and readers touch it.
  std::unique_ptr<SpaceSaving> hh_;
  mutable std::mutex hh_mu_;

  mutable std::mutex lifecycle_mu_;  // start/stop/snapshot/restore/uptime
  std::chrono::steady_clock::time_point started_at_{};
  double uptime_seconds_ = 0;
};

}  // namespace banzai
