// Flow-hash sharded execution of one compiled Banzai program: ShardCore, the
// partition/drain engine every batch runtime shares (FleetService's shard
// workers, the distributed WorkerServer, NetFabric's multi-pipeline nodes).
// One compiled program is cloned into `num_slots` replicas ("slots", the
// virtual shards of consistent hashing); a packet's flow key hashes to a
// slot, and slots are dealt round-robin onto `num_shards` workers
// (shard = slot % num_shards).  Because a slot carries its entire
// StateStore, per-flow state can later be migrated to a different worker
// count by moving whole slots — the mechanism behind FleetService's
// snapshot → reshard → restore cycle.
//
// Each slot's packets run through Machine::run_batch, the machine's one
// batch entry, as row-major batches of at most `batch_size` packets.  The
// machine executes a batch stage-major (every packet through stage s before
// stage s+1), which is observationally identical to packet-major order
// because every state variable is local to exactly one atom in one stage
// (§2.3's locality discipline); tests/batch_test.cc proves it against
// PipelineSim and sequential Machine::process on the whole corpus.
//
// What sharding preserves and what it gives up: flows that never share state
// cells behave identically to a single machine.  Flows on different slots no
// longer collide in shared state (e.g. two flows hashing to the same
// flowlet-table entry) — tests/fleet_test.cc pins down both sides of that
// contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "banzai/machine.h"
#include "banzai/packet.h"

namespace banzai {

// The partition/drain core.  Thread-safety contract: calls for different
// shards may run concurrently (a shard's slots and scratch buffers are
// touched by no other shard because slot % num_shards is a partition);
// calls for the same shard must be serialized by the caller.
class ShardCore {
 public:
  ShardCore(const Machine& prototype, std::size_t num_slots,
            std::size_t num_shards, std::size_t batch_size,
            std::vector<FieldId> flow_key);

  std::size_t num_slots() const { return slots_.size(); }
  std::size_t num_shards() const { return num_shards_; }
  // Packets per Machine::run_batch call; a batch_size of 0 is clamped to 1.
  std::size_t batch_size() const { return batch_size_; }

  // Chained SplitMix64 over the flow-key fields: the one flow-hash definition
  // repo-wide (see sim/partition.h for the single-key form).
  std::uint64_t flow_hash(const Packet& pkt) const;
  std::size_t slot_of(const Packet& pkt) const;
  std::size_t shard_of(const Packet& pkt) const {
    return slot_of(pkt) % num_shards_;
  }

  Machine& slot_machine(std::size_t slot) { return slots_[slot]; }
  const Machine& slot_machine(std::size_t slot) const { return slots_[slot]; }

  // Drains n packets belonging to `shard` through their slot replicas,
  // preserving arrival order per slot, and writes the processed packet for
  // pkts[i] into out[i].  slot_ids[i] must equal slot_of(pkts[i]) and map to
  // `shard`; pkts are consumed (moved from).  Grouping the batch by slot is
  // legal because slots share no state: the per-slot sub-batches commute.
  // Steady-state calls allocate nothing: each slot's packets move into the
  // shard's reused row scratch, run there in place, and move out to `out`.
  void drain(std::size_t shard, const std::size_t* slot_ids, Packet* pkts,
             std::size_t n, Packet* out);

  // Whole-slot state checkpointing, indexed by slot.  restore_state accepts
  // snapshots taken from a core with any shard count, as long as the slot
  // count (and program shape) match — that is the elastic-resharding move.
  std::vector<StateStore> snapshot_state() const;
  void restore_state(const std::vector<StateStore>& snap);

  // Per-stage observability totals summed over every slot replica (stats.h).
  // Safe to call while shards drain concurrently: the constructor prepared
  // (and reset) each replica's table, so readers only race relaxed counter
  // loads — the result is a point-in-time snapshot that may trail in-flight
  // batches.  All-zero rows unless built with -DDOMINO_STAGE_COUNTERS.
  std::vector<StageCounterRow> stage_counter_rows() const;

 private:
  std::size_t num_shards_;
  std::size_t batch_size_;
  std::vector<FieldId> flow_key_;
  std::vector<Machine> slots_;  // one replica per slot
  struct Scratch {
    std::vector<std::vector<std::size_t>> idx;  // per slot: batch positions
    std::vector<std::size_t> touched;           // slots seen this drain
    std::vector<Packet> rows;                   // one slot's group, in place
  };
  std::vector<Scratch> scratch_;  // one per shard, reused across drains
};

}  // namespace banzai
