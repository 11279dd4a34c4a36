// Flow-hash sharding: the one place the shard-selection hash lives, shared by
// the trace-level partitioner here and the packet-level banzai::ShardCore.
//
// Partitioning is by flow so that all packets of a flow land on the same
// shard, preserving per-flow state consistency (each shard's StateStore sees
// a flow's packets in arrival order, exactly as a single machine would).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/tracegen.h"

namespace netsim {

// SplitMix64 finalizer: cheap, well-mixed, and stable across platforms so
// shard assignment is deterministic everywhere.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::size_t shard_of_key(std::uint64_t key, std::size_t num_shards) {
  return num_shards <= 1
             ? 0
             : static_cast<std::size_t>(mix64(key) % num_shards);
}

// A trace split across shards, remembering each packet's position in the
// original trace so results can be merged back into arrival order.
struct PartitionedTrace {
  std::vector<std::vector<TracePacket>> shards;
  std::vector<std::vector<std::size_t>> source_index;  // per shard, per packet

  std::size_t num_shards() const { return shards.size(); }
};

// Stable partition by flow id: within a shard, packets keep their relative
// arrival order.
inline PartitionedTrace partition_by_flow(const std::vector<TracePacket>& trace,
                                          std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  PartitionedTrace out;
  out.shards.resize(num_shards);
  out.source_index.resize(num_shards);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t s = shard_of_key(
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(trace[i].flow_id)),
        num_shards);
    out.shards[s].push_back(trace[i]);
    out.source_index[s].push_back(i);
  }
  return out;
}

}  // namespace netsim
