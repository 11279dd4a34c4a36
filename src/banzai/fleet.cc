#include "banzai/fleet.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/partition.h"

namespace banzai {

ShardCore::ShardCore(const Machine& prototype, std::size_t num_slots,
                     std::size_t num_shards, std::size_t batch_size,
                     std::vector<FieldId> flow_key)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      flow_key_(std::move(flow_key)) {
  if (num_slots == 0) num_slots = num_shards_;
  if (num_slots < num_shards_)
    throw std::invalid_argument(
        "ShardCore: num_slots must be >= num_shards (slots are the unit of "
        "state placement)");
  if (num_slots > 1 && flow_key_.empty())
    throw std::invalid_argument(
        "ShardCore: flow_key must name at least one packet field when "
        "partitioning state across slots");
  slots_.reserve(num_slots);
  for (std::size_t v = 0; v < num_slots; ++v) {
    slots_.push_back(prototype.clone());
    // Size each replica's stage-counter table now, before workers may read
    // it concurrently (it is not resize-safe against readers), and zero it —
    // a prototype that already processed packets must not pollute this
    // core's aggregated totals.
    slots_.back().prepare_stage_counters();
    slots_.back().reset_stage_counters();
  }
  scratch_.resize(num_shards_);
  for (Scratch& sc : scratch_) sc.idx.resize(num_slots);
}

std::uint64_t ShardCore::flow_hash(const Packet& pkt) const {
  std::uint64_t h = 0;
  for (FieldId f : flow_key_)
    h = netsim::mix64(
        h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(pkt.get(f))));
  return h;
}

std::size_t ShardCore::slot_of(const Packet& pkt) const {
  if (slots_.size() <= 1) return 0;
  return static_cast<std::size_t>(flow_hash(pkt) % slots_.size());
}

void ShardCore::drain(std::size_t shard, const std::size_t* slot_ids,
                      Packet* pkts, std::size_t n, Packet* out) {
  Scratch& sc = scratch_[shard];
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t>& idx = sc.idx[slot_ids[i]];
    if (idx.empty()) sc.touched.push_back(slot_ids[i]);
    idx.push_back(i);
  }
  for (std::size_t slot : sc.touched) {
    std::vector<std::size_t>& idx = sc.idx[slot];
    const std::size_t m = idx.size();
    if (sc.rows.size() < m) sc.rows.resize(m);
    for (std::size_t k = 0; k < m; ++k) sc.rows[k] = std::move(pkts[idx[k]]);
    Machine& machine = slots_[slot];
    for (std::size_t start = 0; start < m; start += batch_size_)
      machine.run_batch(BatchView::rows(sc.rows.data() + start,
                                        std::min(batch_size_, m - start)));
    for (std::size_t k = 0; k < m; ++k) out[idx[k]] = std::move(sc.rows[k]);
    idx.clear();
  }
  sc.touched.clear();
}

std::vector<StageCounterRow> ShardCore::stage_counter_rows() const {
  std::vector<StageCounterRow> rows;
  for (const Machine& m : slots_) m.stage_counters().merge_into(rows);
  return rows;
}

std::vector<StateStore> ShardCore::snapshot_state() const {
  std::vector<StateStore> snap;
  snap.reserve(slots_.size());
  for (const Machine& m : slots_) snap.push_back(m.snapshot_state());
  return snap;
}

void ShardCore::restore_state(const std::vector<StateStore>& snap) {
  if (snap.size() != slots_.size())
    throw std::invalid_argument(
        "ShardCore::restore_state: snapshot has a different slot count");
  for (std::size_t v = 0; v < slots_.size(); ++v)
    slots_[v].restore_state(snap[v]);
}

}  // namespace banzai
