// Differential proof for sharded execution through ShardCore: every shard's
// egress and final StateStore must match a single machine fed the same
// sub-trace, per-flow results must match a single-machine run of the full
// trace whenever flows do not alias in state, and the guarantees must hold on
// a Zipf-skewed trace where one shard runs hot — with shards drained on
// concurrent threads and serially.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "banzai/fleet.h"
#include "sim/partition.h"
#include "sim/tracegen.h"
#include "test_util.h"

namespace {

using banzai::FieldId;
using banzai::Packet;
using banzai::ShardCore;
using test_util::drain_trace;

struct FlowletSetup {
  domino::CompileResult compiled;
  FieldId f_sport, f_dport, f_arrival, f_id, f_next_hop;

  explicit FlowletSetup()
      : compiled(domino::compile(
            algorithms::algorithm("flowlets").source,
            *test_util::least_target(
                algorithms::algorithm("flowlets").source))) {
    const auto& ft = compiled.machine().fields();
    f_sport = ft.id_of("sport");
    f_dport = ft.id_of("dport");
    f_arrival = ft.id_of("arrival");
    // Final values of user fields live in their SSA-renamed machine fields.
    f_id = ft.id_of(final_name("id"));
    f_next_hop = ft.id_of(final_name("next_hop"));
  }

  std::string final_name(const std::string& field) const {
    const auto& m = compiled.output_map();
    return m.count(field) ? m.at(field) : field;
  }

  // Maps a netsim trace onto flowlet packets: the (sport, dport) pair is the
  // flow key the machine hashes into its flowlet tables.
  std::vector<Packet> to_packets(
      const std::vector<netsim::TracePacket>& trace) const {
    std::vector<Packet> pkts;
    pkts.reserve(trace.size());
    for (const auto& tp : trace) {
      Packet p(compiled.machine().fields().size());
      p.set(f_sport, 1000 + tp.flow_id);
      p.set(f_dport, 80);
      p.set(f_arrival, static_cast<banzai::Value>(tp.arrival));
      pkts.push_back(std::move(p));
    }
    return pkts;
  }

  // One slot replica per shard: slot s is shard s's machine.
  ShardCore core(std::size_t shards) const {
    return ShardCore(compiled.machine(), shards, shards, 128,
                     {f_sport, f_dport});
  }
};

// Every shard must be indistinguishable from a single machine that was fed
// exactly that shard's packets, in arrival order — per-flow state
// consistency, with no caveats.
void expect_shards_match_single_machines(const FlowletSetup& setup,
                                         const std::vector<Packet>& trace,
                                         const ShardCore& core,
                                         const std::vector<Packet>& egress) {
  ASSERT_EQ(egress.size(), trace.size());
  for (std::size_t s = 0; s < core.num_shards(); ++s) {
    banzai::Machine reference = setup.compiled.machine().clone();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (core.shard_of(trace[i]) != s) continue;
      ASSERT_EQ(egress[i], reference.process(trace[i]))
          << "shard " << s << ", packet " << i;
    }
    EXPECT_EQ(core.slot_machine(s).state(), reference.state())
        << "shard " << s;
  }
}

TEST(ShardCoreTest, ShardsMatchSingleMachineSubTraces) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 4000;
  cfg.num_flows = 40;
  cfg.zipf_skew = 1.1;
  cfg.seed = 11;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  ShardCore core = setup.core(4);
  const auto egress = drain_trace(core, trace, /*parallel=*/true);
  expect_shards_match_single_machines(setup, trace, core, egress);
}

TEST(ShardCoreTest, MatchesFullTraceSingleMachineWhenFlowsDoNotAlias) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 5000;
  cfg.num_flows = 30;
  cfg.zipf_skew = 1.1;
  cfg.seed = 5;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  // Single machine over the full trace.
  banzai::Machine single = setup.compiled.machine().clone();
  std::vector<Packet> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) expected.push_back(single.process(p));

  // Precondition for full-trace equivalence: distinct flows occupy distinct
  // flowlet-table slots (pkt.id), so no state is shared across shards.  The
  // trace is deterministic; if a new seed introduced a collision this fails
  // loudly instead of comparing apples to oranges.
  std::map<banzai::Value, std::set<banzai::Value>> id_to_flows;
  for (std::size_t i = 0; i < trace.size(); ++i)
    id_to_flows[expected[i].get(setup.f_id)].insert(
        trace[i].get(setup.f_sport));
  for (const auto& [id, flows] : id_to_flows)
    ASSERT_EQ(flows.size(), 1u) << "flowlet slot " << id << " is shared";

  ShardCore core = setup.core(4);
  const auto merged = drain_trace(core, trace, /*parallel=*/true);
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i)
    ASSERT_EQ(merged[i], expected[i]) << "packet " << i;
}

TEST(ShardCoreTest, ZipfSkewedTraceRunsOneShardHotAndStaysConsistent) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 6000;
  cfg.num_flows = 200;
  cfg.zipf_skew = 1.6;  // heavy skew: the top flow dominates
  cfg.seed = 23;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  ShardCore core = setup.core(4);
  const auto egress = drain_trace(core, trace, /*parallel=*/true);

  std::vector<std::size_t> load(core.num_shards(), 0);
  for (const Packet& p : trace) ++load[core.shard_of(p)];
  const std::size_t hottest = *std::max_element(load.begin(), load.end());
  const std::size_t coldest = *std::min_element(load.begin(), load.end());
  // The point of the skewed fixture: load is genuinely imbalanced.
  EXPECT_GE(hottest, 2 * coldest);
  expect_shards_match_single_machines(setup, trace, core, egress);
}

TEST(ShardCoreTest, ConcurrentAndSerialShardDrainsAgree) {
  // The thread-safety contract: drains of distinct shards may run at once.
  // Threads draining the four shards concurrently must produce exactly the
  // serial run's egress and per-shard state (TSan covers the races).
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 3000;
  cfg.num_flows = 64;
  cfg.seed = 9;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  ShardCore threaded = setup.core(4);
  ShardCore serial = setup.core(4);
  const auto a = drain_trace(threaded, trace, /*parallel=*/true);
  const auto b = drain_trace(serial, trace, /*parallel=*/false);

  EXPECT_EQ(a, b);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_EQ(threaded.slot_machine(s).state(), serial.slot_machine(s).state())
        << "shard " << s;
}

TEST(ShardCoreTest, StatePersistsAcrossDrains) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 1000;
  cfg.num_flows = 16;
  cfg.seed = 3;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));
  const auto half = trace.size() / 2;
  const std::vector<Packet> first(trace.begin(), trace.begin() + half);
  const std::vector<Packet> second(trace.begin() + half, trace.end());

  ShardCore split_runs = setup.core(3);
  drain_trace(split_runs, first, /*parallel=*/true);
  drain_trace(split_runs, second, /*parallel=*/true);

  ShardCore one_run = setup.core(3);
  drain_trace(one_run, trace, /*parallel=*/true);

  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(split_runs.slot_machine(s).state(),
              one_run.slot_machine(s).state())
        << "shard " << s;
}

TEST(ShardCoreTest, ShardingRequiresFlowKey) {
  FlowletSetup setup;
  // Four slots but no flow_key.
  EXPECT_THROW(ShardCore(setup.compiled.machine(), 4, 4, 128, {}),
               std::invalid_argument);
  // A single slot needs no key.
  EXPECT_NO_THROW(ShardCore(setup.compiled.machine(), 1, 1, 128, {}));
}

TEST(PartitionTest, StableAndFlowConsistent) {
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 2000;
  cfg.num_flows = 50;
  cfg.seed = 7;
  const auto trace = netsim::generate_flow_trace(cfg);
  const auto parts = netsim::partition_by_flow(trace, 4);

  std::size_t total = 0;
  for (std::size_t s = 0; s < parts.num_shards(); ++s) {
    total += parts.shards[s].size();
    // Every packet of a flow lands on the shard its flow hashes to, and
    // original positions are strictly increasing (stable partition).
    for (std::size_t i = 0; i < parts.shards[s].size(); ++i) {
      EXPECT_EQ(netsim::shard_of_key(
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        parts.shards[s][i].flow_id)),
                    4),
                s);
      if (i > 0) {
        EXPECT_LT(parts.source_index[s][i - 1], parts.source_index[s][i]);
      }
    }
  }
  EXPECT_EQ(total, trace.size());
}

}  // namespace
